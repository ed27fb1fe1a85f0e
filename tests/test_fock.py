"""Operator-construction oracles: ladder algebra on the truncated space.

The builders write the exchange bands straight into the matrix, so the
truncated lowering operator is read off the upper-right spin block of the
one-photon model at rho = 1 with the diagonal switched off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qjc.fock import (
    SPIN_DOWN,
    SPIN_UP,
    SpinFockOperator,
    TruncatedFockSpace,
    basis_index,
)
from qjc.errors import ValidationError
from qjc.models import ModelParams, build_jcm
from qjc.symmetry import parity_matrix

# spin factors in the (up, down) basis for spin-major Kronecker products
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_MINUS = SIGMA_PLUS.T


def exchange(cutoff):
    """rho (sigma_plus (x) a + sigma_minus (x) adag) at rho = 1, no diagonal part."""
    space = TruncatedFockSpace(cutoff=cutoff, guard=3)
    return build_jcm(ModelParams(epsilon=0.0, hbar_omega=0.0, rho=1.0), space)


def lowering(cutoff):
    """The truncated a, read off the upper-right spin block of `exchange`."""
    return exchange(cutoff).matrix[:cutoff, cutoff:]


def test_annihilation_action_on_number_states():
    a = lowering(8)
    for n in range(1, 8):
        ket = np.zeros(8)
        ket[n] = 1.0
        expected = np.zeros(8)
        expected[n - 1] = np.sqrt(n)
        assert_allclose(a @ ket, expected, atol=0.0)
    # a|0> = 0 with no wraparound
    assert_array_equal(a @ np.eye(8)[0], np.zeros(8))


def test_creation_is_exact_transpose():
    # the lower-left block is the raising operator: sqrt(n) on the
    # subdiagonal and nothing else, the exact transpose of the lowering block
    h = exchange(12).matrix
    adag = h[12:, :12]
    assert_array_equal(adag, np.diag(np.sqrt(np.arange(1.0, 12.0)), k=-1))
    assert_array_equal(adag, h[:12, 12:].T)


def test_hard_cutoff_annihilates_top_state():
    adag = lowering(6).T
    top = np.zeros(6)
    top[5] = 1.0
    assert_array_equal(adag @ top, np.zeros(6))


def test_commutator_matrix_elements_at_d8():
    # Independent route: form [a, adag] by explicit matrix products and
    # compare element-by-element with the Kronecker delta away from the
    # corner.  The only deviation allowed is the (D-1, D-1) entry, where the
    # truncated commutator evaluates to 1 - D instead of 1.  sqrt(n)**2
    # rounds within an ulp, hence the tiny absolute tolerance.
    a = lowering(8)
    adag = a.T
    comm = a @ adag - adag @ a
    for m in range(8):
        for n in range(8):
            expected = 1.0 if m == n else 0.0
            if m == n == 7:
                expected = 1.0 - 8.0
            assert comm[m, n] == pytest.approx(expected, abs=5e-15)


def test_parity_anticommutes_with_ladder_everywhere():
    space = TruncatedFockSpace(cutoff=10, guard=2)
    a = lowering(10)
    adag = a.T
    pi = parity_matrix(space)[:10, :10]
    assert_array_equal(pi @ a @ pi, -a)
    assert_array_equal(pi @ adag @ pi, -adag)


def test_number_operator_diagonal():
    # hbar_omega n_hat +- epsilon/2 on the diagonal: at hbar_omega = 1,
    # epsilon = 0 both spin blocks carry n_hat = diag(0, 1, ..., D-1)
    space = TruncatedFockSpace(cutoff=5, guard=3)
    h = build_jcm(ModelParams(epsilon=0.0, rho=0.0), space).matrix
    assert_array_equal(np.diag(h), np.tile(np.arange(5.0), 2))


def test_spin_major_ordering_and_index():
    space = TruncatedFockSpace(cutoff=4, guard=0)
    labels = [(n, SPIN_UP) for n in range(4)] + [(n, SPIN_DOWN) for n in range(4)]
    for i, (n, ms) in enumerate(labels):
        assert basis_index(space, n, ms) == i


def test_tensor_sigma_plus_a_moves_one_down_quantum_up():
    # Hand expansion: the exchange sends |1, down> to sqrt(1)|0, up> through
    # sigma_plus (x) a, and |2, up> to sqrt(3)|3, down> through
    # sigma_minus (x) adag.
    op = exchange(5)
    space = op.space
    ket = np.zeros(space.dim)
    ket[basis_index(space, 1, SPIN_DOWN)] = 1.0
    expected = np.zeros(space.dim)
    expected[basis_index(space, 0, SPIN_UP)] = 1.0
    assert_allclose(op.matrix @ ket, expected, atol=0.0)
    up = np.zeros(space.dim)
    up[basis_index(space, 2, SPIN_UP)] = 1.0
    expected = np.zeros(space.dim)
    expected[basis_index(space, 3, SPIN_DOWN)] = np.sqrt(3.0)
    assert_allclose(op.matrix @ up, expected, atol=0.0)


def test_tensor_block_placement():
    # the spin-major Kronecker product is the band assembly, quadrant by quadrant
    a = np.diag(np.sqrt(np.arange(1.0, 5.0)), k=1)
    assert_array_equal(exchange(5).matrix, np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, a.T))


def test_parity_operator_acts_on_fock_factor_only():
    space = TruncatedFockSpace(cutoff=5, guard=1)
    pi = parity_matrix(space)
    for n in range(5):
        for ms in (SPIN_UP, SPIN_DOWN):
            i = basis_index(space, n, ms)
            assert pi[i, i] == (-1.0) ** n
    assert_array_equal(pi, np.diag(np.diag(pi)))


def test_construction_is_deterministic():
    first = exchange(16).matrix
    second = exchange(16).matrix
    assert first.tobytes() == second.tobytes()


@given(cutoff=st.integers(min_value=5, max_value=40))
@settings(max_examples=25, deadline=None)
def test_commutator_identity_off_corner(cutoff):
    a = lowering(cutoff)
    adag = a.T
    comm = a @ adag - adag @ a
    assert_allclose(comm[:-1, :-1], np.eye(cutoff - 1), atol=3e-14)
    assert comm[-1, -1] == pytest.approx(1.0 - cutoff, abs=3e-14)


@pytest.mark.parametrize(
    "cutoff,guard",
    [(3, 0), (8, 8), (4, -1)],
)
def test_space_validation(cutoff, guard):
    with pytest.raises(ValueError):
        TruncatedFockSpace(cutoff=cutoff, guard=guard)


@pytest.mark.parametrize("n, ms", [(4, SPIN_UP), (-1, SPIN_DOWN), (0, 0.0)])
def test_basis_index_validation(n, ms):
    space = TruncatedFockSpace(cutoff=4, guard=0)
    with pytest.raises(ValueError):
        basis_index(space, n, ms)


def test_operator_shape_validation():
    space = TruncatedFockSpace(cutoff=4, guard=0)
    diagonal, band = np.zeros(8), np.ones(3)
    assert SpinFockOperator(space, diagonal, {1: (band, band)}).matrix.shape == (8, 8)
    for wrong in (
        (np.zeros(6), {}),  # a diagonal not 2D long
        (np.zeros(10), {}),
        (diagonal, {-1: (np.ones(5), np.ones(5))}),  # a band outside 0 <= j < D
        (diagonal, {4: (np.ones(0), np.ones(0))}),
        (diagonal, {1: (band, np.ones(4))}),  # a run not D - j long
        (diagonal, {2: (np.ones(3), np.ones(2))}),
    ):
        with pytest.raises(ValidationError):
            SpinFockOperator(space, *wrong)
