"""Polynomial-doublet realization against the Fock-side routes."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjc._linalg import spectrum_mismatch
from qjc.closedform import doublet_block, doublet_eigenvalues
from qjc.errors import ValidationError
from qjc.models import ModelParams
from qjc.polyrep import (
    PolySpaceOperator,
    derivative_matrix,
    gauge_transform_ht,
    gauge_transform_pseudo_jcm,
    multiply_x_matrix,
    restriction_spectrum,
)
from qjc.qes import algebraic_eigenvalues


def sorted_levels(values):
    arr = np.array(list(values), dtype=complex)
    return arr[np.lexsort((arr.imag, arr.real))]


def test_derivative_matrix_differentiates():
    # d/dx (1+x)^3 = 3 (1+x)^2, in ascending monomial coefficients
    d = derivative_matrix(4)
    cubed = np.array([1.0, 3.0, 3.0, 1.0, 0.0])
    npt.assert_array_equal(d @ cubed, [3.0, 6.0, 3.0, 0.0, 0.0])
    npt.assert_array_equal(d @ (d @ cubed), [6.0, 6.0, 0.0, 0.0, 0.0])


def test_multiply_x_shifts_coefficients():
    x = multiply_x_matrix(3)
    npt.assert_array_equal(x @ np.array([5.0, 7.0, 0.0, 0.0]), [0.0, 5.0, 7.0, 0.0])


def test_euler_operator_is_degree_diagonal():
    w = 6
    euler = multiply_x_matrix(w) @ derivative_matrix(w)
    npt.assert_array_equal(euler, np.diag(np.arange(w + 1.0)))


def test_mode_commutator_is_one_below_truncation():
    # [a, a^dag] = 1 holds exactly on inputs whose image is not truncated
    from qjc.polyrep import _mode_operators

    w = 9
    d, raise_2x, number = _mode_operators(w)
    a, a_dag = (-1j / np.sqrt(2.0)) * d, (-1j / np.sqrt(2.0)) * raise_2x
    comm = a @ a_dag - a_dag @ a
    npt.assert_allclose(comm[:, :w], np.eye(w + 1)[:, :w], atol=1e-14)
    # the number operator is triangular with the oscillator ladder on its
    # diagonal: the gauge transform shears eigenvectors, not eigenvalues
    npt.assert_array_equal(np.diag(number), np.arange(w + 1.0))
    npt.assert_array_equal(np.tril(number, -1), 0.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_one_photon_caps_never_leak(n):
    params = ModelParams(epsilon=0.7, rho=0.4)
    op = gauge_transform_pseudo_jcm(params, n)
    assert op.caps == (n - 1, n)
    assert op.dim == 2 * n + 1
    assert op.leak == 0.0


@pytest.mark.parametrize("n", range(1, 11))
def test_one_photon_restriction_matches_ladder_spectrum(n):
    params = ModelParams(epsilon=0.7, rho=0.4)
    got = restriction_spectrum(gauge_transform_pseudo_jcm(params, n))
    fock = ModelParams(epsilon=0.7, rho=0.4, phi=-1, k=1)
    expected = [-0.5 * fock.epsilon]
    for j in range(n):
        expected.extend(doublet_eigenvalues(doublet_block(fock, j)))
    assert spectrum_mismatch(got, expected) < 1e-10


def test_one_photon_complex_pairs_match():
    # strong coupling: every doublet discriminant is negative, the spectrum
    # is the decoupled singlet plus conjugate pairs, and both routes agree
    # on the imaginary parts
    params = ModelParams(epsilon=1.0, rho=1.0)
    got = restriction_spectrum(gauge_transform_pseudo_jcm(params, 6))
    fock = ModelParams(epsilon=1.0, rho=1.0, phi=-1, k=1)
    expected = [-0.5]
    for j in range(6):
        expected.extend(doublet_eigenvalues(doublet_block(fock, j)))
    assert spectrum_mismatch(got, expected) < 1e-10
    assert np.max(np.abs(got.imag)) > 0.4


def test_one_photon_rho_zero_is_triangular():
    params = ModelParams(epsilon=0.6, hbar_omega=0.75, rho=0.0)
    op = gauge_transform_pseudo_jcm(params, 4)
    npt.assert_array_equal(np.tril(op.matrix, -1), 0.0)
    expected = [0.75 * j + 0.3 for j in range(4)] + [0.75 * m - 0.3 for m in range(5)]
    npt.assert_allclose(restriction_spectrum(op), sorted_levels(expected), atol=1e-12)


def test_wrong_one_photon_cap_pair_leaks():
    params = ModelParams(epsilon=0.7, rho=0.4)
    op = gauge_transform_pseudo_jcm(params, 3, caps=(3, 3))
    assert op.leak > 0.1
    with pytest.raises(ValidationError, match="leak"):
        restriction_spectrum(op)


@given(d1=st.integers(0, 12), d2=st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_one_photon_leak_vanishes_only_for_adjacent_caps(d1, d2):
    params = ModelParams(epsilon=0.9, rho=0.7)
    op = gauge_transform_pseudo_jcm(params, 1, caps=(d1, d2))
    if d2 == d1 + 1:
        assert op.leak == 0.0
    else:
        assert op.leak > 0.0


@pytest.mark.parametrize("big_n", range(6))
@pytest.mark.parametrize("phi", [-1, 1])
def test_dressed_caps_close_exactly(big_n, phi):
    params = ModelParams(epsilon=1.0, rho=0.8, theta=1.3, n_qes=big_n + 2, phi=phi)
    op = gauge_transform_ht(params)
    assert op.caps == (big_n, big_n + 2)
    assert op.dim == 2 * big_n + 4
    assert op.leak == 0.0


def test_dressed_off_by_one_cap_leaks():
    # (N, N+1) misses the image of (a^dag)^2 acting on degree N
    params = ModelParams(epsilon=1.0, rho=0.8, theta=1.3, n_qes=4, phi=-1)
    op = gauge_transform_ht(params, caps=(2, 3))
    assert op.leak > 0.1


@pytest.mark.parametrize("big_n", range(5))
@pytest.mark.parametrize("phi", [-1, 1])
def test_dressed_restriction_matches_fock_algebraic(big_n, phi):
    params = ModelParams(epsilon=0.8, rho=0.6, theta=1.1, n_qes=big_n + 2, phi=phi)
    got = restriction_spectrum(gauge_transform_ht(params))
    assert spectrum_mismatch(got, algebraic_eigenvalues(params)) < 1e-9


def test_dressed_rho_zero_matches_fock_algebraic():
    params = ModelParams(epsilon=1.0, rho=0.0, theta=3.0, n_qes=3, phi=-1)
    got = restriction_spectrum(gauge_transform_ht(params))
    assert spectrum_mismatch(got, algebraic_eigenvalues(params)) < 1e-10


def test_theta_zero_dressed_reduces_to_two_photon_levels():
    big_n = 3
    params = ModelParams(epsilon=0.8, rho=0.5, theta=0.0, n_qes=big_n + 2, phi=1)
    got = restriction_spectrum(gauge_transform_ht(params))
    two_photon = ModelParams(epsilon=0.8, rho=0.5, phi=1, k=2)
    expected = [-0.4, 0.6]  # bare |0, down> and |1, down>
    for j in range(big_n + 1):
        expected.extend(doublet_eigenvalues(doublet_block(two_photon, j)))
    npt.assert_allclose(got, sorted_levels(expected), atol=1e-10)


def test_entries_are_complex_but_spectrum_is_real():
    # the -i phase in the realization puts complex numbers in the matrix;
    # they are a similarity artifact and cancel from every eigenvalue.
    # epsilon is kept off-resonant: at epsilon = hbar omega the doublet gaps
    # close and the antisymmetric coupling turns the whole spectrum complex
    params = ModelParams(epsilon=3.0, rho=0.2)
    op = gauge_transform_pseudo_jcm(params, 5)
    assert np.max(np.abs(op.matrix.imag)) > 0.1
    spectrum = restriction_spectrum(op)
    npt.assert_array_equal(spectrum.imag, 0.0)


def test_dressed_transform_requires_n_qes():
    with pytest.raises(ValidationError, match="n_qes"):
        gauge_transform_ht(ModelParams(rho=0.5, theta=1.0))


def test_cap_bounds_are_validated():
    with pytest.raises(ValidationError, match="caps"):
        gauge_transform_pseudo_jcm(ModelParams(rho=0.5), 1, caps=(70, 71))
    with pytest.raises(ValidationError, match=">= 1"):
        gauge_transform_pseudo_jcm(ModelParams(rho=0.5), 0)


def test_operator_reports_dimensions():
    op = PolySpaceOperator(matrix=np.eye(3), caps=(0, 1), leak=0.0)
    assert op.dim == 3
