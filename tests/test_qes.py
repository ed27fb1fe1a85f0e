"""Invariant-subspace construction and algebraic spectra."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjc.models
from qjc.closedform import doublet_block, doublet_eigenvalues
from qjc.errors import ValidationError
from qjc.fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from qjc.models import ModelParams, build_h12, build_ht
from qjc.qes import (
    algebraic_eigenvalues,
    algebraic_spectrum,
    build_subspace,
    certify_in_full_space,
    embed_subspace_vector,
    invariance_defect,
    restriction_matrix,
)

SPACE = TruncatedFockSpace(32, 8)


def test_subspace_dimensions_and_indices():
    params = ModelParams(rho=0.3, theta=0.7, n_qes=4, phi=-1)
    sub = build_subspace(params, SPACE)
    assert sub.big_n == 2
    assert sub.n == 4
    assert sub.dim == 8
    # upper |0..2, up> sit at 0..2, lower |0..4, down> at D..D+4
    assert sub.upper_indices == (0, 1, 2)
    assert sub.lower_indices == (32, 33, 34, 35, 36)
    assert sub.indices == (0, 1, 2, 32, 33, 34, 35, 36)
    assert len(sub.indices) == sub.dim


@pytest.mark.parametrize("big_n", range(6))
@pytest.mark.parametrize("phi", [-1, 1])
def test_invariance_is_exact(big_n, phi):
    # the (n_hat - n) dressing kills the would-be escape transition exactly,
    # so the leak block is zero in floating point, not merely small
    params = ModelParams(rho=0.9, theta=1.7, n_qes=big_n + 2, phi=phi)
    sub = build_subspace(params, SPACE)
    assert sub.defect == 0.0


@given(
    big_n=st.integers(min_value=0, max_value=6),
    rho=st.floats(-3, 3, allow_nan=False),
    theta=st.floats(-5, 5, allow_nan=False),
    phi=st.sampled_from([-1, 1]),
)
@settings(max_examples=40, deadline=None)
def test_invariance_exact_property(big_n, rho, theta, phi):
    params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
    sub = build_subspace(params, SPACE)
    assert sub.defect == 0.0


def test_undressed_one_photon_model_never_closes():
    # with a bare (non-dressed) one-photon term every contiguous candidate
    # span {|0..A, up>, |0..B, down>} leaks: closure would need both
    # B >= A + 2 (two-photon down-leg) and B <= A + 1 (one-photon up-leg)
    params = ModelParams(rho=1.0, rho1=1.0, rho1_hat=1.0, phi=-1)
    h = build_h12(params, SPACE)
    for a in range(9):
        for b in range(9):
            upper = tuple(basis_index(SPACE, j, SPIN_UP) for j in range(a + 1))
            lower = tuple(basis_index(SPACE, m, SPIN_DOWN) for m in range(b + 1))
            assert invariance_defect(h.matrix, upper + lower) > 0.0


def test_restriction_matches_projected_full_matrix():
    params = ModelParams(rho=0.7, theta=1.3, n_qes=5, phi=-1)
    sub = build_subspace(params, SPACE)
    h = build_ht(params, SPACE)
    idx = np.array(sub.indices)
    npt.assert_allclose(
        h.matrix[np.ix_(idx, idx)], restriction_matrix(params), atol=1e-13
    )


def test_restriction_lowest_down_state_is_decoupled():
    # |0, down> couples to nothing: its column is purely diagonal, giving the
    # exact eigenvalue -eps/2 at any coupling strength
    params = ModelParams(epsilon=1.4, rho=2.1, theta=-0.8, n_qes=6, phi=-1)
    mat = restriction_matrix(params)
    col = np.zeros(mat.shape[0])
    col[5] = 1.0  # uppers 0..4 occupy slots 0..4, lower m = 0 sits at 5
    npt.assert_array_equal(mat @ col, -0.7 * col)


def test_trace_identity():
    params = ModelParams(rho=1.1, theta=0.9, n_qes=5, phi=-1, hbar_omega=0.75)
    big_n = params.big_n
    expected = sum(0.75 * j + 0.5 for j in range(big_n + 1)) + sum(
        0.75 * m - 0.5 for m in range(big_n + 3)
    )
    mat = restriction_matrix(params)
    npt.assert_allclose(np.trace(mat), expected, rtol=1e-14)
    w = algebraic_eigenvalues(params)
    npt.assert_allclose(np.sum(w), expected, atol=1e-12)


@pytest.mark.parametrize("theta", [0.25, 1.0, 1.5, 3.0])
def test_decoupled_two_photon_limit_spectrum(theta):
    # at rho = 0, N = 1 the 6x6 restriction splits into a decoupled level and
    # two 2x2 blocks; eigenvalues follow from the quadratic formula:
    #   {-1/2, (3 +- 4 theta)/6, (9 +- 2 sqrt(2) theta)/6, 5/2}
    params = ModelParams(rho=0.0, theta=theta, n_qes=3, phi=-1)
    w = algebraic_eigenvalues(params)
    assert np.max(np.abs(w.imag)) == 0.0
    expected = sorted(
        [
            -0.5,
            (3 - 4 * theta) / 6,
            (3 + 4 * theta) / 6,
            (9 - 2 * math.sqrt(2) * theta) / 6,
            (9 + 2 * math.sqrt(2) * theta) / 6,
            2.5,
        ]
    )
    npt.assert_allclose(np.sort(w.real), expected, atol=1e-12)


def test_vanishing_dressing_reduces_to_two_photon_doublets():
    # theta = 0 turns the restriction into the plain two-photon model: two
    # low singlets plus doublets (|t, up>, |t+2, down>) for t = 0..N
    params = ModelParams(rho=0.35, theta=0.0, n_qes=4, phi=-1, epsilon=0.8)
    w = algebraic_eigenvalues(params)
    two_photon = ModelParams(rho=0.35, phi=-1, k=2, epsilon=0.8)
    expected = [-0.4, 0.6]
    for t in range(3):
        expected.extend(doublet_eigenvalues(doublet_block(two_photon, t)))
    expected = sorted(expected, key=lambda z: (complex(z).real, complex(z).imag))
    npt.assert_allclose(w, expected, atol=1e-12)


@pytest.mark.parametrize("cutoff", [32, 64])
@pytest.mark.parametrize("big_n", [0, 1, 3])
def test_full_space_certification(cutoff, big_n):
    space = TruncatedFockSpace(cutoff, 8)
    params = ModelParams(rho=0.8, theta=1.2, n_qes=big_n + 2, phi=-1)
    sub = build_subspace(params, space)
    pairs = algebraic_spectrum(sub, params)
    assert len(pairs) == 2 * big_n + 4
    for pair in pairs:
        assert pair.residual <= 1e-10
        if pair.defective:
            continue
        # the residual already certifies the pair on (cutoff, guard); spot
        # check the embedding geometry too
        full = embed_subspace_vector(sub, pair.vector, space)
        assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-12)
        res = certify_in_full_space(pair.energy, pair.vector, sub, params, space)
        assert res <= 1e-10


def test_complex_pairs_certify_too():
    params = ModelParams(rho=2.5, theta=0.4, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    pairs = algebraic_spectrum(sub, params)
    complexes = [p for p in pairs if abs(p.energy.imag) > 1e-10]
    assert complexes, "strong flipped coupling should produce complex pairs"
    for pair in pairs:
        assert pair.residual <= 1e-10
    key = lambda z: (z.real, z.imag)
    values = sorted((p.energy for p in complexes if p.energy.imag > 0), key=key)
    conj = sorted(
        (p.energy.conjugate() for p in complexes if p.energy.imag < 0), key=key
    )
    npt.assert_allclose(values, conj, rtol=1e-12)


def test_exceptional_point_cluster_is_flagged():
    # theta = 0, rho = 1/(2 sqrt 2): the embedded two-photon doublet t = 0
    # hits its coalescence, leaving a true Jordan block in the restriction
    params = ModelParams(rho=1 / (2 * math.sqrt(2)), theta=0.0, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    pairs = algebraic_spectrum(sub, params)
    flagged = [p for p in pairs if p.defective]
    assert len(flagged) == 2
    for pair in flagged:
        assert pair.vector is None
        assert pair.energy == pytest.approx(1.0, abs=1e-6)
        assert pair.cluster_basis.shape == (6, 2)
        assert pair.residual <= 1e-10
    basis = flagged[0].cluster_basis
    npt.assert_allclose(basis.T.conj() @ basis, np.eye(2), atol=1e-13)


def test_exact_double_eigenvalues_without_jordan_block_stay_unflagged():
    # rho = theta = 0 gives a diagonal restriction with repeated entries;
    # repetition alone must not trip the defectiveness flag
    params = ModelParams(rho=0.0, theta=0.0, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    assert not any(p.defective for p in algebraic_spectrum(sub, params))


def test_embedding_slots():
    params = ModelParams(rho=0.1, theta=0.2, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    vec = np.arange(1.0, 7.0)
    full = embed_subspace_vector(sub, vec)
    assert full[0] == 1.0 and full[1] == 2.0  # |0, up>, |1, up>
    assert full[32] == 3.0 and full[35] == 6.0  # |0, down>, |3, down>
    assert np.count_nonzero(full) == 6


def test_subspace_matrix_and_its_rows_are_read_only():
    params = ModelParams(rho=0.1, theta=0.2, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    assert not sub.matrix.flags.writeable and not sub.rows.flags.writeable
    assert set(sub.indices) <= set(sub.rows.tolist())


def test_cutoff_guards():
    params = ModelParams(rho=0.1, theta=0.2, n_qes=12, phi=-1)
    with pytest.raises(ValidationError):
        build_subspace(params, TruncatedFockSpace(14, 8))
    small = ModelParams(rho=0.1, theta=0.2, n_qes=3, phi=-1)
    sub = build_subspace(small, SPACE)
    with pytest.raises(ValidationError):
        certify_in_full_space(1.0, np.ones(6), sub, small, TruncatedFockSpace(7, 0))


def test_certification_refuses_other_params():
    params = ModelParams(rho=0.1, theta=0.2, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    other = ModelParams(rho=0.3, theta=0.2, n_qes=3, phi=-1)
    with pytest.raises(ValidationError, match="params"):
        algebraic_spectrum(sub, other)
    with pytest.raises(ValidationError, match="params"):
        certify_in_full_space(1.0, np.ones(6), sub, other)


def test_restriction_requires_qes_parameters():
    with pytest.raises(ValidationError):
        restriction_matrix(ModelParams(rho=0.5, phi=-1))


ONE_BUILD_CASES = [
    ModelParams(rho=0.4, theta=0.9, n_qes=big_n + 2, phi=phi)
    for big_n in range(7)
    for phi in (1, -1)
] + [ModelParams(rho=0.35355339059327373, theta=0.0, n_qes=3, phi=-1)]


@pytest.mark.parametrize(
    "params", ONE_BUILD_CASES, ids=lambda p: f"N{p.big_n}-phi{p.phi:+d}-theta{p.theta}"
)
def test_algebraic_spectrum_builds_the_full_matrix_once(monkeypatch, params):
    sub = build_subspace(params, SPACE)
    calls = []

    def counted(*args):
        calls.append(args)
        return build_ht(*args)

    monkeypatch.setattr(qjc.models, "build_ht", counted)
    pairs = algebraic_spectrum(sub, params)
    assert len(calls) == 0
    assert len(pairs) == sub.dim
    if params.theta == 0.0:
        # rho = 1 / (2 sqrt 2), theta = 0 sits on a coalescence
        assert any(pair.defective for pair in pairs)
