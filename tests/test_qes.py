"""Invariant-subspace construction and algebraic spectra."""

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CASES, GOLDEN, pinned_env

import qjc.cli
import qjc.models
import qjc.qes
from qjc.closedform import doublet_block, doublet_eigenvalues
from qjc.errors import NumericalError, ValidationError
from qjc.fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from qjc.models import ModelParams, build_h12, build_ht
from qjc.qes import (
    algebraic_eigenvalues,
    algebraic_spectrum,
    build_subspace,
    certify_in_full_space,
    count_below,
    embed_subspace_vector,
    invariance_defect,
    path_order,
    restriction_matrix,
)

SPACE = TruncatedFockSpace(32, 8)


def test_subspace_dimensions_and_indices():
    params = ModelParams(rho=0.3, theta=0.7, n_qes=4, phi=-1)
    sub = build_subspace(params, SPACE)
    assert sub.big_n == 2
    assert sub.dim == 8
    # upper |0..2, up> sit at 0..2, lower |0..4, down> at D..D+4
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


def test_schur_reordering_that_selects_a_wrong_count_is_refused(monkeypatch):
    # the coalescence above, with a Schur form that claims one extra
    # eigenvalue inside the cluster's disk
    params = ModelParams(rho=1 / (2 * math.sqrt(2)), theta=0.0, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    schur = scipy.linalg.schur

    def miscounting(*args, **kwargs):
        t, z, sdim = schur(*args, **kwargs)
        return t, z, sdim + 1

    monkeypatch.setattr(scipy.linalg, "schur", miscounting)
    with pytest.raises(NumericalError, match="selected 3 eigenvalues for a cluster of 2"):
        algebraic_spectrum(sub, params)


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


@pytest.mark.parametrize("phi", [-1, 1])
def test_embedding_into_another_space_builds_the_subspace_there(phi):
    params = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=phi)
    sub = build_subspace(params, SPACE)
    pairs = algebraic_spectrum(sub, params)
    space = TruncatedFockSpace(64, 8)
    indices = list(build_subspace(params, space).indices)
    assert indices != list(sub.indices)  # the lower states move with D
    h = build_ht(params, space).matrix
    for pair in pairs:
        assert not pair.defective
        full = embed_subspace_vector(sub, pair.vector, space)
        assert full.shape == (space.dim,)
        assert np.array_equal(full[indices], pair.vector)
        assert np.count_nonzero(full) == np.count_nonzero(pair.vector)
        dense = np.linalg.norm(h @ full - pair.energy * full) / np.linalg.norm(full)
        assert certify_in_full_space(pair.energy, pair.vector, sub, params, space) == dense


def _certificates(pair, sub, params, h) -> tuple[float, float, str]:
    """A pair's own single-pair certificate, its dense ||H v - E v|| / ||v||
    (||H V - V E|| for a cluster basis V) on the full matrix h, and its kind."""
    if pair.defective:
        basis = pair.cluster_basis
        small = basis.conj().T @ restriction_matrix(params) @ basis
        full = embed_subspace_vector(sub, basis)
        single = certify_in_full_space(small, basis, sub, params)
        return single, float(np.linalg.norm(h @ full - full @ small)), "defective"
    full = embed_subspace_vector(sub, pair.vector)
    single = certify_in_full_space(pair.energy, pair.vector, sub, params)
    dense = float(np.linalg.norm(h @ full - pair.energy * full) / np.linalg.norm(full))
    return single, dense, "complex" if np.iscomplexobj(pair.vector) else "real"


def stacked_certificate_mismatches() -> dict:
    """Every pair of `algebraic_spectrum` whose residual, certified in one
    stacked pass per vector dtype, differs in any bit from its own
    single-pair certificate or from the dense ||H v - E v|| / ||v||
    (||H V - V E|| for a cluster basis), with the pairs seen of each kind.
    Run it with BLAS on one thread: the dense product splits its rows
    differently on more."""
    found, seen = [], {"real": 0, "complex": 0, "defective": 0}
    cases = []
    for big_n, phi, cutoff in itertools.product(range(15), (1, -1), (65, 97, 130, 512)):
        rho, theta = (0.35, 0.9, 1.6)[big_n % 3], (0.4, 1.7, 2.6)[big_n % 3]
        cases.append((ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi), cutoff))
    # the qes-defective golden's coalescence: a Jordan pair beside plain ones
    cases += [(ModelParams(rho=1 / (2 * math.sqrt(2)), theta=0.0, n_qes=3, phi=-1), d) for d in (64, 130)]
    # exceptional points: at theta = 0 (c = c_hat = 0) and phi = -1 the doublet of
    # upper |j> and lower |j+2> coalesces where (2 hw - eps)^2 = 4 rho^2 (j+1)(j+2)
    for big_n, (hw, eps), cutoff in itertools.product(
        range(8), ((1.0, 1.0), (0.37, -2.25), (1.3, 0.4)), (64, 97, 130, 512)
    ):
        for j in range(big_n + 1):
            rho = abs(2 * hw - eps) / (2 * math.sqrt((j + 1) * (j + 2)))
            params = ModelParams(hbar_omega=hw, epsilon=eps, rho=rho, theta=0.0, n_qes=big_n + 2, phi=-1)
            cases.append((params, cutoff))
    for params, cutoff in cases:
        sub = build_subspace(params, TruncatedFockSpace(cutoff, 8))
        h = build_ht(params, sub.space).matrix
        for index, pair in enumerate(algebraic_spectrum(sub, params)):
            single, dense, kind = _certificates(pair, sub, params, h)
            seen[kind] += 1
            if not pair.residual == single == dense:
                values = f"{pair.residual!r}, {single!r}, {dense!r}"
                found.append(f"{params} D {cutoff} pair {index} ({kind}): {values}")
    return {"mismatches": found, "seen": seen}


def test_stacked_certificates_keep_their_bits():
    script = "import json, test_qes; print(json.dumps(test_qes.stacked_certificate_mismatches()))"
    # in a fresh interpreter with BLAS on one thread, as the dense product needs
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=pinned_env(),
        cwd=Path(__file__).parent,
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    result = json.loads(done.stdout)
    assert result["mismatches"] == []
    assert min(result["seen"].values()) > 0, result["seen"]
    # a Jordan pair in each of the 2 + 412 defective clusters
    assert result["seen"]["defective"] == 2 * 414, result["seen"]


def test_plain_pairs_are_certified_in_one_call_per_vector_dtype(monkeypatch):
    params = ModelParams(rho=1.6, theta=0.4, n_qes=14, phi=-1)
    sub = build_subspace(params, TruncatedFockSpace(64, 8))
    calls = []
    certify = qjc.qes.certify_in_full_space

    def counted(energy, vector, *args):
        calls.append((np.shape(energy), vector.dtype))
        return certify(energy, vector, *args)

    monkeypatch.setattr(qjc.qes, "certify_in_full_space", counted)
    pairs = algebraic_spectrum(sub, params)
    real = sum(not np.iscomplexobj(pair.vector) for pair in pairs)
    assert 0 < real < len(pairs) == 28
    assert calls == [((real,), np.float64), ((28 - real,), np.complex128)]


def test_subspace_matrix_and_its_rows_are_read_only():
    params = ModelParams(rho=0.1, theta=0.2, n_qes=3, phi=-1)
    sub = build_subspace(params, SPACE)
    assert not sub.slab.flags.writeable and not sub.rows.flags.writeable
    assert set(sub.indices) <= set(sub.rows.tolist())


# golden name -> its parameters and number of pairs, all on cutoff 2048
AT_SCALE = {
    "qes-ht-d2048": (ModelParams(rho=0.9, theta=1.2, n_qes=11), 22),
    "qes-defective-d2048": (ModelParams(rho=0.35355339059327373, theta=0.0, n_qes=3, phi=-1), 6),
}


def qes_at_scale(name: str) -> dict:
    """In-process `qes` of the golden `name` at D 2048: its exit code, stdout
    and tracemalloc peak, and every pair whose residual is not the dense
    certificate of an explicit `build_ht` matrix (which takes 134 MB; run
    with BLAS on one thread)."""
    qjc.models.invariant_subspace.cache_clear()
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = qjc.cli.main(list(CASES[name]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params, space = AT_SCALE[name][0], TruncatedFockSpace(2048, 8)
    sub = build_subspace(params, space)
    matrix = build_ht(params, space).matrix
    pairs, mismatches = algebraic_spectrum(sub, params), []
    for index, pair in enumerate(pairs):
        dense = _certificates(pair, sub, params, matrix)[1]
        if pair.residual != dense:
            mismatches.append(f"pair {index}: {pair.residual!r} against {dense!r}")
    return {"code": code, "stdout": out.getvalue(), "peak": peak, "pairs": len(pairs), "mismatches": mismatches}


def test_the_qes_route_holds_o_of_d_memory():
    # plain pairs, then a Jordan pair's cluster beside them
    for name, (_, pairs) in AT_SCALE.items():
        # the golden's bytes and the dense residual bits need BLAS on one thread:
        # run in a fresh interpreter, as the golden cases are
        script = f"import json, test_qes; print(json.dumps(test_qes.qes_at_scale({name!r})))"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=pinned_env(),
            cwd=Path(__file__).parent,
            capture_output=True,
            check=False,
        )
        assert done.returncode == 0, done.stderr.decode()
        result = json.loads(done.stdout)
        assert result["code"] == 0
        assert result["stdout"] == (GOLDEN / f"{name}.out").read_text()
        # the dense 4096 x 4096 matrix alone is 134 MB
        assert result["peak"] < 16 * 2**20, name
        assert result["pairs"] == pairs and result["mismatches"] == [], name


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


# ---------------------------------------------------------------------------
# path order and the exact level count


@pytest.mark.parametrize("big_n", [0, 3, 10])
@pytest.mark.parametrize("phi", [1, -1])
def test_path_order_makes_the_restriction_tridiagonal(big_n, phi):
    params = ModelParams(rho=0.7, theta=1.2, n_qes=big_n + 2, phi=phi)
    order = path_order(big_n + 2)
    assert sorted(order) == list(range(2 * big_n + 4))
    mat = restriction_matrix(params)[np.ix_(order, order)]
    rows, cols = np.nonzero(mat)
    assert np.all(np.abs(rows - cols) <= 1)
    # the isolated lower |0> at -eps/2, then a path linked both ways at every step
    assert mat[0, 1] == mat[1, 0] == 0 and mat[0, 0] == -0.5 * params.epsilon
    link = np.arange(1, len(order) - 1)
    assert np.all(mat[link, link + 1] != 0) and np.all(mat[link + 1, link] != 0)


def _real_family(seed):
    """phi = +1 parameters with every coupling product >= 0: derived c = c_hat,
    unequal c, c_hat of one sign, and the rho = 0 and c_hat = 0 splits."""
    rng = np.random.default_rng(seed)
    for big_n in (0, 1, 2, 5, 9, 16, 25, 40):
        rho = float(rng.uniform(0.05, 2.0))
        yield ModelParams(rho=rho, theta=float(rng.uniform(0.1, 3.0)), n_qes=big_n + 2)
        c = float(rng.uniform(0.05, 1.0))
        yield ModelParams(rho=rho, c=-c, c_hat=-c * float(rng.uniform(0.3, 3.0)), n_qes=big_n + 2)
    yield ModelParams(rho=0.0, theta=1.1, n_qes=6, phi=-1)
    yield ModelParams(rho=0.6, c=0.4, c_hat=0.0, n_qes=6)


@pytest.mark.parametrize("params", list(_real_family(12)), ids=lambda p: f"N{p.big_n}")
def test_count_below_matches_float_levels(params):
    levels = algebraic_eigenvalues(params)
    assert np.max(np.abs(levels.imag)) <= 1e-9 * max(1.0, np.max(np.abs(levels)))
    levels = np.sort(levels.real)
    assert count_below(params, levels[0] - 1.0) == 0
    assert count_below(params, levels[-1] + 1.0) == len(levels)
    gap = 1e-6 * max(1.0, np.max(np.abs(levels)))
    checked = 0
    for below, (lo, hi) in enumerate(zip(levels, levels[1:]), start=1):
        if hi - lo > gap:
            assert count_below(params, (lo + hi) / 2) == below
            checked += 1
    assert checked >= len(levels) // 2


def test_count_below_at_a_leading_block_level():
    # x on the first path diagonal (lower |1>, hw - eps/2) zeroes the first
    # path pivot; the Sturm rule must still count the levels below x
    params = ModelParams(rho=0.9, theta=1.3, n_qes=5)
    x = Fraction(params.hbar_omega) - Fraction(params.epsilon) / 2
    levels = algebraic_eigenvalues(params).real
    assert np.min(np.abs(levels - float(x))) > 1e-6
    assert count_below(params, x) == int(np.sum(levels < float(x)))
    # and on the isolated level itself, which is not below itself
    assert count_below(params, -params.epsilon / 2) == int(np.sum(levels < -params.epsilon / 2 - 1e-12))


@pytest.mark.parametrize(
    "params",
    [ModelParams(rho=0.7, theta=1.2, n_qes=5, phi=-1), ModelParams(rho=0.7, c=0.3, c_hat=-0.2, n_qes=5)],
)
def test_count_below_refuses_negative_coupling_products(params):
    with pytest.raises(ValidationError, match="coupling products"):
        count_below(params, 0.0)
