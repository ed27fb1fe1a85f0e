"""The block-diagonal eigenvalue path against the dense one, its choice of
solver, and residuals on reached rows against the dense product."""

import itertools
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from test_golden import pinned_env

import qjc._linalg
from qjc._linalg import (
    PATH_MIN,
    PRODUCT_ROWS,
    ROW_BLOCK,
    connected_components as _components,
    eig_checked,
    eigvals_checked,
    reached_rows,
    residual_on_rows,
    spectrum_mismatch,
    stream_eigvals,
)
from qjc.errors import NumericalError, ValidationError
from qjc.fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from qjc.models import (
    ModelParams,
    build_extended,
    build_h12,
    build_ht,
    build_jcm,
    build_pseudo_jcm,
    invariant_subspace,
)
from qjc.qes import algebraic_spectrum, build_subspace, certify_in_full_space, embed_subspace_vector
from qjc.recurrence import critical_roots, reconstruct_eigenvector
from qjc.symmetry import classify_eigenvalues


def _matrices(d: int):
    """Every builder over both phi, k 1-4 and rho in {0, 0.3, 1.1}.

    At eps = hw = 1 none of these rho sits on a doublet's exceptional point.
    ht keeps theta small: at phi = -1, D = 64 and theta = 0.7 the block
    outside the invariant subspace has eigenvalue condition numbers near
    1e12, and the dense and block eigenvalues there differ by 1e-2 while
    both pass the residual gate.  At phi = +1 (c = c_hat) the same ht matrix is
    hermitian, its blocks go to the symmetric solver, and theta = 0.7 is kept.
    """
    space = TruncatedFockSpace(d, 8)
    for rho in (0.0, 0.3, 1.1):
        for phi in (1, -1):
            for k in (1, 2, 3, 4):
                yield build_extended(ModelParams(rho=rho, phi=phi, k=k), space).matrix
            yield build_h12(ModelParams(rho=rho, phi=phi, theta=0.4), space).matrix
            yield build_ht(ModelParams(rho=rho, phi=phi, theta=0.1, n_qes=4), space).matrix
        yield build_ht(ModelParams(rho=rho, phi=1, theta=0.7, n_qes=4), space).matrix
        yield build_jcm(ModelParams(rho=rho), space).matrix
        yield build_pseudo_jcm(ModelParams(rho=rho), space).matrix


@pytest.mark.parametrize("d", [16, 64])
def test_block_eigenvalues_match_the_dense_ones(d):
    for matrix in _matrices(d):
        block = eigvals_checked(matrix)
        assert block.dtype == complex
        assert spectrum_mismatch(block, eig_checked(matrix)[0]) <= 1e-9


def _assert_scipy_partition(matrix):
    count, labels = connected_components(csr_matrix(matrix != 0), directed=True, connection="weak")
    components = _components(matrix)
    assert len(components) == count
    assert sorted(i for c in components for i in c) == list(range(len(matrix)))
    assert all(len(set(labels[c])) == 1 for c in components)


@pytest.mark.parametrize("d", [16, 64])
def test_components_match_scipy_weak_components(d):
    for matrix in _matrices(d):
        _assert_scipy_partition(matrix)


def test_random_patterns_match_scipy_weak_components():
    # directed patterns too: a coupling pair with one side zero leaves an edge one way
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        _assert_scipy_partition((rng.random((n, n)) < 0.15 * rng.random()) * 1.0)


def test_one_sided_coupling_still_gives_the_dense_spectrum():
    # rho1_hat = 0 and c_hat = 0 leave a band on one side only: the pattern is not
    # symmetric.  D = 16, since one-sided bands are far from normal and at D = 32
    # ht's eigenvalues already differ by 5e-4 between any two solvers.
    space = TruncatedFockSpace(16, 8)
    for phi, theta in itertools.product((1, -1), (0.2, 0.7)):
        params = ModelParams(rho=0.3, phi=phi, theta=theta, rho1_hat=0.0, c_hat=0.0, n_qes=4)
        for matrix in (build_h12(params, space).matrix, build_ht(params, space).matrix):
            assert not np.array_equal(matrix != 0, (matrix != 0).T)
            assert spectrum_mismatch(eigvals_checked(matrix), eig_checked(matrix)[0]) <= 1e-9


@pytest.mark.parametrize("big_n", [1, 2, 5])
@pytest.mark.parametrize("phi", [1, -1])
def test_qes_subspace_is_a_union_of_components(big_n, phi):
    # the pattern alone finds the invariant subspace the dressing closes
    space = TruncatedFockSpace(32, 8)
    for rho, theta in ((0.6, 1.3), (0.0, 0.9), (1.1, 0.0)):
        params = ModelParams(rho=rho, phi=phi, theta=theta, n_qes=big_n + 2)
        inside = set(build_subspace(params, space).indices)
        for component in _components(build_ht(params, space).matrix):
            assert inside.issuperset(component) or inside.isdisjoint(component)


@pytest.mark.parametrize("phi, solver", [(-1, "eig"), (1, "eigh")])
def test_a_wrong_block_eigenpair_fails_the_gate(monkeypatch, phi, solver):
    # extended at phi = +1 is exactly symmetric and goes to eigh; at phi = -1 to eig
    matrix = build_extended(ModelParams(rho=0.3, phi=phi, k=2), TruncatedFockSpace(16, 8)).matrix
    real_solver = getattr(np.linalg, solver)

    def shifted(blocks):
        w, v = real_solver(blocks)
        return w + 1e-6, v

    monkeypatch.setattr(np.linalg, solver, shifted)
    with pytest.raises(NumericalError, match="eigensolver residual .* exceeds"):
        eigvals_checked(matrix)


def _symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


def _one_ulp_off(matrix):
    moved = matrix.copy()
    moved[0, 1] = np.nextafter(moved[0, 1], np.inf)
    return moved


def _hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


@pytest.mark.parametrize(
    "matrix, solver",
    [
        (_symmetric(12, 5), "eigh"),
        (_hermitian(12, 5), "eigh"),
        (_one_ulp_off(_symmetric(12, 5)), "eig"),
        (_symmetric(12, 5) * (1 + 1j), "eig"),  # complex symmetric, not hermitian
    ],
)
def test_only_an_exactly_hermitian_stack_goes_to_eigh(monkeypatch, matrix, solver):
    calls = []
    for name in ("eig", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda blocks, real=real, name=name: calls.append(name) or real(blocks))
    values = eigvals_checked(matrix)
    assert calls == [solver]
    assert spectrum_mismatch(values, eig_checked(matrix)[0]) <= 1e-12


def _is_path(matrix, component):
    """Whether the component's pattern, edges taken both ways, is a path."""
    block = matrix[np.ix_(component, component)] != 0
    joined = (block | block.T) & ~np.eye(len(component), dtype=bool)
    degrees = joined.sum(axis=1)
    return degrees.max() <= 2 and degrees.sum() == 2 * (len(component) - 1)


@pytest.mark.parametrize("phi", [1, -1])
def test_every_builder_gives_a_direct_sum_of_paths(phi):
    space = TruncatedFockSpace(64, 8)
    matrices = [build_extended(ModelParams(rho=0.7, phi=phi, k=k), space).matrix for k in (1, 2, 3, 4)]
    matrices += [build_jcm(ModelParams(rho=0.7), space).matrix, build_pseudo_jcm(ModelParams(rho=0.7), space).matrix]
    matrices.append(build_h12(ModelParams(rho=0.7, phi=phi, theta=1.2), space).matrix)
    for matrix in matrices:
        # real: a complex path would leave the tridiagonal route for the stacked one
        assert matrix.dtype == np.float64
        assert all(_is_path(matrix, component) for component in _components(matrix))
    # h12: one path of 2D - 2 states, and two states alone
    assert sorted(map(len, _components(matrices[-1]))) == [1, 1, 126]
    for big_n in (0, 2, 5):
        params = ModelParams(rho=0.7, phi=phi, theta=1.2, n_qes=big_n + 2)
        matrix = build_ht(params, space).matrix
        assert matrix.dtype == np.float64
        components = sorted(_components(matrix), key=len)
        assert all(_is_path(matrix, component) for component in components)
        # |0, down>, |D - 1, up>, the QES path and the tail
        assert sorted(c[0] for c in components[:2]) == [basis_index(space, 63, SPIN_UP), basis_index(space, 0, SPIN_DOWN)]
        assert [len(c) for c in components[2:]] == sorted([2 * big_n + 3, 128 - 2 * big_n - 5])
        # the QES subspace is |0, down> and the QES path: a direct summand
        qes = next(c for c in components[2:] if len(c) == 2 * big_n + 3)
        inside = set(build_subspace(params, space).indices)
        assert inside == {basis_index(space, 0, SPIN_DOWN), *qes}


def _h12_path(d=64, phi=1, rho=0.7, theta=1.2):
    return build_h12(ModelParams(rho=rho, phi=phi, theta=theta), TruncatedFockSpace(d, 8)).matrix


def _ht_tail(d=64):
    # phi = +1 and c = c_hat: real symmetric, the tail a path of 2D - 9 states
    return build_ht(ModelParams(rho=0.7, phi=1, theta=1.2, n_qes=4), TruncatedFockSpace(d, 8)).matrix


def test_a_wrong_path_eigenpair_fails_the_gate(monkeypatch):
    real_solver = qjc._linalg.eigh_tridiagonal

    def shifted(d, e, **options):
        w, v = real_solver(d, e, **options)
        return w + 1e-6, v

    monkeypatch.setattr(qjc._linalg, "eigh_tridiagonal", shifted)
    with pytest.raises(NumericalError, match="eigensolver residual .* exceeds"):
        eigvals_checked(_h12_path())


def _path_matrix(s, seed, hermitian=True, complex_entries=False, one_ulp_off=False, closed=False):
    """A random path of s states, its states in random order; closed, a cycle."""
    rng = np.random.default_rng(seed)
    below = rng.normal(size=s - 1) + (1j * rng.normal(size=s - 1) if complex_entries else 0)
    above = below.conj() if hermitian else rng.normal(size=s - 1)
    if one_ulp_off:  # conj() of a real array is the array itself
        above = above.copy()
        above[s // 2] = np.nextafter(above[s // 2], np.inf)
    path = np.diag(rng.normal(size=s)) + np.diag(below, -1) + np.diag(above, 1)
    if closed:  # one more edge, from the last state back to the first
        path[0, -1] = path[-1, 0] = rng.normal()
    order = rng.permutation(s)
    return path[np.ix_(order, order)]


@pytest.mark.parametrize(
    "matrix, solvers",
    [
        (_path_matrix(PATH_MIN, 1), ["eigh_tridiagonal"]),
        # hermitian but complex: no builder makes one, so the stacked route
        (_path_matrix(PATH_MIN + 9, 2, complex_entries=True), ["eigh"]),
        (_h12_path(), ["eigh_tridiagonal", "eigh"]),  # the two states alone are a stack of 1 x 1
        (_path_matrix(PATH_MIN, 3, hermitian=False), ["eig"]),
        (_path_matrix(PATH_MIN, 4, one_ulp_off=True), ["eig"]),
        (_path_matrix(PATH_MIN - 1, 5), ["eigh"]),
        (_path_matrix(PATH_MIN, 6, closed=True), ["eigh"]),  # as many edges as states: not a path
        # hermitian at phi = +1 only: the stacked route, beside the singletons' stack
        (np.array([_h12_path(64, phi=1), _h12_path(64, phi=-1)]), ["eigh", "eig"]),
        (_symmetric(12, 5), ["eigh"]),  # dense: not a path
        (np.random.default_rng(3).normal(size=(12, 12)), ["eig"]),
    ],
    ids=[
        "at-the-constant", "complex", "h12", "not-hermitian", "one-ulp-off", "below", "cycle",
        "h12-both-phi", "dense-12", "general-12",
    ],
)
def test_only_a_long_hermitian_path_takes_the_tridiagonal_route(monkeypatch, matrix, solvers):
    calls = []
    for owner, name in ((np.linalg, "eig"), (np.linalg, "eigh"), (qjc._linalg, "eigh_tridiagonal")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    values = eigvals_checked(matrix)
    assert sorted(calls) == sorted(solvers)  # block order is no part of the contract
    assert spectrum_mismatch(values, eig_checked(matrix)[0]) <= 1e-12 * np.linalg.norm(matrix)


@pytest.mark.parametrize(
    "matrix",
    # weak coupling: the levels of the 766-state path cluster, 3e-4 apart at the closest
    [_h12_path(64), _h12_path(384), _h12_path(384, rho=0.1213, theta=0.0271), _ht_tail(64), _ht_tail(256)],
    ids=["h12-D64", "h12-D384", "h12-weak-D384", "ht-tail-D64", "ht-tail-D256"],
)
def test_path_eigenvalues_match_the_dense_ones(monkeypatch, matrix):
    real, sizes = qjc._linalg.eigh_tridiagonal, []
    monkeypatch.setattr(qjc._linalg, "eigh_tridiagonal", lambda d, e, **k: sizes.append(len(d)) or real(d, e, **k))
    values = eigvals_checked(matrix)
    assert sizes and max(sizes) >= matrix.shape[0] - 9
    assert spectrum_mismatch(values, eig_checked(matrix)[0]) <= 1e-12 * np.linalg.norm(matrix)


def test_the_path_route_makes_no_s_by_s_array_but_the_eigenvectors(monkeypatch):
    """Before the solve no s x s block is built; the solve adds its s x s
    eigenvectors and stevd's workspace, one s x s array more; the residuals
    then hold one chunk of PRODUCT_ROWS eigenvectors, its residual rows and
    one product of them.  A dense block, a third s x s array or a whole-path
    residual exceeds a bound."""
    matrix = _h12_path(384)
    s = matrix.shape[0] - 2
    real, stages = qjc._linalg.eigh_tridiagonal, []

    def solve_between_resets(d, e, **options):
        stages.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        solved = real(d, e, **options)
        stages.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return solved

    monkeypatch.setattr(qjc._linalg, "eigh_tridiagonal", solve_between_resets)
    tracemalloc.start()
    try:
        stream_eigvals([matrix])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (_, read), (solved, solve), square = stages[0], stages[1], 8 * s * s
    # reading the matrix: its n x n pattern as booleans, the entries and the paths
    assert read <= matrix.size + 2**20 < square
    # the eigenvectors and stevd's workspace: 1 + 4 s + s^2 doubles and 3 + 5 s (32-bit) integers
    assert solve - stages[0][0] <= square + 8 * (1 + 4 * s + s * s) + 4 * (3 + 5 * s) + 2**16
    # a chunk, its residual rows, one product and numpy's ufunc buffers (one per operand)
    assert peak <= solved + 8 * (3 * PRODUCT_ROWS * s + 3 * np.getbufsize()) + 2**16 < solved + square


def test_the_path_route_holds_less_than_the_stacked_route(monkeypatch):
    """On one path the tridiagonal route's peak, eigenvectors and stevd's
    workspace, stays below the stacked route's: the block, its eigenvectors,
    LAPACK's workspace and the products.  PATH_MIN above the path's size
    sends the same path to the stacked route."""
    matrix = _h12_path(384)
    real, calls, peaks = qjc._linalg.eigh_tridiagonal, [], []
    monkeypatch.setattr(qjc._linalg, "eigh_tridiagonal", lambda d, e, **k: calls.append(len(d)) or real(d, e, **k))
    for path_min in (PATH_MIN, matrix.shape[0]):
        monkeypatch.setattr(qjc._linalg, "PATH_MIN", path_min)
        tracemalloc.start()
        try:
            stream_eigvals([matrix])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert calls == [matrix.shape[0] - 2]  # the path route once, then the stacked one
    path, stacked = peaks
    assert path < stacked


@pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
def test_block_gate_refuses_a_matrix_outside_the_float_range(entry):
    with pytest.raises(NumericalError, match="eigensolver residual gate.*float range"):
        eigvals_checked(np.diag([entry, 1.0]))


def _extended_stack(rhos, phi=-1, d=16):
    space = TruncatedFockSpace(d, 8)
    return np.array([build_extended(ModelParams(rho=rho, phi=phi, k=2), space).matrix for rho in rhos])


def _h12_stack(rhos, d=40):  # phi = +1: each matrix a hermitian path of 78 states and two singletons
    space = TruncatedFockSpace(d, 8)
    return np.array([build_h12(ModelParams(rho=rho, phi=1, theta=1.2), space).matrix for rho in rhos])


@pytest.mark.parametrize("stacked", [_extended_stack, _h12_stack], ids=["extended", "h12-path"])
def test_a_stack_is_solved_as_each_matrix_alone(stacked):
    stack = stacked((0.3, 0.7, 1.1))
    w, v = eig_checked(stack)
    for g, matrix in enumerate(stack):
        one_w, one_v = eig_checked(matrix)
        assert (w[g].tobytes(), v[g].tobytes()) == (one_w.tobytes(), one_v.astype(v.dtype).tobytes())
        # one pattern: the same blocks, so the same block eigenvalues
        assert eigvals_checked(stack)[g].tobytes() == eigvals_checked(matrix).tobytes()
    # rho = 0 splits its blocks further; the union's blocks give its spectrum too
    with_zero = stacked((0.0, 0.7))
    assert spectrum_mismatch(eigvals_checked(with_zero)[0], eigvals_checked(with_zero[0])) <= 1e-12
    assert eigvals_checked(with_zero[np.newaxis]).shape == (1,) + with_zero.shape[:-1]


def _column_residuals(matrix, w, v):
    """Each pair's residual as `qjc spectrum` once printed it, column by column."""
    cast = matrix.astype(v.dtype)
    return np.array([np.linalg.norm(cast @ v[:, i] - w[i] * v[:, i]) for i in range(len(w))])


def _residual_cases():
    rng = np.random.default_rng(21)
    yield "1x1", np.array([[0.75]])
    yield "2x2-complex", np.array([[1.0, 2.0], [-2.0, 1.0]])
    yield "2x2-complex-entries", np.array([[1.0, 2.0 + 1j], [0.5j, -1.0]])
    yield "6x6-random", rng.normal(size=(6, 6))
    for d, n in ((64, 128), (256, 512)):
        space = TruncatedFockSpace(d, 8)
        yield f"{n}-hermitian-h2", build_extended(ModelParams(rho=0.7, phi=1, k=2), space).matrix
        yield f"{n}-complex-pseudo-jcm", build_pseudo_jcm(ModelParams(rho=1.3), space).matrix
    yield "128-h12", build_h12(ModelParams(rho=0.4, phi=-1, theta=0.9), TruncatedFockSpace(64, 8)).matrix
    # above PRODUCT_ROWS and not a multiple of it: the last row block is short
    for phi, spectrum in ((1, "real"), (-1, "complex")):
        yield f"300-{spectrum}-h2", _extended_stack((0.7,), phi=phi, d=150)[0]
    # one row past two blocks: that row is not a block of its own
    yield f"{2 * PRODUCT_ROWS + 1}-random", rng.normal(size=(2 * PRODUCT_ROWS + 1,) * 2)


# sizes on both sides of every chunk and row-block edge up to two chunks and a block
_EDGE_SIZES = sorted({1, 2, 3} | {
    edge + shift for edge in (ROW_BLOCK, PRODUCT_ROWS, 2 * PRODUCT_ROWS) for shift in (-1, 0, 1, 2, 3)
})


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 3),
    n=st.sampled_from(_EDGE_SIZES) | st.integers(1, 2 * PRODUCT_ROWS + 3),
    kind=st.sampled_from(["symmetric", "real", "complex"]),  # real v, then complex v twice
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_residuals_are_the_column_norms_at_every_chunk_edge(count, n, kind, seed):
    parts = np.random.default_rng(seed).normal(size=(2, count, n, n))
    stack = {
        "symmetric": parts[0] + parts[0].swapaxes(-1, -2),
        "real": parts[0],
        "complex": parts[0] + 1j * parts[1],
    }[kind]
    w, v, residuals = eig_checked(stack, return_residuals=True)
    assert residuals.shape == w.shape == (count, n)
    for g, matrix in enumerate(stack):
        assert residuals[g].tobytes() == _column_residuals(matrix, w[g], v[g]).tobytes()


@pytest.mark.parametrize("name, matrix", list(_residual_cases()))
def test_residuals_are_the_column_by_column_norms_bit_for_bit(name, matrix):
    w, v, residuals = eig_checked(matrix, return_residuals=True)
    assert residuals.shape == w.shape
    assert residuals.tobytes() == _column_residuals(matrix, w, v).tobytes()
    assert eig_checked(matrix)[0].tobytes() == w.tobytes()


def test_a_stack_has_each_matrix_residuals_bit_for_bit():
    stack = np.concatenate([_extended_stack((0.3, 0.7, 1.1)), _extended_stack((0.3, 1.4), phi=1)])
    w, v, residuals = eig_checked(stack, return_residuals=True)
    assert np.iscomplexobj(v) and np.any(w.imag != 0) and np.all(w[3:].imag == 0)
    for g, matrix in enumerate(stack):
        assert residuals[g].tobytes() == _column_residuals(matrix, w[g], v[g]).tobytes()
        # alone, a real spectrum has real vectors, a product of other bits
        one_w, one_v, one_residuals = eig_checked(matrix, return_residuals=True)
        if np.iscomplexobj(one_v):
            assert residuals[g].tobytes() == one_residuals.tobytes()


def test_a_stack_above_the_block_size_has_each_matrix_residuals_bit_for_bit():
    stack = np.concatenate([_extended_stack((0.7, 1.1), d=150), _extended_stack((0.7,), phi=1, d=150)])
    assert stack.shape[-1] > PRODUCT_ROWS and stack.shape[-1] % PRODUCT_ROWS
    w, v, residuals = eig_checked(stack, return_residuals=True)
    assert np.any(w[0].imag != 0) and np.all(w[2].imag == 0)
    for g, matrix in enumerate(stack):
        assert residuals[g].tobytes() == _column_residuals(matrix, w[g], v[g]).tobytes()


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_a_stack_above_the_block_size_names_the_float_range(entry):
    stack = np.concatenate([_extended_stack((0.7,), d=150), np.diag(np.full(300, entry))[np.newaxis]])
    with pytest.raises(NumericalError, match="eigensolver residual gate.*float range"):
        eig_checked(stack)
    w, v, residuals = eig_checked(stack[:1], return_residuals=True)
    assert residuals[0].tobytes() == _column_residuals(stack[0], w[0], v[0]).tobytes()


@pytest.mark.parametrize("builder, params", [
    (build_extended, ModelParams(rho=0.7, phi=1, k=2)),  # real spectrum: real v
    (build_pseudo_jcm, ModelParams(rho=1.3)),  # complex v: each block is cast
])
def test_the_residual_stage_holds_one_matrix_beyond_w_and_v(monkeypatch, builder, params):
    """After scipy returns w and v, the residual stage allocates one
    PRODUCT_ROWS x n array (a chunk's residual rows), a row block of H cast
    to v's dtype, that block's products with the chunk and numpy's ufunc
    buffers (one per operand): the n x n residual rows, a copy of H or any
    other whole-matrix temporary exceeds the bound."""
    matrix = builder(params, TruncatedFockSpace(256, 8)).matrix
    n = matrix.shape[0]
    real_eig = scipy.linalg.eig

    def eig_then_trace(a):
        solved = real_eig(a)
        tracemalloc.start()
        return solved

    monkeypatch.setattr(scipy.linalg, "eig", eig_then_trace)
    try:
        eig_checked(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    item = np.dtype(complex).itemsize
    # 64 KiB for the Python objects the stage makes
    assert peak <= item * (PRODUCT_ROWS * n + 2 * PRODUCT_ROWS * n + 3 * np.getbufsize()) + 2**16


@pytest.mark.parametrize("solver", ["eig", "eigh"])  # complex v, real v
def test_the_block_residual_stage_holds_blocks_v_and_products(monkeypatch, solver):
    """Once a block stack is solved, its residuals make one new array, the
    products (H v)^T: w v^T goes into v's own buffer and comes off the
    products in place.  A temporary w v^T or products - w v^T exceeds the bound."""
    # one block of 160, of v's dtype: matmul would cast a real block to complex v's
    dense = np.random.default_rng(3).normal(size=(2, 160, 160))
    matrix = dense[0] + dense[0].T if solver == "eigh" else dense[0] + 1j * dense[1]
    real, held = getattr(np.linalg, solver), []

    def solve_then_reset(a):
        solved = real(a)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return solved

    monkeypatch.setattr(np.linalg, solver, solve_then_reset)
    tracemalloc.start()
    try:
        stream_eigvals([matrix])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    products = np.result_type(*real(matrix)).itemsize * matrix.size
    # 64 KiB for the Python objects and the per-row norms the stage makes
    assert peak <= held[0] + products + 2**16


def test_an_empty_stack_gives_empty_results_of_the_documented_shapes():
    empty = np.zeros((0, 4, 4))
    w, v, residuals = eig_checked(empty, return_residuals=True)
    assert (w.shape, v.shape, residuals.shape) == ((0, 4), (0, 4, 4), (0, 4))
    assert eigvals_checked(empty).shape == (0, 4)
    assert eigvals_checked(np.zeros((2, 0, 0))).shape == (2, 0)


_SMALL = np.array([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "matrix, scales",
    [
        (_SMALL * 1e-160, [1e-160]),
        (_SMALL * 1e140, [1e140]),
        (np.array([_SMALL, _SMALL * 1e-160]), [1.0, 1e-160]),
        (np.diag([5e-324, 1e-323]), [1.0]),  # subnormal: the prescale's cap, 2^1000, is exact
    ],
    ids=["1e-160", "1e140", "stack", "subnormal"],
)
def test_a_matrix_far_from_unit_scale_keeps_its_eigenvalues(matrix, scales):
    # xGEEV in some LAPACK builds returns the eigenvalues of its own rescaled
    # copy of a matrix whose entries lie outside about [6.7e-139, 1.5e138]
    w, v = eig_checked(matrix)
    for values, vectors, scale, scaled in zip(w.reshape(-1, 2), v.reshape(-1, 2, 2), scales, matrix.reshape(-1, 2, 2)):
        expected = np.sort(np.linalg.eigvals(scaled / scale).real)
        np.testing.assert_allclose(np.sort(values.real) / scale, expected, rtol=1e-14)
        assert not values.imag.any()
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, rtol=1e-14)


@pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
def test_a_stack_gates_each_matrix_against_its_own_norm(monkeypatch, entry):
    small = _extended_stack((0.3,))[0]
    outside = np.diag(np.full(32, entry))
    stack = np.array([1e8 * small, small, outside])
    real_eig = scipy.linalg.eig
    # shifted by 1e-6: below 1e-12 of the first norm, above 1e-12 of the second
    monkeypatch.setattr(scipy.linalg, "eig", lambda a: (real_eig(a)[0] + 1e-6, real_eig(a)[1]))
    eig_checked(stack[:1])  # the shift passes against the first norm
    scale = f"1.0e-12 * {np.linalg.norm(small):.3e}"
    with pytest.raises(NumericalError, match=re.escape(scale)):
        eig_checked(stack)
    with pytest.raises(NumericalError, match="float range"):  # never solved: scipy refuses inf and nan
        eig_checked(stack[[0, 2]])
    monkeypatch.setattr(np.linalg, "eig", lambda a, real=np.linalg.eig: (real(a)[0] + 1e-6, real(a)[1]))
    with pytest.raises(NumericalError, match=re.escape(scale)):
        eigvals_checked(stack)
    with pytest.raises(NumericalError, match="float range"):
        eigvals_checked(stack[[0, 2]])


def test_spectra_of_unequal_length_never_match():
    assert spectrum_mismatch([1.0, 2.0], [1.0]) == float("inf")
    assert spectrum_mismatch([], [0.0]) == float("inf")


def _mismatch_by_loop(got, expected):
    """The reference for `spectrum_mismatch`: one abs per remaining value, one pop per step."""
    left = np.asarray(got, dtype=complex).ravel()
    remaining = [complex(v) for v in np.asarray(expected, dtype=complex).ravel()]
    if left.size != len(remaining):
        return float("inf")
    worst = 0.0
    for value in left:
        distances = [abs(value - other) for other in remaining]
        best = int(np.argmin(distances))
        worst = max(worst, distances[best])
        remaining.pop(best)
    return worst


def _spectrum_pair(seed):
    """Two spectra of one random length: conjugate pairs, repeated values
    (exact ties), shared values, and now and then an inf or a nan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 13))
    draws = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=(2, n, 2))  # coarse: distances tie
    got, expected = draws[..., 0] + 1j * draws[..., 1]
    got[::3] = got[::3].conj()  # conjugate pairs
    expected[: n // 2] = got[rng.permutation(n)[: n // 2]].conj()
    if seed % 3 == 0:
        expected = expected + rng.normal(size=n) * 1e-13  # near, not equal
    if seed % 5 == 0 and n:
        value = rng.choice([np.inf, -np.inf, np.nan])
        (got if seed % 2 else expected)[rng.integers(n)] = complex(value, value if seed % 4 else 0.0)
    return got, expected


@pytest.mark.parametrize("seed", range(200))
def test_spectrum_mismatch_is_the_loop_bit_for_bit(seed):
    got, expected = _spectrum_pair(seed)
    with np.errstate(invalid="ignore"):  # inf - inf in the reference's differences
        found, reference = spectrum_mismatch(got, expected), _mismatch_by_loop(got, expected)
    assert float(found).hex() == float(reference).hex(), (got, expected)


def test_one_component_is_a_stack_of_one():
    matrix = np.random.default_rng(3).normal(size=(12, 12))
    assert len(_components(matrix)) == 1
    assert spectrum_mismatch(eigvals_checked(matrix), eig_checked(matrix)[0]) <= 1e-12


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("theta", [0.1, 0.7, 1.3])
def test_block_and_dense_spectra_get_the_same_class(phi, theta):
    # at phi = -1, theta = 0.7 the two routes' ht eigenvalues differ by 1e-2 (see _matrices)
    matrices = [build_ht(ModelParams(rho=0.3, phi=phi, theta=theta, n_qes=4), TruncatedFockSpace(d, 8)).matrix
                for d in (64, 128)]
    for matrix in (*matrices, build_h12(ModelParams(rho=0.3, phi=phi, theta=theta), TruncatedFockSpace(64, 8)).matrix):
        assert classify_eigenvalues(eigvals_checked(matrix)) == classify_eigenvalues(eig_checked(matrix)[0])


# ---------------------------------------------------------------------------
# residuals on reached rows


def _random_case(rng, dim, banded, complex_matrix, complex_vector):
    """A matrix, a vector on a random support, an energy, and the support.

    A dense matrix keeps the support's columns nonzero on a random set of
    rows only, so the reached rows are scattered and each is a long sum; a
    banded one reaches the support's neighbours.
    """
    matrix = rng.standard_normal((dim, dim))
    if complex_matrix:
        matrix = matrix + 1j * rng.standard_normal((dim, dim))
    support = np.sort(rng.choice(dim, size=int(rng.integers(1, 60)), replace=False))
    if banded:
        width = int(rng.integers(1, 5))
        offsets = np.subtract.outer(np.arange(dim), np.arange(dim))
        matrix[np.abs(offsets) > width] = 0.0
    else:
        unreached = np.setdiff1d(np.arange(dim), rng.choice(dim, size=int(rng.integers(1, 40))))
        matrix[np.ix_(unreached, support)] = 0.0
    vector = np.zeros(dim, dtype=complex if complex_vector else float)
    vector[support] = rng.standard_normal(support.size)
    if complex_vector:
        vector[support] += 1j * rng.standard_normal(support.size)
    energy = complex(*rng.standard_normal(2)) if complex_vector else float(rng.standard_normal())
    return matrix, vector, energy, support


def _ht_cases():
    """(reached-rows result, dense result) pairs of the dressed model:
    certification residuals on the subspace's own cutoff and on twice it,
    and reconstruction-gate residual vectors."""
    for big_n, phi, cutoff in ((2, -1, 65), (3, 1, 64), (5, -1, 130), (6, 1, 97)):
        params = ModelParams(rho=0.9, theta=1.7, n_qes=big_n + 2, phi=phi)
        space = TruncatedFockSpace(cutoff, 8)
        double = TruncatedFockSpace(2 * cutoff, 8)  # criterion 4's second cutoff
        sub = build_subspace(params, space)
        for pair in algebraic_spectrum(sub, params):
            if pair.defective:
                continue
            for where in (space, double):
                full = embed_subspace_vector(sub, pair.vector, where)
                dense = build_ht(params, where).matrix @ full - pair.energy * full
                got = certify_in_full_space(pair.energy, pair.vector, sub, params, where)
                yield got, float(np.linalg.norm(dense) / np.linalg.norm(full))
        for root in critical_roots(params):
            try:
                psi = reconstruct_eigenvector(params, root, space)
            except NumericalError:
                continue
            gate = invariant_subspace(params, space)
            dense = build_ht(params, space).matrix @ psi - root * psi
            got = residual_on_rows(gate.slab, psi, root, gate.indices, gate.rows)
            yield got.tolist(), dense.tolist()


def bit_mismatches() -> list[str]:
    """Every case where a reached-rows residual differs from the dense
    `matrix @ x - E x` in any bit (run with BLAS on one thread)."""
    rng, stack_rng = np.random.default_rng(2026), np.random.default_rng(2027)
    found = []
    for dim, banded, complex_matrix, complex_vector, trial in itertools.product(
        (128, 130, 258, 260, 514), (False, True), (False, True), (False, True), range(6)
    ):
        matrix, vector, energy, support = _random_case(rng, dim, banded, complex_matrix, complex_vector)
        rows = reached_rows(matrix[:, support], support)
        got = residual_on_rows(matrix[rows], vector, energy, support, rows)
        dense = matrix @ vector - energy * vector
        case = f"dim {dim} banded {banded} complex {complex_matrix}/{complex_vector} #{trial}"
        if not (np.array_equal(got, dense) and np.linalg.norm(got) == np.linalg.norm(dense)):
            found.append(case)
        # a stack of vectors on the same support, each row the bits of its vector alone
        stack = vector * stack_rng.standard_normal((3, 1))
        energies = energy + stack_rng.standard_normal(3)
        rows_of_stack = residual_on_rows(matrix[rows], stack, energies, support, rows)
        for one, x, e in zip(rows_of_stack, stack, energies.tolist()):
            if not np.array_equal(one, matrix @ x - e * x):
                found.append(f"stack: {case}")
    for index, (got, dense) in enumerate(_ht_cases()):
        if got != dense:
            found.append(f"ht case {index}")
    return found


def test_reached_rows_residual_is_the_dense_one_bit_for_bit():
    # dense products split their rows differently on more BLAS threads, so
    # the comparison runs in a fresh interpreter with BLAS on one thread
    done = subprocess.run(
        [sys.executable, "-c", "import json, test_linalg; print(json.dumps(test_linalg.bit_mismatches()))"],
        env=pinned_env(),
        cwd=Path(__file__).parent,
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize(
    "dim, tail", [(128, [124, 125, 126, 127]), (130, [124, 125, 126, 127, 128, 129])]
)
def test_reached_rows_are_whole_aligned_blocks(dim, tail):
    matrix = np.zeros((dim, dim))
    support = [5, dim - 1]
    matrix[17, 5] = matrix[dim - 3, dim - 1] = 1.0
    rows = reached_rows(matrix[:, support], support)
    assert ROW_BLOCK == 4
    assert rows.tolist() == [4, 5, 6, 7, 16, 17, 18, 19, *tail]
    matrix[40, 5] = np.nan  # a nan reaches its row as a nonzero does
    assert 40 in reached_rows(matrix[:, support], support)


def test_a_vector_off_its_support_is_refused():
    matrix = build_ht(ModelParams(rho=0.9, theta=1.7, n_qes=4, phi=-1), TruncatedFockSpace(64, 8)).matrix
    support = [0, 1, 2, 64, 65, 66]
    rows = reached_rows(matrix[:, support], support)
    vector = np.zeros(128)
    vector[support] = 1.0
    vector[3] = 1e-300  # off the support, though inside the widened rows
    with pytest.raises(NumericalError, match=r"outside the support .* rows \[0, 1, 2, 3, "):
        residual_on_rows(matrix[rows], vector, 1.0, support, rows)
    vector[3], vector[100] = 0.0, 1.0
    with pytest.raises(NumericalError, match="outside the support"):
        residual_on_rows(matrix[rows], vector, 1.0, support, rows)


@pytest.mark.parametrize(
    "matrices, shapes",
    [
        ([np.eye(3), np.eye(4)], ("(4, 4)", "(3, 3)")),  # once read off the last: rows [0, 0, 1, 0]
        ([np.eye(2), np.eye(2), np.ones((2, 3))], ("(2, 3)", "(2, 2)")),
        ([np.ones((2, 3))], ("(2, 3)",)),
        ([np.ones(4)], ("(4,)",)),
    ],
)
def test_stream_eigvals_refuses_matrices_that_are_not_one_square_shape(matrices, shapes):
    with pytest.raises(ValidationError, match="square matrices of one shape") as refused:
        stream_eigvals(iter(matrices))
    assert all(shape in str(refused.value) for shape in shapes)


def test_stream_eigvals_of_no_matrices_is_empty():
    values = stream_eigvals(iter(()))
    assert values.shape == (0, 0) and values.dtype == complex


def test_stream_eigvals_keeps_a_complex_matrix_read_before_a_real_one():
    # the blocks once took the last matrix's dtype: the first one's imaginary parts were dropped
    first, last = np.array([[1.0, 2j], [0.5j, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    values = stream_eigvals([first, last])
    assert spectrum_mismatch(values[0], np.linalg.eigvals(first)) <= 1e-15
    assert spectrum_mismatch(values[1], [-1.0, 1.0]) <= 1e-15


@pytest.mark.parametrize("count", [1, 3])
def test_stream_eigvals_of_empty_matrices_is_empty(count):
    values = stream_eigvals([np.zeros((0, 0))] * count)
    assert values.shape == (count, 0) and values.dtype == complex
