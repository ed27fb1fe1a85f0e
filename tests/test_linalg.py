"""The block-diagonal eigenvalue path against the dense one, and its choice of solver."""

import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qjc._linalg import _components, eig_checked, eigvals_checked, spectrum_mismatch
from qjc.errors import NumericalError
from qjc.fock import TruncatedFockSpace
from qjc.models import (
    ModelParams,
    build_extended,
    build_h12,
    build_ht,
    build_jcm,
    build_pseudo_jcm,
)
from qjc.qes import _subspace_indices
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
        upper, lower = _subspace_indices(big_n, space)
        inside = set(upper + lower)
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


@pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
def test_block_gate_refuses_a_matrix_outside_the_float_range(entry):
    with pytest.raises(NumericalError, match="eigensolver residual gate.*float range"):
        eigvals_checked(np.diag([entry, 1.0]))


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
