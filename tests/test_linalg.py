"""The block-diagonal eigenvalue path against the dense one, its choice of
solver, and residuals on reached rows against the dense product."""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from test_golden import pinned_env

from qjc._linalg import (
    ROW_BLOCK,
    connected_components as _components,
    eig_checked,
    eig_gated,
    eigvals_checked,
    reached_rows,
    residual_on_rows,
    spectrum_mismatch,
)
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
from qjc.qes import algebraic_spectrum, build_subspace, certify_in_full_space, embed_subspace_vector
from qjc.recurrence import critical_roots, gate_residual, gate_subspace, reconstruct_eigenvector
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


@pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
def test_block_gate_refuses_a_matrix_outside_the_float_range(entry):
    with pytest.raises(NumericalError, match="eigensolver residual gate.*float range"):
        eigvals_checked(np.diag([entry, 1.0]))


def _extended_stack(rhos, phi=-1, d=16):
    space = TruncatedFockSpace(d, 8)
    return np.array([build_extended(ModelParams(rho=rho, phi=phi, k=2), space).matrix for rho in rhos])


def test_a_stack_is_solved_as_each_matrix_alone():
    stack = _extended_stack((0.3, 0.7, 1.1))
    w, v = eig_checked(stack)
    for g, matrix in enumerate(stack):
        one_w, one_v = eig_checked(matrix)
        assert (w[g].tobytes(), v[g].tobytes()) == (one_w.tobytes(), one_v.astype(v.dtype).tobytes())
        # one pattern: the same blocks, so the same block eigenvalues
        assert eigvals_checked(stack)[g].tobytes() == eigvals_checked(matrix).tobytes()
    # rho = 0 splits its blocks further; the union's blocks give its spectrum too
    with_zero = _extended_stack((0.0, 0.7))
    assert spectrum_mismatch(eigvals_checked(with_zero)[0], eigvals_checked(with_zero[0])) <= 1e-12
    assert eigvals_checked(with_zero.reshape(1, 2, 32, 32)).shape == (1, 2, 32)


@pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
def test_a_stack_gates_each_matrix_against_its_own_norm(monkeypatch, entry):
    small = _extended_stack((0.3,))[0]
    outside = np.diag(np.full(32, entry))
    stack = np.array([1e8 * small, small, outside])
    real_eig = scipy.linalg.eig
    # shifted by 1e-6: below 1e-12 of the first norm, above 1e-12 of the second
    monkeypatch.setattr(scipy.linalg, "eig", lambda a: (real_eig(a)[0] + 1e-6, real_eig(a)[1]))
    w, _, errors = eig_gated(stack)
    assert errors[0] is None
    scale = f"1.0e-12 * {np.linalg.norm(small):.3e}"
    assert scale in str(errors[1])
    assert "float range" in str(errors[2])  # never solved: scipy refuses inf and nan
    with pytest.raises(NumericalError, match=re.escape(scale)):
        eig_checked(stack)
    with pytest.raises(NumericalError, match="float range"):
        eig_checked(stack[[0, 2]])
    monkeypatch.setattr(np.linalg, "eig", lambda a, real=np.linalg.eig: (real(a)[0] + 1e-6, real(a)[1]))
    with pytest.raises(NumericalError, match=re.escape(scale)):
        eigvals_checked(stack)
    with pytest.raises(NumericalError, match="float range"):
        eigvals_checked(stack[[0, 2]])


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
            dense = gate_subspace(params, space).matrix @ psi - root * psi
            yield gate_residual(params, space, root, psi).tolist(), dense.tolist()


def bit_mismatches() -> list[str]:
    """Every case where a reached-rows residual differs from the dense
    `matrix @ x - E x` in any bit (run with BLAS on one thread)."""
    rng = np.random.default_rng(2026)
    found = []
    for dim, banded, complex_matrix, complex_vector, trial in itertools.product(
        (128, 130, 258, 260, 514), (False, True), (False, True), (False, True), range(6)
    ):
        matrix, vector, energy, support = _random_case(rng, dim, banded, complex_matrix, complex_vector)
        rows = reached_rows(matrix[:, support], support)
        got = residual_on_rows(matrix, vector, energy, support, rows)
        dense = matrix @ vector - energy * vector
        if not (np.array_equal(got, dense) and np.linalg.norm(got) == np.linalg.norm(dense)):
            found.append(f"dim {dim} banded {banded} complex {complex_matrix}/{complex_vector} #{trial}")
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
        residual_on_rows(matrix, vector, 1.0, support, rows)
    vector[3], vector[100] = 0.0, 1.0
    with pytest.raises(NumericalError, match="outside the support"):
        residual_on_rows(matrix, vector, 1.0, support, rows)
