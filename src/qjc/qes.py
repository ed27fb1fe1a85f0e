"""Finite invariant subspaces of the dressed mixed-exchange model.

For n = n_qes = N + 2 the model from `build_ht` maps the span of

    {|0..N, up>}  +  {|0..N+2, down>}        (dimension 2N + 4 = 2n)

into itself exactly: the dressed one-photon term carries a factor
(n_hat - n) that vanishes on precisely the transition that would escape.
This module builds that subspace, certifies the invariance on the full
truncated matrix, and diagonalizes the restriction assembled directly from
the ladder formulas (never by projecting the floating-point full matrix, so
no truncation noise enters the algebraic spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._linalg import eig_checked, reached_rows, residual_on_rows
from .errors import NumericalError, ValidationError
from .fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from .models import ModelParams, build_ht

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class InvariantSubspace:
    """Basis bookkeeping for one closed subspace.

    upper_indices / lower_indices are positions in the full spin-major
    basis; the subspace ordering is all upper states (photon ascending)
    followed by all lower states.  `matrix` is the full matrix of the
    generating model `params` on `space`, `defect` its certified leak
    max |<out| H |in>|, and `rows` the rows of `matrix` that the subspace
    reaches (`_linalg.reached_rows`), on which its eigenpairs are certified.
    """

    params: ModelParams
    space: TruncatedFockSpace
    upper_indices: tuple[int, ...]
    lower_indices: tuple[int, ...]
    defect: float
    matrix: np.ndarray = field(compare=False, repr=False)
    rows: np.ndarray = field(compare=False, repr=False)

    @property
    def big_n(self) -> int:
        return self.params.big_n

    @property
    def n(self) -> int:
        return self.big_n + 2

    @property
    def dim(self) -> int:
        return 2 * self.big_n + 4

    @property
    def indices(self) -> tuple[int, ...]:
        return self.upper_indices + self.lower_indices


def _scan(h_matrix: np.ndarray, indices: tuple[int, ...]) -> tuple[float, np.ndarray]:
    """The leak of span{indices} and the rows it reaches, from one read of H[:, indices]."""
    inside = list(indices)
    columns = h_matrix[:, inside]
    outside = np.ones(h_matrix.shape[0], dtype=bool)
    outside[inside] = False
    leak = columns[outside]
    defect = float(np.max(np.abs(leak))) if leak.size else 0.0
    return defect, reached_rows(columns, indices)


def invariance_defect(h_matrix: np.ndarray, indices: tuple[int, ...]) -> float:
    """Largest matrix element leaking out of span{indices}."""
    return _scan(h_matrix, indices)[0]


def _subspace_indices(big_n: int, space: TruncatedFockSpace):
    """Full-basis positions of |0..N, up> and of |0..N+2, down>."""
    upper = tuple(basis_index(space, j, SPIN_UP) for j in range(big_n + 1))
    lower = tuple(basis_index(space, m, SPIN_DOWN) for m in range(big_n + 3))
    return upper, lower


def build_subspace(params: ModelParams, space: TruncatedFockSpace) -> InvariantSubspace:
    """Construct span{|0..N, up>, |0..N+2, down>} and certify its closure.

    `build_ht` rejects a cutoff too small for N and the guard band.
    """
    h = build_ht(params, space).matrix
    upper, lower = _subspace_indices(params.big_n, space)
    defect, rows = _scan(h, upper + lower)
    for array in (h, rows):  # read-only, so `rows` stays the rows `h` reaches
        array.setflags(write=False)
    return InvariantSubspace(
        params=params,
        space=space,
        upper_indices=upper,
        lower_indices=lower,
        defect=defect,
        matrix=h,
        rows=rows,
    )


def restriction_matrix(params: ModelParams) -> np.ndarray:
    """The 2n x 2n restriction, assembled from the exact ladder formulas.

    Ordering: upper |0..N, up> then lower |0..N+2, down>.  Entries:

        <j, up  | H | j, up>      = hw j + eps/2
        <m, down| H | m, down>    = hw m - eps/2
        <m-2, up| H | m, down>    = rho sqrt(m (m-1))
        <m-1, up| H | m, down>    = c (m - n) sqrt(m)
        <j+2, dn| H | j, up>      = phi rho sqrt((j+1)(j+2))
        <j+1, dn| H | j, up>      = c_hat (j + 1 - n) sqrt(j+1)
    """
    big_n = params.big_n
    n = params.n_qes
    hw, eps = params.hbar_omega, params.epsilon
    c, c_hat = params.qes_couplings()
    n_up = big_n + 1
    n_down = big_n + 3
    mat = np.zeros((2 * n, 2 * n))
    for j in range(n_up):
        mat[j, j] = hw * j + 0.5 * eps
    for m in range(n_down):
        mat[n_up + m, n_up + m] = hw * m - 0.5 * eps
    for m in range(n_down):
        if m >= 2:
            mat[m - 2, n_up + m] = params.rho * math.sqrt(m * (m - 1))
        if m >= 1 and m - 1 < n_up:
            mat[m - 1, n_up + m] = c * (m - n) * math.sqrt(m)
    for j in range(n_up):
        mat[n_up + j + 2, j] = params.phi * params.rho * math.sqrt((j + 1) * (j + 2))
        mat[n_up + j + 1, j] = c_hat * (j + 1 - n) * math.sqrt(j + 1)
    return mat


@dataclass(frozen=True, eq=False)
class AlgebraicEigenpair:
    """One eigenvalue of the restriction with its certification data.

    `vector` is in subspace coordinates.  Inside a defective cluster the
    individual eigenvectors stop being meaningful, so `vector` is None and
    `cluster_basis` carries an orthonormal (Schur) basis of the cluster's
    invariant subspace instead, shared by every member of the cluster.
    `residual` is the full-space relative residual: ||H v - E v|| for a
    plain pair, ||H V - V (V* H V)|| for a cluster basis V.
    """

    energy: complex
    vector: np.ndarray | None
    residual: float
    defective: bool = False
    cluster_basis: np.ndarray | None = None


def _group_close_eigenvalues(w: np.ndarray, tol: float) -> list[list[int]]:
    """Union eigenvalue indices into clusters of pairwise chains within tol."""
    parent = list(range(len(w)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if abs(w[i] - w[j]) < tol:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(w)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _cluster_is_defective(v: np.ndarray, cluster: list[int]) -> bool:
    """Rank test: near-parallel eigenvectors mean a nontrivial Jordan block."""
    sing = np.linalg.svd(v[:, cluster], compute_uv=False)
    return bool(sing[-1] < 1e-6 * sing[0])


def _schur_cluster_basis(mat: np.ndarray, w: np.ndarray, cluster: list[int]) -> np.ndarray:
    """Orthonormal basis of the invariant subspace spanned by a cluster.

    Reorders a complex Schur form so the cluster's eigenvalues lead, then
    takes the corresponding Schur columns.
    """
    center = np.mean(w[cluster])
    radius = 2.0 * max(abs(w[i] - center) for i in cluster) + 10 * DEGENERACY_TOL
    _, z, sdim = scipy.linalg.schur(
        mat.astype(complex), output="complex", sort=lambda x: abs(x - center) <= radius
    )
    if sdim != len(cluster):
        raise NumericalError(
            f"Schur reordering selected {sdim} eigenvalues for a cluster of "
            f"{len(cluster)}"
        )
    basis = z[:, :sdim]
    if np.max(np.abs(basis.imag)) == 0.0:
        basis = basis.real
    return basis


def embed_subspace_vector(
    sub: InvariantSubspace, vec: np.ndarray, space: TruncatedFockSpace | None = None
) -> np.ndarray:
    """Lift subspace coordinates into the full spin-major basis.

    `vec` holds one coordinate vector, or one per column.
    """
    space = space or sub.space
    full = np.zeros((space.dim,) + vec.shape[1:], dtype=vec.dtype)
    full[list(_indices_in(sub, space))] = vec
    return full


def _indices_in(sub: InvariantSubspace, space: TruncatedFockSpace) -> tuple[int, ...]:
    """Full-basis positions of the subspace states on `space`."""
    if space == sub.space:
        return sub.indices
    upper, lower = _subspace_indices(sub.big_n, space)
    return upper + lower


def _certification_matrix(
    sub: InvariantSubspace, params: ModelParams, space: TruncatedFockSpace
) -> np.ndarray:
    """The full matrix that certifies `sub`, on a cutoff that holds its image;
    the subspace's own matrix when `space` is the one it was built on."""
    if params != sub.params:
        raise ValidationError("certification params differ from the subspace's")
    if space.cutoff < 2 * (sub.big_n + 3):
        raise ValidationError(
            f"certification cutoff {space.cutoff} below twice the subspace "
            f"extent {sub.big_n + 3}"
        )
    return sub.matrix if space == sub.space else build_ht(params, space).matrix


def certify_in_full_space(
    energy: complex | np.ndarray,
    vector: np.ndarray,
    sub: InvariantSubspace,
    params: ModelParams,
    space: TruncatedFockSpace | None = None,
) -> float:
    """Residual of the embedded eigenpair on the full matrix H.

    ||H v - E v|| / ||v|| for an eigenvalue E and its vector v, or
    ||H V - V E|| for a cluster basis V and its compressed matrix E = V* H V.
    A plain pair is computed on the rows of H the subspace reaches, which
    gives the dense residual bit for bit (`_linalg.residual_on_rows`); a
    cluster basis takes the dense product.
    """
    space = space or sub.space
    full = embed_subspace_vector(sub, vector, space)
    matrix = _certification_matrix(sub, params, space)
    if np.ndim(energy) == 0:
        indices = _indices_in(sub, space)
        rows = sub.rows if space == sub.space else _scan(matrix, indices)[1]
        residual = residual_on_rows(matrix, full, energy, indices, rows)
        return float(np.linalg.norm(residual) / np.linalg.norm(full))
    return float(np.linalg.norm(matrix @ full - full @ energy))


def algebraic_spectrum(
    sub: InvariantSubspace, params: ModelParams
) -> list[AlgebraicEigenpair]:
    """All 2n eigenpairs of the restriction, certified on the full space.

    Sorted by (Re, Im).  Eigenvalues closer than DEGENERACY_TOL relative to
    the matrix scale are grouped; if the group's eigenvectors are (nearly)
    linearly dependent the group is defective -- a Jordan block at an
    exceptional point -- and gets a shared Schur basis instead of per-value
    eigenvectors.  (Computed eigenvalues of an exact Jordan pair split by
    about sqrt(machine eps) times the matrix norm, hence the relative
    clustering scale.)  Every pair and cluster is certified by
    `certify_in_full_space` on the full matrix `build_subspace` built.
    """
    _certification_matrix(sub, params, sub.space)  # refuse bad input before diagonalizing
    mat = restriction_matrix(params)
    w, v = eig_checked(mat)
    tol = DEGENERACY_TOL * max(1.0, float(np.linalg.norm(mat)))
    clusters: dict[int, tuple[np.ndarray, float]] = {}
    for cluster in _group_close_eigenvalues(w, tol):
        if len(cluster) > 1 and _cluster_is_defective(v, cluster):
            basis = _schur_cluster_basis(mat, w, cluster)
            small = basis.conj().T @ mat @ basis
            res = certify_in_full_space(small, basis, sub, params)
            for i in cluster:
                clusters[i] = (basis, res)
    pairs = []
    for i in np.lexsort((w.imag, w.real)):
        energy = complex(w[i])
        if abs(energy.imag) == 0.0:
            energy = complex(energy.real)
        if i in clusters:
            basis, res = clusters[i]
            pairs.append(
                AlgebraicEigenpair(
                    energy=energy,
                    vector=None,
                    residual=res,
                    defective=True,
                    cluster_basis=basis,
                )
            )
            continue
        vec = v[:, i]
        if np.max(np.abs(vec.imag)) == 0.0:
            vec = vec.real
        residual = certify_in_full_space(energy, vec, sub, params)
        pairs.append(
            AlgebraicEigenpair(energy=energy, vector=vec, residual=residual)
        )
    return pairs


def algebraic_eigenvalues(params: ModelParams) -> np.ndarray:
    """Just the 2n restriction eigenvalues, sorted by (Re, Im)."""
    w, _ = eig_checked(restriction_matrix(params))
    return w[np.lexsort((w.imag, w.real))]
