"""Finite invariant subspaces of the dressed mixed-exchange model.

For n = n_qes = N + 2 the model from `build_ht` maps the span of

    {|0..N, up>}  +  {|0..N+2, down>}        (dimension 2N + 4 = 2n)

into itself exactly: the dressed one-photon term carries a factor
(n_hat - n) that vanishes on precisely the transition that would escape.
`models.invariant_subspace` builds that subspace and certifies the
invariance on the full truncated matrix; this module diagonalizes the
restriction assembled directly from the ladder formulas (never by projecting
the floating-point full matrix, so no truncation noise enters the algebraic
spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from ._linalg import connected_components, eig_checked, residual_on_rows
from .errors import NumericalError, ValidationError
from .fock import TruncatedFockSpace
# invariance_defect is re-exported with the rest of the subspace API
from .models import InvariantSubspace, ModelParams, invariance_defect, invariant_subspace

DEGENERACY_TOL = 1e-8


def build_subspace(params: ModelParams, space: TruncatedFockSpace) -> InvariantSubspace:
    """Construct span{|0..N, up>, |0..N+2, down>} and certify its closure
    (`models.invariant_subspace`).  Uncached, so a finished caller frees its
    matrix."""
    return invariant_subspace(params, space)


def restriction_matrix(params: ModelParams, theta=None) -> np.ndarray:
    """The 2n x 2n restriction, assembled from the exact ladder formulas.

    Ordering: upper |0..N, up> then lower |0..N+2, down>.  Entries:

        <j, up  | H | j, up>      = hw j + eps/2
        <m, down| H | m, down>    = hw m - eps/2
        <m-2, up| H | m, down>    = rho sqrt(m (m-1))
        <m-1, up| H | m, down>    = c (m - n) sqrt(m)
        <j+2, dn| H | j, up>      = phi rho sqrt((j+1)(j+2))
        <j+1, dn| H | j, up>      = c_hat (j + 1 - n) sqrt(j+1)

    Given an array of `theta` values, the stack (..., 2n, 2n) of the
    restrictions at each, entry for entry the bits of the single matrices.
    """
    big_n = params.big_n
    n = params.n_qes
    hw, eps = params.hbar_omega, params.epsilon
    c, c_hat = params.qes_couplings(theta)
    n_up = big_n + 1
    n_down = big_n + 3
    mat = np.zeros((2 * n, 2 * n) + np.shape(theta))  # a theta stack on trailing axes
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
    return mat if theta is None else np.ascontiguousarray(np.moveaxis(mat, (0, 1), (-2, -1)))


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
    """Lift subspace coordinates into the full spin-major basis, of `space`
    (built there) if given, else of the subspace's own.

    `vec` holds one coordinate vector, or one per column.
    """
    if space is not None and space != sub.space:
        sub = invariant_subspace(sub.params, space)
    full = np.zeros((sub.space.dim,) + vec.shape[1:], dtype=vec.dtype)
    full[list(sub.indices)] = vec
    return full


def _check_certification(
    sub: InvariantSubspace, params: ModelParams, space: TruncatedFockSpace
) -> None:
    """Refuse params other than the subspace's, and a cutoff that cannot hold its image."""
    if params != sub.params:
        raise ValidationError("certification params differ from the subspace's")
    if space.cutoff < 2 * (sub.big_n + 3):
        raise ValidationError(
            f"certification cutoff {space.cutoff} below twice the subspace "
            f"extent {sub.big_n + 3}"
        )


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
    On another `space` the subspace is built there.  A plain pair is
    computed on the rows of H the subspace reaches, which gives the dense
    residual bit for bit (`_linalg.residual_on_rows`); a cluster basis
    takes the dense product.
    """
    space = space or sub.space
    _check_certification(sub, params, space)
    if space != sub.space:
        sub = invariant_subspace(params, space)
    full = embed_subspace_vector(sub, vector)
    if np.ndim(energy) == 0:
        residual = residual_on_rows(sub.matrix, full, energy, sub.indices, sub.rows)
        return float(np.linalg.norm(residual) / np.linalg.norm(full))
    return float(np.linalg.norm(sub.matrix @ full - full @ energy))


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
    _check_certification(sub, params, sub.space)  # refuse bad input before diagonalizing
    mat = restriction_matrix(params)
    w, v = eig_checked(mat)
    tol = DEGENERACY_TOL * max(1.0, float(np.linalg.norm(mat)))
    clusters: dict[int, tuple[np.ndarray, float]] = {}
    # clusters: chains of eigenvalues within tol, each in ascending index order;
    # np.hypot rounds each |wi - wj| as scalar abs does, np.abs on the array may not
    gaps = w[:, np.newaxis] - w
    for cluster in map(sorted, connected_components(np.hypot(gaps.real, gaps.imag) < tol)):
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


def path_order(n: int) -> list[int]:
    """`restriction_matrix` indices for n = n_qes in path order.

    The isolated lower |0> (level -eps/2) comes first, then the path lower
    |1>, upper |0>, lower |2>, upper |1>, ..., upper |n-2>, lower |n>: upper
    |j> couples only to lower |j+1> and |j+2>, so the restriction reordered
    this way is tridiagonal, with a zero coupling after the first entry.
    """
    n_up = n - 1
    order = [n_up]
    for j in range(n_up):
        order += [n_up + j + 1, j]
    return order + [n_up + n]


def _exact_jacobi_form(params: ModelParams):
    """Diagonal of the restriction along `path_order` and, for each entry,
    the product of its two couplings to the previous one (0 for the first),
    as exact rationals: the square roots square away, leaving
    phi rho^2 m (m-1) on the two-photon edges into lower |m> and
    c c_hat m (m-n)^2 on the one-photon ones."""
    n, phi = params.big_n + 2, params.phi
    hw, eps, rho, c, c_hat = params.exact_qes_params()
    diag, prods = [-eps / 2], [Fraction(0)]
    for m in range(1, n):  # lower |m>, then upper |m-1>
        diag += [hw * m - eps / 2, hw * (m - 1) + eps / 2]
        prods += [phi * rho**2 * m * (m - 1), c * c_hat * m * (m - n) ** 2]
    return diag + [hw * n - eps / 2], prods + [phi * rho**2 * n * (n - 1)]


def count_below(params: ModelParams, x) -> int:
    """Exact number of algebraic levels below x, with multiplicity.

    Needs every coupling product of `_exact_jacobi_form` >= 0 (phi = +1 or
    rho = 0, and c c_hat >= 0).  Then the tridiagonal restriction splits at
    its zero products into blocks similar, by positive diagonals, to real
    symmetric ones, and by Sylvester's law of inertia the count is the
    number of negative pivots of the LDL^T recurrence
    d_i = (a_i - x) - p_(i-1) / d_(i-1) (Wilkinson 1965, ch. 5), all in
    rationals (x is read exactly).  An exact zero pivot is taken as +0
    (the Sturm rule): the next pivot is -inf and the one after a - x.
    """
    diag, prods = _exact_jacobi_form(params)
    if min(prods) < 0:
        raise ValidationError(
            "count_below needs nonnegative coupling products: phi = +1 or rho = 0, "
            "and c c_hat >= 0"
        )
    x = Fraction(x)
    count, pivot = 0, None  # None: before the first pivot, or after an infinite one
    for a, p in zip(diag, prods):
        if pivot == 0 and p:
            count, pivot = count + 1, None
            continue
        pivot = a - x if pivot is None or not p else a - x - p / pivot
        count += pivot < 0
    return count


def algebraic_eigenvalues(params: ModelParams) -> np.ndarray:
    """Just the 2n restriction eigenvalues, sorted by (Re, Im)."""
    w, _ = eig_checked(restriction_matrix(params))
    return w[np.lexsort((w.imag, w.real))]
