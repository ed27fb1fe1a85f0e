"""Residual-gated eigensolvers.

The heavy lifting is LAPACK via scipy and numpy; this module only adds the
quality gate every caller relies on: each returned eigenpair must satisfy
||H v - w v|| <= RESIDUAL_TOL * max(1, ||H||), otherwise a NumericalError is
raised so the caller can enlarge the cutoff instead of silently consuming noise.

`eig_checked` solves the dense matrix.  `eigvals_checked` returns eigenvalues
only, and solves the diagonal blocks that the connected components of the
pattern `H != 0` (its edges taken both ways) give.  A stack of blocks that
equals its conjugate transpose exactly goes to the symmetric eigensolver,
every other stack to the general one.  On a hermitian block the gate also
bounds each eigenvalue's forward error: a unit vector v with residual
||H v - w v|| = r puts an exact eigenvalue of H within r of w (Parlett,
The Symmetric Eigenvalue Problem, 1980, Thm 4.5.1).  On a far-from-normal
block the gate bounds the backward error only.  The block eigenvalues agree
with the dense ones up to rounding, not bit for bit, so a caller that
prints eigenvalue digits uses `eig_checked`.

`residual_on_rows` computes the eigenpair residual H x - E x of a vector x
that lives on a few basis states, on the rows that x can reach and nowhere
else.  Row rule: the rows are x's support and every row where H has a
nonzero in a support column (`reached_rows`), widened to whole blocks of
ROW_BLOCK consecutive rows that start at a multiple of ROW_BLOCK.  Then every
kept row is the same full-length BLAS dot product, computed in the same
kernel row block, as in the dense product H @ x, and every row left out is
zero there.  So the full-length residual, and any norm of it, equals the
dense one bit for bit -- with BLAS on one thread.  On more threads the
dense product itself splits its rows differently, and the two differ in
their last bits, as the golden outputs between thread counts do.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import NumericalError

RESIDUAL_TOL = 1e-12
ROW_BLOCK = 4


def _frobenius_norm(matrix: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflow is reported by _gate, as an error
        return float(np.linalg.norm(matrix))


def _gate(norm: float, worst: float) -> None:
    """Raise unless the worst residual is finite and below the scaled tolerance."""
    if not math.isfinite(worst):
        raise NumericalError(
            "eigensolver residual gate cannot be checked outside the float range "
            f"(1.8e308): ||H||_F = {norm:.3e}, worst residual {worst:.3e}"
        )
    scale = max(1.0, norm)
    if worst > RESIDUAL_TOL * scale:
        raise NumericalError(
            f"eigensolver residual {worst:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * {scale:.3e}"
        )


def eig_checked(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors with a backward-error gate.

    Returns (w, v) with v[:, i] normalized.  Raises NumericalError when any
    residual exceeds RESIDUAL_TOL * max(1, ||H||_F), or when ||H||_F or a
    residual is not finite, since the gate cannot be applied then.
    """
    norm = _frobenius_norm(matrix)
    worst = math.inf
    if math.isfinite(norm):
        w, v = scipy.linalg.eig(matrix)
        residuals = np.linalg.norm(matrix @ v - v * w[np.newaxis, :], axis=0)
        worst = float(np.max(residuals)) if residuals.size else 0.0
    _gate(norm, worst)
    return w, v


def _components(matrix: np.ndarray) -> list[list[int]]:
    """Connected components of the graph with an edge i - j where H[i, j] or H[j, i] != 0.

    No nonzero entry joins two components, so they split H block-diagonally.
    """
    n = matrix.shape[0]
    rows, cols = np.nonzero(matrix)
    heads = np.concatenate([rows, cols])
    order = np.argsort(heads, kind="stable")
    starts = np.searchsorted(heads[order], np.arange(n + 1)).tolist()
    targets = np.concatenate([cols, rows])[order].tolist()
    seen = [False] * n
    components: list[list[int]] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for v in component:  # the list grows while it is read: breadth first
            for w in targets[starts[v]:starts[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        components.append(component)
    return components


def eigvals_checked(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues only, solved block by block, with `eig_checked`'s gate.

    The components of the pattern `matrix != 0` put the matrix in
    block-diagonal form, so its spectrum is the union of the blocks'
    spectra.  Blocks of one size are solved in one stacked call (a matrix
    with one component is a stack of one): `np.linalg.eigh` when the stack
    equals its conjugate transpose exactly, with no tolerance, else
    `np.linalg.eig`.  Every block eigenpair must pass the gate scaled by
    the whole matrix's ||H||_F; on a hermitian block that also bounds each
    eigenvalue's distance to the exact spectrum.  The order of the result
    is not the dense one.
    """
    norm = _frobenius_norm(matrix)
    if not math.isfinite(norm):
        _gate(norm, math.inf)  # raises: no residual can be judged against it
    by_size: dict[int, list[list[int]]] = {}
    for component in _components(matrix):
        by_size.setdefault(len(component), []).append(component)
    values, worst = [], []
    for members in by_size.values():
        idx = np.array(members)
        blocks = matrix[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
        hermitian = np.array_equal(blocks, blocks.swapaxes(1, 2).conj())
        w, v = (np.linalg.eigh if hermitian else np.linalg.eig)(blocks)
        residuals = np.linalg.norm(blocks @ v - v * w[:, np.newaxis, :], axis=1)
        worst.append(np.max(residuals))
        values.append(w.ravel())
    _gate(norm, float(np.max(worst)))  # np.max, unlike max, keeps a nan
    return np.concatenate(values).astype(complex, copy=False)


def reached_rows(columns: np.ndarray, support) -> np.ndarray:
    """Rows of H @ x that can be nonzero when x lives on `support`.

    `columns` is H[:, support].  Returns the support and every row with a
    nonzero (or nan) entry in `columns`, widened to whole aligned blocks of
    ROW_BLOCK rows, sorted: the row set `residual_on_rows` computes.
    """
    hit = np.flatnonzero(np.any(columns != 0, axis=1))
    starts = np.unique(np.union1d(hit, support) // ROW_BLOCK) * ROW_BLOCK
    rows = (starts[:, np.newaxis] + np.arange(ROW_BLOCK)).ravel()
    return rows[rows < columns.shape[0]]


def residual_on_rows(
    matrix: np.ndarray, vector: np.ndarray, energy, support, rows: np.ndarray
) -> np.ndarray:
    """matrix @ vector - energy * vector, computed on `rows` only.

    `rows` is `reached_rows(matrix[:, support], support)`; every other
    entry of the full-length result is zero, as it is in the dense product.
    Raises NumericalError when `vector` has a nonzero outside `support`,
    since its column could reach a row outside `rows` and the residual
    would silently omit it.
    """
    support = np.asarray(support)
    if np.count_nonzero(vector[support]) != np.count_nonzero(vector):
        raise NumericalError(
            f"vector has a nonzero outside the support {support.tolist()} of "
            f"the residual rows {rows.tolist()}; a residual on those rows "
            "would omit what it reaches"
        )
    kept = matrix[rows] @ vector - energy * vector[rows]
    out = np.zeros(matrix.shape[0], dtype=kept.dtype)
    out[rows] = kept
    return out


def spectrum_mismatch(got, expected) -> float:
    """Largest |difference| under greedy nearest-value pairing.

    Sorting complex spectra by (Re, Im) is unstable: a conjugate pair sits
    on real parts equal only up to machine noise, so two routes can order
    +i|y| and -i|y| differently and a positional comparison reports an O(1)
    error that is not there.  Greedy pairing is immune to that as long as
    the cross-route error is far below the level spacing, which is exactly
    the regime every caller asserts.  Returns inf on a length mismatch.
    """
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
