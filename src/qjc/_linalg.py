"""Residual-gated eigensolvers.

The heavy lifting is LAPACK via scipy and numpy; this module only adds the
quality gate every caller relies on: each returned eigenpair must satisfy
||H v - w v|| <= RESIDUAL_TOL * max(1, ||H||), otherwise a NumericalError is
raised so the caller can enlarge the cutoff instead of silently consuming noise.

Both solvers take a matrix or a stack (..., n, n), solved in one call and
gated matrix by matrix against its own ||H||_F.  `eig_checked` solves dense
matrices with `scipy.linalg.eig`, the one solver of printed digits, which
gives each matrix of a stack its bits alone.  `eigvals_checked` returns
eigenvalues only, and solves the diagonal blocks that the connected
components of the pattern `H != 0` (its edges taken both ways) give: a
stack of blocks that is exactly hermitian with the symmetric eigensolver,
any other with the general one.  On a hermitian block the gate also bounds
each eigenvalue's forward error: a unit vector v with residual r puts an
exact eigenvalue of H within r of w (Parlett, The Symmetric Eigenvalue
Problem, 1980, Thm 4.5.1); on a far-from-normal block only the backward
error.  Block and dense eigenvalues agree up to rounding, not bit for bit.

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
from collections.abc import Iterable

import numpy as np
import scipy.linalg

from .errors import NumericalError

RESIDUAL_TOL = 1e-12
ROW_BLOCK = 4


def _frobenius_norm(matrix: np.ndarray) -> np.ndarray:
    """||H||_F of each matrix of a stack (..., n, n), with the bits of np.linalg.norm(H)."""
    flat = matrix.reshape(*matrix.shape[:-2], -1)
    with np.errstate(over="ignore"):  # an overflow is reported by the gate, as an error
        square = np.vecdot(flat.real, flat.real)
        if np.iscomplexobj(flat):
            square = square + np.vecdot(flat.imag, flat.imag)
        return np.sqrt(square)


def _gate_error(norm: float, worst: float) -> NumericalError:
    """The error of a failed gate, for a matrix's norm and worst residual."""
    if not math.isfinite(norm):  # the matrix was not solved
        worst = math.inf
    if not math.isfinite(worst):
        return NumericalError(
            "eigensolver residual gate cannot be checked outside the float range "
            f"(1.8e308): ||H||_F = {norm:.3e}, worst residual {worst:.3e}"
        )
    return NumericalError(
        f"eigensolver residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * {max(1.0, norm):.3e}"
    )


def _gates(norms: np.ndarray, worst: np.ndarray) -> list[NumericalError | None]:
    """Each matrix's gate error, None where it passes, decided in one array pass."""
    passed = np.isfinite(norms) & (worst <= RESIDUAL_TOL * np.maximum(1.0, norms))
    if np.count_nonzero(passed) == passed.size:
        return [None] * passed.size
    matrices = zip(*(np.ravel(a).tolist() for a in (norms, worst, passed)))
    return [None if ok else _gate_error(norm, value) for norm, value, ok in matrices]


def eig_gated(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[NumericalError | None]]:
    """`eig_checked`, with each matrix's gate error (or None) returned in C
    order, not raised.  A matrix whose ||H||_F is not finite is replaced by
    zeros, since scipy refuses a whole stack that holds an inf or nan."""
    norms = _frobenius_norm(matrix)
    if np.count_nonzero(np.isfinite(norms)) < np.size(norms):
        matrix = np.where(np.isfinite(norms)[..., np.newaxis, np.newaxis], matrix, 0.0)
    w, v = scipy.linalg.eig(matrix)
    residuals = np.linalg.norm(matrix @ v - v * w[..., np.newaxis, :], axis=-2)
    return w, v, _gates(norms, residuals.max(axis=-1, initial=0.0))


def eig_checked(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors with a backward-error gate.

    Returns (w, v) with v[..., :, i] normalized.  Raises NumericalError when
    any residual exceeds RESIDUAL_TOL * max(1, ||H||_F), or when ||H||_F or
    a residual is not finite, since the gate cannot be applied then; the
    first failing matrix of a stack names the error.
    """
    w, v, errors = eig_gated(matrix)
    for error in filter(None, errors):
        raise error
    return w, v


def connected_components(matrix: np.ndarray) -> list[list[int]]:
    """Connected components of the graph with an edge i - j where H[i, j] or H[j, i] != 0.

    No nonzero entry joins two components, so they split H block-diagonally.
    """
    n = matrix.shape[0]
    rows, cols = np.divmod(np.flatnonzero(matrix), n)  # np.nonzero's order, faster
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
    """Eigenvalues only, solved block by block, shape (..., n): `stream_eigvals`."""
    stack = matrix.reshape(-1, *matrix.shape[-2:])
    return stream_eigvals(stack).reshape(matrix.shape[:-1])


def stream_eigvals(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Eigenvalues of G same-size matrices, read one at a time, as rows (G, n)
    in block order.  The union of their patterns splits them all into the
    same blocks; each matrix leaves only its norm and nonzero entries, put
    into one stack (G, blocks, s, s) per block size s for one `eigh` (stack
    exactly hermitian) or `eig` call.  The first failing gate raises."""
    norms, entries = [], []
    for g, m in enumerate(matrices):
        norms.append(_frobenius_norm(m))
        if math.isfinite(norms[-1]):  # an inf or nan reaches no solver: zeros stand in
            flat = m.ravel()
            hits = np.flatnonzero(flat != 0)  # np.nonzero(m) is several times slower
            entries.append((g * flat.size + hits, flat[hits]))
    at, entry = (np.concatenate(part) for part in zip(*entries or [[np.zeros(0, int)] * 2]))
    g, rows, cols = np.unravel_index(at, (len(norms),) + m.shape)
    pattern = np.zeros(m.shape, dtype=bool)
    pattern[rows, cols] = True
    by_size: dict[int, list[list[int]]] = {}
    for component in connected_components(pattern):
        by_size.setdefault(len(component), []).append(component)
    values, worst = [], []
    for members in by_size.values():
        idx = np.array(members)
        block, slot = np.full(m.shape[0], -1), np.zeros(m.shape[0], dtype=int)
        block[idx], slot[idx] = np.arange(len(idx))[:, np.newaxis], np.arange(idx.shape[1])
        kept = block[rows] >= 0  # an entry's row and column share a block
        blocks = np.zeros((len(norms),) + idx.shape + idx.shape[1:], dtype=m.dtype)
        blocks[g[kept], block[rows[kept]], slot[rows[kept]], slot[cols[kept]]] = entry[kept]
        hermitian = np.array_equal(blocks, blocks.swapaxes(-1, -2).conj())
        w, v = (np.linalg.eigh if hermitian else np.linalg.eig)(blocks)
        residuals = np.linalg.norm(blocks @ v - v * w[..., np.newaxis, :], axis=-2)
        worst.append(residuals.reshape(len(norms), -1).max(axis=1))
        values.append(w.reshape(len(norms), -1))
    # np.maximum, unlike max, keeps a nan
    for error in filter(None, _gates(np.array(norms), np.maximum.reduce(worst))):
        raise error
    return np.concatenate(values, axis=1).astype(complex, copy=False)


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
