"""Residual-gated eigensolvers.

The heavy lifting is LAPACK via scipy and numpy; this module only adds the
quality gate every caller relies on: each returned eigenpair must satisfy
||H v - w v|| <= RESIDUAL_TOL * max(1, ||H||), otherwise a NumericalError is
raised so the caller can enlarge the cutoff instead of silently consuming noise.
In a stack the first failing matrix, in C order, raises.

Both solvers take a matrix or a stack (..., n, n), solved in one call and
gated matrix by matrix against its own ||H||_F.  `eig_checked` solves dense
matrices with `scipy.linalg.eig`, the one solver of printed digits, which
gives each matrix of a stack its bits alone.  It computes one residual per
pair, which the gate and `qjc spectrum` both read, from the products H v_i
taken by chunks of PRODUCT_ROWS eigenvectors, so that one chunk of residual
rows is held at a time (a solve peaks in xGEEV itself), and within a chunk
row block by row block: PRODUCT_ROWS rows of H, cast on their own, meet
every v_i of the chunk in one stacked call while they stay in cache.  Each
block starts at a multiple of ROW_BLOCK and none is a single row (numpy would
take a dot, not a gemv), so by the row rule below every H v_i has the bits
of H @ v[:, i].
`eigvals_checked` returns eigenvalues only, settling in one loop each block
that a connected component of the pattern `H != 0` (its edges taken both ways)
gives.  A path (no state joined to more than two others, one join fewer than
states) of at least PATH_MIN states is scattered, in path order, into its
diagonal and the entries below and above it.  A real, exactly symmetric path
in every matrix, as every model builds, is solved there, with no s x s block
built, by `eigh_tridiagonal`'s divide-and-conquer driver stevd (Cuppen,
Numer. Math. 36, 177 (1981), made stable by Gu & Eisenstat, SIAM J. Matrix
Anal. Appl. 16, 172 (1995)), each residual taken from the path's own entries,
two neighbours per row, O(s^2) per path.  Every other block, a complex path
or one not symmetric in every matrix among them, goes, stacked with the
blocks of its size, to the symmetric eigensolver when the stack is exactly
hermitian and to the general one otherwise.  PATH_MIN is where the two
routes cost the same, measured on h12 paths at strong and at weak coupling
with BLAS on one thread; the timings are in CHANGES.md and
BENCH_path-divide-and-conquer.json.  The tridiagonal route holds less memory
at every s: its eigenvectors and stevd's s^2 workspace, two s x s arrays,
against the stacked route's block, eigenvectors, LAPACK's 2 s^2 workspace
and products.  The gate is the same on both routes, against the whole
matrix's ||H||_F.  On a hermitian block it also bounds each eigenvalue's
forward error: a unit vector v with residual r puts an exact eigenvalue of H
within r of w (Parlett, The Symmetric Eigenvalue Problem, 1980, Thm 4.5.1); on
a far-from-normal block only the backward error.
Block and dense eigenvalues agree up to rounding, not bit for bit.

`residual_on_rows` computes the eigenpair residual H x - E x of a vector x
that lives on a few basis states, or of a stack of them, from the rows of H
that x can reach and on them alone.  Row rule: the rows are x's support and
every row where H has a nonzero in a support column (`reached_rows`),
widened to whole blocks of ROW_BLOCK consecutive rows that start at a
multiple of ROW_BLOCK.  Then every kept row is the same full-length BLAS
dot product, computed in the same kernel row block, as in the dense product
H @ x, and every row left out is zero there.  So the full-length residual,
and any norm of it, equals the dense one bit for bit -- with BLAS on one
thread.  On more threads the dense product itself splits its rows
differently, and the two differ in their last bits, as the golden outputs
between thread counts do.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError, ValidationError

RESIDUAL_TOL = 1e-12
ROW_BLOCK = 4
PRODUCT_ROWS = 32 * ROW_BLOCK
PATH_MIN = 64


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norm along the last axis, with the bits of np.linalg.norm of each row
    (||H||_F of a flattened matrix).  Callers ignore overflow: the gate
    reports an inf, as an error."""
    square = np.vecdot(x.real, x.real)
    if np.iscomplexobj(x):
        square = square + np.vecdot(x.imag, x.imag)
    return np.sqrt(square)


def _gate(norms: list[float], worst: list[float]) -> None:
    """Raise the first failing matrix's error, in C order, for each matrix's
    ||H||_F and worst residual, in Python floats."""
    for norm, value in zip(norms, worst):
        if not math.isfinite(norm):  # the matrix was not solved
            value = math.inf
        if not math.isfinite(value):
            raise NumericalError(
                "eigensolver residual gate cannot be checked outside the float range "
                f"(1.8e308): ||H||_F = {norm:.3e}, worst residual {value:.3e}"
            )
        if value > RESIDUAL_TOL * max(1.0, norm):
            raise NumericalError(
                f"eigensolver residual {value:.3e} exceeds {RESIDUAL_TOL:.1e} * {max(1.0, norm):.3e}"
            )


def eig_checked(matrix: np.ndarray, return_residuals: bool = False) -> tuple[np.ndarray, ...]:
    """Eigenvalues and right eigenvectors with a backward-error gate.

    Returns (w, v) with v[..., :, i] normalized, and with return_residuals
    also each pair's residual ||H v_i - w_i v_i||, shape (..., n).  Raises
    NumericalError when any residual exceeds RESIDUAL_TOL * max(1, ||H||_F),
    or when ||H||_F or a residual is not finite, since the gate cannot be
    applied then; the first failing matrix of a stack names the error.  A
    matrix whose ||H||_F is not finite is solved as zeros, since scipy
    refuses a whole stack that holds an inf or nan.
    """
    with np.errstate(over="ignore"):  # an overflow is reported by the gate, as an error
        norms = _norms(matrix.reshape(*matrix.shape[:-2], matrix.shape[-1] ** 2))
        listed = norms.reshape(-1).tolist()
        if not all(map(math.isfinite, listed)):
            matrix = np.where(np.isfinite(norms)[..., np.newaxis, np.newaxis], matrix, 0.0)
        # xGEEV in some LAPACK builds (OpenBLAS 0.3.30's) returns the eigenvalues of its
        # own rescaled copy of a matrix far from unit scale: one with ||H||_F outside
        # [2^-200, 2^200] is solved times the power of two, at most 2^1000, that brings
        # its largest |entry| into [0.5, 1) (a tiny ||H||_F underflows); w is scaled back
        far = np.isfinite(norms) & ~((2.0**-200 <= norms) & (norms <= 2.0**200))
        if matrix.size and far.any():
            exponent = np.zeros(norms.shape, int)
            exponent[far] = np.frexp(np.abs(matrix[far]).max(axis=(-2, -1)))[1].clip(-1000)
            w, v = scipy.linalg.eig(matrix * np.exp2(-exponent)[..., np.newaxis, np.newaxis])
            w *= np.exp2(exponent)[..., np.newaxis]
        else:  # scipy refuses a stack of no matrices; numpy gives its empty w and v
            w, v = (scipy.linalg.eig if matrix.size else np.linalg.eig)(matrix)
        # by chunks of eigenvectors, one chunk's residual rows held at a time, and in
        # each row block by row block against the chunk in one stacked call; a block
        # starts at a multiple of ROW_BLOCK, so each row of H v_i has the bits of H @ v[:, i]
        columns = v.swapaxes(-1, -2)[..., np.newaxis]
        edges = [*range(0, max(w.shape[-1] - 1, 1), PRODUCT_ROWS), w.shape[-1]]
        rows = np.empty(w.shape[:-1] + (max(np.diff(edges)), w.shape[-1]), np.result_type(w, v))
        residuals = np.empty(w.shape)
        for chunk in map(slice, edges, edges[1:]):
            gaps = rows[..., :chunk.stop - chunk.start, :]  # one buffer for every chunk
            for part in map(slice, edges, edges[1:]):  # no block of one row: a dot, not a gemv
                block = matrix[..., np.newaxis, part, :].astype(v.dtype, copy=False)
                gap = np.multiply(w[..., chunk, np.newaxis], columns[..., chunk, part, 0], out=gaps[..., part])
                np.subtract(np.matmul(block, columns[..., chunk, :, :])[..., 0], gap, out=gap)
                del block  # a cast block is freed before the next is cast
            residuals[..., chunk] = _norms(gaps)
    worst = residuals.max(axis=-1, initial=0.0)  # a nan stays a nan
    _gate(listed, worst.reshape(-1).tolist())
    return (w, v, residuals) if return_residuals else (w, v)


def _adjacency(rows, cols, n: int) -> tuple[list[int], list[int]]:
    """Neighbour lists of n nodes with an edge i - j for each (i, j) in (rows,
    cols), taken both ways: node v's neighbours are targets[starts[v]:starts[v + 1]]."""
    heads = np.concatenate([rows, cols])
    order = np.argsort(heads, kind="stable")
    starts = np.searchsorted(heads[order], np.arange(n + 1)).tolist()
    return starts, np.concatenate([cols, rows])[order].tolist()


def _components(starts: list[int], targets: list[int]) -> list[list[int]]:
    """Connected components of `_adjacency`'s lists, each breadth first from its smallest node."""
    n = len(starts) - 1
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


def connected_components(matrix: np.ndarray) -> list[list[int]]:
    """Connected components of the graph with an edge i - j where H[i, j] or H[j, i] != 0.

    No nonzero entry joins two components, so they split H block-diagonally.
    """
    n = matrix.shape[0]
    rows, cols = np.divmod(np.flatnonzero(matrix), n)  # np.nonzero's order, faster
    return _components(*_adjacency(rows, cols, n))


def _path(component: list[int], starts: list[int], targets: list[int]) -> list[int] | None:
    """The component's nodes in order along it if it is a path (every node
    has at most two neighbours, and there is one edge fewer than nodes), else None."""
    neighbours = {v: set(targets[starts[v]:starts[v + 1]]) - {v} for v in component}
    degrees = [len(ws) for ws in neighbours.values()]
    if max(degrees) > 2 or sum(degrees) != 2 * (len(component) - 1):
        return None
    order = [next(v for v in component if len(neighbours[v]) < 2)]  # an end
    for _ in component[1:]:
        (step,) = neighbours[order[-1]].difference(order[-2:-1])
        order.append(step)
    return order


def _path_eigvals(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of a real, exactly symmetric path, given in path order by
    its diagonal and its off-diagonal (H[p_k+1, p_k] = H[p_k, p_k+1]), and
    the worst residual of their eigenpairs, taken from those entries."""
    w, y = eigh_tridiagonal(diag, off[:-1], lapack_driver="stevd")
    residuals = np.empty(w.shape)
    for start in range(0, len(w), PRODUCT_ROWS):  # by chunks: no s x s residual array
        chunk = slice(start, start + PRODUCT_ROWS)
        x = y.T[chunk]
        gap = diag - w[chunk, np.newaxis]
        gap *= x
        gap[:, 1:] += x[:, :-1] * off[:-1]
        gap[:, :-1] += x[:, 1:] * off[:-1]
        residuals[chunk] = _norms(gap)
    return w, residuals.max()


def eigvals_checked(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues only, solved block by block, shape (..., n): `stream_eigvals`."""
    if not matrix.size:  # no matrix, or n = 0: `stream_eigvals` reads n off a first matrix
        return np.zeros(matrix.shape[:-1], complex)
    stack = matrix.reshape(-1, *matrix.shape[-2:])
    return stream_eigvals(stack).reshape(matrix.shape[:-1])


def stream_eigvals(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Eigenvalues of G same-size matrices, read one at a time, as rows (G, n)
    in block order.  The union of their patterns splits them all into the
    same blocks; each matrix leaves only its norm and nonzero entries.  One
    loop solves each real, exactly symmetric path where it finds it, and puts
    every other block into the stack (G, blocks, s, s) of its size s, for one
    `eigh` (stack exactly hermitian) or `eig` call per size after the loop.
    The first failing gate raises.  It streams so that a grid's dense
    matrices are never held at once: stacking them gives the same bits but a
    sweep's peak memory about an eighth more.  No matrices give (0, 0) and G
    empty matrices (G, 0); a matrix not square or not the first's shape is
    refused."""
    norms, entries, shape = [], [], None
    for g, m in enumerate(matrices):
        shape = shape or m.shape
        if m.shape != shape or len(shape) != 2 or shape[0] != shape[1]:
            raise ValidationError(
                f"stream_eigvals takes square matrices of one shape: "
                f"matrix {g} is {m.shape}, the first {shape}"
            )
        with np.errstate(over="ignore"):
            norms.append(_norms(m.ravel()))
        if math.isfinite(norms[-1]):  # an inf or nan reaches no solver: zeros stand in
            flat = m.ravel()
            hits = np.flatnonzero(flat != 0)  # np.nonzero(m) is several times slower
            entries.append((g * flat.size + hits, flat[hits]))
    if not shape or not shape[0]:  # no matrices, or n = 0: no block to solve
        return np.zeros((len(norms), 0), complex)
    at, entry = (np.concatenate(part) for part in zip(*entries or [[np.zeros(0, int)] * 2]))
    g, rows, cols = np.unravel_index(at, (len(norms),) + m.shape)
    n, dtype = m.shape[0], np.result_type(entry, float)  # every matrix's entries fit
    # the union of the patterns, each entry once, in np.nonzero's order
    starts, targets = _adjacency(*np.divmod(np.unique(rows * n + cols), n), n)
    by_size, values, worst = {}, [], []
    for component in _components(starts, targets):
        order = _path(component, starts, targets) if len(component) >= PATH_MIN else None
        if order:
            along = np.full(n, -1)  # each state's place on the path, -1 off it
            along[order] = np.arange(len(order))
            i, j = along[rows], along[cols]
            on = i >= 0
            bands = np.zeros((3, len(norms), len(order)), dtype)  # diagonal, below, above: (i - j) % 3
            bands[(i - j)[on] % 3, g[on], np.minimum(i, j)[on]] = entry[on]
            # real and exactly symmetric, by the stacked route's rule: no tolerance
            if not np.iscomplexobj(bands) and np.array_equal(bands[1], bands[2]):
                with np.errstate(over="ignore"):
                    solved = [_path_eigvals(diag, off) for diag, off in bands[:2].transpose(1, 0, 2)]
                values.append(np.array([w for w, _ in solved]))
                worst.append(np.array([value for _, value in solved]))
                continue
        by_size.setdefault(len(component), []).append(component)
    for members in by_size.values():
        idx = np.array(members)
        block, slot = np.full(n, -1), np.zeros(n, dtype=int)
        block[idx], slot[idx] = np.arange(len(idx))[:, np.newaxis], np.arange(idx.shape[1])
        kept = block[rows] >= 0  # an entry's row and column share a block
        blocks = np.zeros((len(norms),) + idx.shape + idx.shape[1:], dtype)
        blocks[g[kept], block[rows[kept]], slot[rows[kept]], slot[cols[kept]]] = entry[kept]
        hermitian = np.array_equal(blocks, blocks.swapaxes(-1, -2).conj())
        w, v = (np.linalg.eigh if hermitian else np.linalg.eig)(blocks)
        with np.errstate(over="ignore"):  # (H v)^T in one gemm: no printed digit reads these
            vt = v.swapaxes(-1, -2)  # (H v - w v)^T in place: w v^T into v, off the products
            products = vt @ blocks.swapaxes(-1, -2)
            del blocks
            np.multiply(w[..., np.newaxis], vt, out=vt)
            residuals = _norms(np.subtract(products, vt, out=products))
        worst.append(residuals.reshape(len(norms), -1).max(axis=1))
        values.append(w.reshape(len(norms), -1))
    # np.maximum, unlike max, keeps a nan
    _gate(norms, np.maximum.reduce(worst).tolist())
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
    slab: np.ndarray, vector: np.ndarray, energy, support, rows: np.ndarray
) -> np.ndarray:
    """H @ vector - energy * vector, computed on `rows` only, from the slab H[rows].

    `vector` is one vector (n,) with one `energy`, or a stack (k, n) with k
    energies, whose rows meet the C-contiguous `slab` in one stacked gemv,
    each with the bits it gets alone.  `rows` is
    `reached_rows(H[:, support], support)`; every other entry of the
    full-length result is zero, as it is in the dense product.  Raises
    NumericalError when a vector has a nonzero outside `support`, since its
    column could reach a row outside `rows` and the residual would silently
    omit it.
    """
    support = np.asarray(support)
    if np.count_nonzero(vector[..., support]) != np.count_nonzero(vector):
        raise NumericalError(
            f"vector has a nonzero outside the support {support.tolist()} of "
            f"the residual rows {rows.tolist()}; a residual on those rows "
            "would omit what it reaches"
        )
    products = np.matmul(slab, vector[..., np.newaxis])[..., 0]
    kept = products - np.asarray(energy)[..., np.newaxis] * vector[..., rows]
    out = np.zeros(vector.shape[:-1] + slab.shape[1:], dtype=kept.dtype)
    out[..., rows] = kept
    return out


def spectrum_mismatch(got, expected) -> float:
    """Largest |difference| under greedy nearest-value pairing.

    Sorting complex spectra by (Re, Im) is unstable: a conjugate pair sits
    on real parts equal only up to machine noise, so two routes can order
    +i|y| and -i|y| differently and a positional comparison reports an O(1)
    error that is not there.  Greedy pairing is immune to that as long as
    the cross-route error is far below the level spacing, which is exactly
    the regime every caller asserts.  Returns inf on a length mismatch.

    All distances come from one np.hypot, which rounds as complex abs.  Each
    step's argmin over its row, taken columns set to inf, is the first
    nearest untaken value (or nan); where it can be a taken column, every
    untaken distance is inf, and so is the result whichever is taken.
    """
    left = np.asarray(got, dtype=complex).ravel()
    right = np.asarray(expected, dtype=complex).ravel()
    if left.size != right.size:
        return float("inf")
    gaps = left[:, np.newaxis] - right
    distances = np.hypot(gaps.real, gaps.imag)
    worst = 0.0
    for row in distances:
        best = int(row.argmin())
        worst = max(worst, row[best])
        distances[:, best] = np.inf
    return worst
