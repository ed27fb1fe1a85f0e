"""Truncated Fock space and the spin-boson operator container.

Everything downstream works on a hard-truncated oscillator Hilbert space
spanned by the number states |0>, ..., |D-1> tensored with a spin-1/2.
The basis ordering is frozen to *spin-major*: first all (n, +1/2) with n
ascending, then all (n, -1/2) with n ascending.  With that ordering every
two-by-two operator-block expression maps literally onto matrix quadrants:
sigma_plus (x) a, for instance, is the upper-right D-by-D quadrant holding
<n|a|n+1> = sqrt(n+1) on its first superdiagonal.  `models` writes each
Hamiltonian straight from such bands.

Truncation artifacts live in the top `guard` photon states; callers that
compare against exact formulas should restrict to indices n < D - guard.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SPIN_UP = 0.5
SPIN_DOWN = -0.5


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Hard-truncated oscillator space with a guard band.

    Parameters
    ----------
    cutoff:
        Number of retained Fock states D (indices 0..D-1).  The raising
        operator annihilates |D-1> instead of leaving the space.
    guard:
        Width g of the guard band.  States with n >= D - g are considered
        corrupted by the truncation; exactness claims apply below it.
    """

    cutoff: int
    guard: int = 8

    def __post_init__(self):
        if self.cutoff < 4:
            raise ValidationError(f"cutoff must be >= 4, got {self.cutoff}")
        if self.guard < 0:
            raise ValidationError(f"guard must be >= 0, got {self.guard}")
        if self.guard >= self.cutoff:
            raise ValidationError(
                f"guard band ({self.guard}) must be smaller than cutoff ({self.cutoff})"
            )

    @property
    def dim(self) -> int:
        """Dimension of the full spin tensor Fock space."""
        return 2 * self.cutoff

    @property
    def reliable_max(self) -> int:
        """Largest photon index outside the guard band."""
        return self.cutoff - self.guard - 1


class SpinFockOperator:
    """An operator on the spin tensor Fock space, held as its entries.

    A model builder gives its diagonal and, for each photon offset j,
    bands[j] = (upper, lower): H[m, D+m+j] = upper[m], H[D+m+j, m] = lower[m]
    for m < D - j, O(D) numbers.  `entries` lists them as (rows, cols,
    values, mirror): H[rows[i], cols[i]] = values[i] and H[cols[i], rows[i]]
    = mirror[i], each position once, every other entry 0.  A builder's
    dense `matrix` is made anew by each read, the reader's own, so only a
    dense solve makes it.  A dense `matrix` given instead gives its nonzeros
    as the entries.
    """

    _bands = None

    def __init__(self, matrix: np.ndarray, space: TruncatedFockSpace):
        if matrix.shape != (space.dim, space.dim):
            raise ValidationError(f"matrix shape {matrix.shape} does not match space dim {space.dim}")
        rows, cols = np.divmod(np.flatnonzero(matrix), space.dim)
        self.entries = rows, cols, matrix[rows, cols], matrix[cols, rows]
        self._matrix, self.space = matrix, space

    @classmethod
    def from_bands(cls, space: TruncatedFockSpace, diagonal: np.ndarray, bands: dict) -> SpinFockOperator:
        op = cls.__new__(cls)
        op.space, op._bands = space, (diagonal, bands)
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._bands is None:
            return self._matrix
        (diagonal, bands), d = self._bands, self.space.cutoff
        h = np.zeros((self.space.dim,) * 2)
        np.fill_diagonal(h, diagonal)
        for j, (upper, lower) in bands.items():
            np.fill_diagonal(h[:d, d + j :], upper)
            np.fill_diagonal(h[d + j :, :d], lower)
        return h

    @functools.cached_property
    def entries(self) -> tuple[np.ndarray, ...]:
        (diagonal, bands), d = self._bands, self.space.cutoff
        at = np.arange(self.space.dim)
        rows, cols, values, mirror = [at], [at], [diagonal], [diagonal]
        for j, (upper, lower) in bands.items():  # (m, D+m+j), then its mirror (D+m+j, m)
            rows += [at[: d - j], at[d + j :]]
            cols += rows[-1:-3:-1]
            values += [upper, lower]
            mirror += [lower, upper]
        return tuple(map(np.concatenate, (rows, cols, values, mirror)))

    @functools.cached_property
    def nonzero(self) -> tuple[np.ndarray, ...]:
        """`entries` less its exact zeros: the pattern H != 0, a nan included."""
        rows, cols, values, mirror = self.entries
        kept = values != 0
        return rows[kept], cols[kept], values[kept], mirror[kept]

    def block(self, picked, axis: int) -> np.ndarray:
        """H[picked] (axis 0) or H[:, picked] (axis 1) for distinct states
        `picked`, scattered from the entries into a new C-contiguous array:
        the dense matrix's bits, each -0.0 included."""
        place = np.full(self.space.dim, -1)  # each state's place in the block, -1 off it
        place[np.asarray(picked)] = np.arange(len(picked))
        at, values, shape = list(self.entries[:2]), self.entries[2], [self.space.dim] * 2
        at[axis], shape[axis] = place[at[axis]], len(picked)
        kept = at[axis] >= 0
        out = np.zeros(shape, values.dtype)
        out[at[0][kept], at[1][kept]] = values[kept]
        return out


def basis_index(space: TruncatedFockSpace, n: int, ms: float) -> int:
    """Flat index of |n, ms> under the frozen spin-major ordering."""
    if not 0 <= n < space.cutoff:
        raise ValidationError(f"photon index {n} outside [0, {space.cutoff})")
    if ms == SPIN_UP:
        return n
    if ms == SPIN_DOWN:
        return space.cutoff + n
    raise ValidationError(f"ms must be +0.5 or -0.5, got {ms}")
