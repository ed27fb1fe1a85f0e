"""Truncated Fock space and the spin-boson operator container.

Everything downstream works on a hard-truncated oscillator Hilbert space
spanned by the number states |0>, ..., |D-1> tensored with a spin-1/2.
The basis ordering is frozen to *spin-major*: first all (n, +1/2) with n
ascending, then all (n, -1/2) with n ascending.  With that ordering every
two-by-two operator-block expression maps literally onto matrix quadrants:
sigma_plus (x) a, for instance, is the upper-right D-by-D quadrant holding
<n|a|n+1> = sqrt(n+1) on its first superdiagonal.  `models` writes each
Hamiltonian straight from such bands, and `SpinFockOperator` holds it as
them: its 2D x 2D matrix exists only inside a dense solve.

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

    A model builder gives its diagonal, 2D long, and for each photon offset
    0 <= j < D bands[j] = (upper, lower), D - j long each:
    H[m, D+m+j] = upper[m] and H[D+m+j, m] = lower[m], O(D) numbers.
    `entries` lists them as (rows, cols, values, mirror):
    H[rows[i], cols[i]] = values[i] and H[cols[i], rows[i]] = mirror[i], each
    position once, every other entry 0.  The dense `matrix` is made anew by
    each read, the reader's own, so only a dense solve makes it.
    """

    def __init__(self, space: TruncatedFockSpace, diagonal: np.ndarray, bands: dict):
        if np.shape(diagonal) != (space.dim,):
            raise ValidationError(f"diagonal shape {np.shape(diagonal)} does not match space dim {space.dim}")
        for j, runs in bands.items():
            if not 0 <= j < space.cutoff or any(np.shape(run) != (space.cutoff - j,) for run in runs):
                shapes = [np.shape(run) for run in runs]
                raise ValidationError(f"band {j} of shapes {shapes} does not fit cutoff {space.cutoff}")
        self.space, self.diagonal, self.bands = space, diagonal, bands

    @property
    def matrix(self) -> np.ndarray:
        d, runs = self.space.cutoff, [run for pair in self.bands.values() for run in pair]
        h = np.zeros((self.space.dim,) * 2, np.result_type(self.diagonal, *runs))
        np.fill_diagonal(h, self.diagonal)
        for j, (upper, lower) in self.bands.items():
            np.fill_diagonal(h[:d, d + j :], upper)
            np.fill_diagonal(h[d + j :, :d], lower)
        return h

    @functools.cached_property
    def entries(self) -> tuple[np.ndarray, ...]:
        at, d = np.arange(self.space.dim), self.space.cutoff
        rows, cols, values, mirror = [at], [at], [self.diagonal], [self.diagonal]
        for j, (upper, lower) in self.bands.items():  # (m, D+m+j), then its mirror (D+m+j, m)
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
