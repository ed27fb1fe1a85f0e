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


@dataclass(frozen=True, eq=False)
class SpinFockOperator:
    """A dense operator on the spin tensor Fock space."""

    matrix: np.ndarray
    space: TruncatedFockSpace

    def __post_init__(self):
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise ValidationError(
                f"matrix shape {self.matrix.shape} does not match space dim {d}"
            )


def basis_index(space: TruncatedFockSpace, n: int, ms: float) -> int:
    """Flat index of |n, ms> under the frozen spin-major ordering."""
    if not 0 <= n < space.cutoff:
        raise ValidationError(f"photon index {n} outside [0, {space.cutoff})")
    if ms == SPIN_UP:
        return n
    if ms == SPIN_DOWN:
        return space.cutoff + n
    raise ValidationError(f"ms must be +0.5 or -0.5, got {ms}")
