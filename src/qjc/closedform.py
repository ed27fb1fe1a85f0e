"""Closed-form spectrum of the k-photon exchange models.

The extended model couples |n, up> only to |n+k, down>, so the full matrix
splits into two-state blocks plus k uncoupled spin-down states.  This module
evaluates those blocks analytically: eigenvalues from the quadratic secular
equation, eigenvectors through a mixing-angle parameterization
(trigonometric for the sign-flipped coupling, hyperbolic for the hermitian
one), and the coupling-independent singlet levels.

Branch convention: branch I always takes the + square root of the
discriminant, i.e. the branch that at zero coupling continues the
higher-energy diagonal entry of the block.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fock import TruncatedFockSpace
from .models import ModelParams, poly_value


@dataclass(frozen=True, eq=False)
class DoubletBlock:
    """The 2x2 restriction to span{|n, up>, |n+k, down>}."""

    n: int
    k: int
    phi: int
    matrix: np.ndarray
    # coupling^2 computed as rho^2 * (n+1)...(n+k) without the sqrt
    # round-trip, so integer discriminants stay integers
    coupling_squared: float

    @property
    def gap(self) -> float:
        """Diagonal splitting (lower-right minus upper-left entry)."""
        return float(self.matrix[1, 1] - self.matrix[0, 0])

    @property
    def coupling(self) -> float:
        """Off-diagonal magnitude rho * sqrt((n+1)...(n+k))."""
        return float(self.matrix[0, 1])

    def discriminant(self) -> float:
        """gap^2 + 4 phi coupling^2, negative when the pair is complex."""
        try:
            value = self.gap**2 + 4.0 * self.phi * self.coupling_squared
        except OverflowError:  # float ** raises where * gives inf
            value = math.inf
        if not math.isfinite(value):  # rho^2 (n+1)...(n+k) overflows silently
            raise NumericalError(
                f"doublet discriminant at n = {self.n} overflows the float range: "
                f"gap = {self.gap:.6g}, coupling^2 = {self.coupling_squared:.6g}"
            )
        return value


@dataclass(frozen=True)
class MixingAngle:
    """Angle parameterizing the doublet eigenvectors.

    trig=True means sin/cos forms (sign-flipped coupling; defined only while
    the discriminant is non-negative).  trig=False means sinh/cosh forms
    (hermitian coupling; defined whenever the diagonal gap is nonzero).
    """

    value: float
    trig: bool


@dataclass(frozen=True)
class LabeledLevel:
    """One closed-form eigenvalue with its provenance label."""

    label: str
    energy: complex
    n: int | None = None
    branch: str | None = None


def _ladder_product(n: int, k: int) -> float:
    """(n+1)(n+2)...(n+k), the square of the k-step ladder matrix element."""
    prod = 1.0
    for i in range(1, k + 1):
        prod *= n + i
    return prod


def transfer_amplitude(n: int, k: int) -> float:
    """sqrt((n+1)(n+2)...(n+k)), the k-step ladder matrix element."""
    return math.sqrt(_ladder_product(n, k))


def doublet_block(params: ModelParams, n: int) -> DoubletBlock:
    """Assemble the 2x2 block for the pair (|n, up>, |n+k, down>)."""
    if n < 0:
        raise ValidationError(f"doublet index must be >= 0, got {n}")
    hw, eps, k = params.hbar_omega, params.epsilon, params.k
    prod = _ladder_product(n, k)
    amp = params.rho * math.sqrt(prod)
    matrix = np.array(
        [
            [hw * n + poly_value(params, n) + 0.5 * eps, amp],
            [params.phi * amp, hw * (n + k) + poly_value(params, n + k) - 0.5 * eps],
        ]
    )
    return DoubletBlock(
        n=n,
        k=k,
        phi=params.phi,
        matrix=matrix,
        coupling_squared=params.rho * params.rho * prod,
    )


def doublet_eigenvalues(block: DoubletBlock) -> tuple[complex, complex]:
    """(lambda_I, lambda_II) with branch I on the + square root.

    Works for either coupling sign; the discriminant
    gap^2 + 4 * phi * coupling^2 goes negative for the sign-flipped coupling
    at strong rho, in which case the pair is complex conjugate.
    """
    mean = 0.5 * (block.matrix[0, 0] + block.matrix[1, 1])
    disc = block.discriminant()
    root = cmath.sqrt(disc)
    lam_1 = mean + 0.5 * root
    lam_2 = mean - 0.5 * root
    if disc >= 0.0:
        return complex(lam_1.real), complex(lam_2.real)
    return lam_1, lam_2


def mixing_angle(block: DoubletBlock) -> MixingAngle:
    """Angle theta with 2 * coupling = gap * sin(theta) (or sinh).

    For the trigonometric case the branch is chosen so that
    gap * cos(theta) = +sqrt(gap^2 - 4 coupling^2) >= 0, absorbing a
    negative gap into theta instead of into the eigenvectors.
    """
    gap = block.gap
    twob = 2.0 * block.coupling
    if block.phi == -1:
        disc = gap * gap - twob * twob
        if disc < 0.0:
            raise ValidationError(
                "trigonometric mixing angle undefined: |2 rho sqrt(...)| "
                f"= {abs(twob):.6g} exceeds |gap| = {abs(gap):.6g}"
            )
        if gap == 0.0:
            return MixingAngle(value=0.0, trig=True)
        return MixingAngle(
            value=math.atan2(twob / gap, math.sqrt(disc) / gap), trig=True
        )
    if gap == 0.0:
        raise ValidationError(
            "hyperbolic mixing angle undefined at zero diagonal gap"
        )
    return MixingAngle(value=math.asinh(twob / gap), trig=False)


def doublet_eigenvectors(
    block: DoubletBlock, angle: MixingAngle
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors in block coordinates, ordered to match branch (I, II).

    The components are the raw half-angle forms, deliberately unnormalized
    (use `normalize` if a unit vector is needed):

        trig:        psi_I = (sin t/2, cos t/2),  psi_II = (cos t/2, sin t/2)
        hyperbolic:  psi_I = (sinh t/2, cosh t/2), psi_II = (cosh t/2, -sinh t/2)

    In the hyperbolic case with a negative diagonal gap the two forms swap
    branches, and the returned pair is reordered so that the first vector
    always belongs to lambda_I (the + square root).
    """
    half = 0.5 * angle.value
    if angle.trig:
        psi_1 = np.array([math.sin(half), math.cos(half)])
        psi_2 = np.array([math.cos(half), math.sin(half)])
        return psi_1, psi_2
    psi_1 = np.array([math.sinh(half), math.cosh(half)])
    psi_2 = np.array([math.cosh(half), -math.sinh(half)])
    if block.gap < 0.0:
        return psi_2, psi_1
    return psi_1, psi_2


def normalize(vec: np.ndarray) -> np.ndarray:
    """Unit-norm copy of a vector; separate on purpose from the raw forms."""
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return vec / norm


def closed_form_levels(params: ModelParams, doublets: int) -> list[LabeledLevel]:
    """The k spin-down singlets, then both branches of doublets 0..doublets-1.

    Singlet j is (0, |j>) with E_j = j hw + P(j) - eps/2, exact for every
    coupling strength because a^k annihilates |j> for j < k.
    """
    levels = [
        LabeledLevel(
            label=f"singlet:{j}",
            energy=complex(params.hbar_omega * j + poly_value(params, j) - 0.5 * params.epsilon),
            n=j,
        )
        for j in range(params.k)
    ]
    for n in range(doublets):
        lam_1, lam_2 = doublet_eigenvalues(doublet_block(params, n))
        levels.append(LabeledLevel(label=f"doublet:{n}:I", energy=lam_1, n=n, branch="I"))
        levels.append(LabeledLevel(label=f"doublet:{n}:II", energy=lam_2, n=n, branch="II"))
    return levels


def full_algebraic_spectrum(
    params: ModelParams, space: TruncatedFockSpace
) -> list[LabeledLevel]:
    """Every closed-form level whose support clears the guard band.

    Doublets are enumerated for n + k < D - guard; singlets always qualify.
    """
    return closed_form_levels(params, max(0, space.cutoff - space.guard - params.k))


def doublet_coalescence_rho(params: ModelParams, n: int) -> float | None:
    """Coupling strength where the doublet pair meets (discriminant zero).

    Only the sign-flipped coupling coalesces at real rho; returns None for
    the hermitian sign.  A zero diagonal gap collapses the pair at rho = 0.
    """
    if params.phi != -1:
        return None
    block = doublet_block(dataclasses.replace(params, rho=1.0), n)
    return abs(block.gap) / (2.0 * transfer_amplitude(n, params.k))
