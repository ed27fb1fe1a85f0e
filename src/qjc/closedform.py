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

Two evaluations of the doublet levels agree bit for bit.
`closed_form_tracks` evaluates every level over a coupling grid in one
array pass; `doublet_block` + `doublet_eigenvalues` evaluate one block at one
coupling.  Both read the diagonals from `_diagonal`, whose photon energy
hw m + P(m) takes an int m or an array of them by the same IEEE operations,
so both take the gap and the mean as the same floats, scale
gap and rho by 2^e (e >= 0 brings the larger into [0.5, 1)), compute
gap * gap, rho * rho * (n+1)...(n+k), the discriminant and half its real
square root by the same IEEE operations in the same order, scale that back
by 2^-e and place the same signed zeros (branch I gets mean + 0.0, branch
II mean - 0.0).  IEEE *, + and sqrt commute with the scaling, so it changes
no bit where nothing is subnormal and keeps the digits subnormal squares
lose.  Tests compare the two through their bits.  Every closed-form caller
reads `closed_form_tracks`: `flow.sweep` at its grid, and
`closed_form_levels` at one coupling for `qjc spectrum` (through
`full_algebraic_spectrum`) and the pseudo-JCM `qjc polyrep-check`.  The
scalar path is the tests' reference and serves the sweep's bisection and
coalescence probes, which each need one block at one coupling.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NumericalError, ValidationError
from .fock import TruncatedFockSpace
from .models import ModelParams


@dataclass(frozen=True, eq=False)
class DoubletBlock:
    """The 2x2 restriction to span{|n, up>, |n+k, down>}."""

    n: int
    k: int
    phi: int
    matrix: np.ndarray
    rho: float

    @property
    def gap(self) -> float:
        """Diagonal splitting (lower-right minus upper-left entry)."""
        return float(self.matrix[1, 1] - self.matrix[0, 0])

    @property
    def coupling(self) -> float:
        """Off-diagonal magnitude rho * sqrt((n+1)...(n+k))."""
        return float(self.matrix[0, 1])

    def scaled_discriminant(self, rho: float) -> tuple[float, int]:
        """(value, e): value is 4^e times the discriminant gap^2 + 4 phi
        rho^2 (n+1)...(n+k) at coupling rho, with gap and rho prescaled by 2^e
        (e >= 0 brings the larger into [0.5, 1)).  Its sign, negative for a
        complex pair, survives any underflow.  It has the bits of the block
        built at rho, since rho enters nothing else."""
        gap = self.gap
        e = max(0, -math.frexp(max(abs(gap), abs(rho)))[1])
        gap, rho = math.ldexp(gap, e), math.ldexp(rho, e)
        squared = rho * rho * _ladder_product(self.n, self.k)
        value = gap * gap + 4.0 * self.phi * squared
        if not math.isfinite(value):  # a square overflows to inf silently
            raise _overflow(self.n, self.gap, squared)
        return value, e


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


def _ladder_product(n, k: int):
    """(n+1)(n+2)...(n+k), the square of the k-step ladder matrix element,
    for an int n or elementwise over an array of them."""
    prod = 1.0
    for i in range(1, k + 1):
        prod *= n + i
    return prod


def transfer_amplitude(n: int, k: int) -> float:
    """sqrt((n+1)(n+2)...(n+k)), the k-step ladder matrix element."""
    return math.sqrt(_ladder_product(n, k))


def _photon_energy(params: ModelParams, m):
    """hw m + P(m) for an int m or elementwise over an array of them."""
    return params.hbar_omega * m + (npoly.polyval(m, params.poly) if params.poly else 0.0)


def _diagonal(params: ModelParams, n):
    """Diagonal entries of doublet n (or of each doublet in an array n):
    |n, up> then |n+k, down>.  An overflow gives inf, as Python floats do,
    which the discriminant's check reports."""
    half = 0.5 * params.epsilon
    with np.errstate(over="ignore", invalid="ignore"):
        return _photon_energy(params, n) + half, _photon_energy(params, n + params.k) - half


def _overflow(n: int, gap: float, coupling_squared: float) -> NumericalError:
    return NumericalError(
        f"doublet discriminant at n = {n} overflows the float range: "
        f"gap = {gap:.6g}, coupling^2 = {coupling_squared:.6g}"
    )


def doublet_block(params: ModelParams, n: int) -> DoubletBlock:
    """Assemble the 2x2 block for the pair (|n, up>, |n+k, down>)."""
    if n < 0:
        raise ValidationError(f"doublet index must be >= 0, got {n}")
    prod = _ladder_product(n, params.k)
    amp = params.rho * math.sqrt(prod)
    upper, lower = _diagonal(params, n)
    matrix = np.array([[upper, amp], [params.phi * amp, lower]])
    return DoubletBlock(
        n=n,
        k=params.k,
        phi=params.phi,
        matrix=matrix,
        rho=params.rho,
    )


def doublet_eigenvalues(block: DoubletBlock) -> tuple[complex, complex]:
    """(lambda_I, lambda_II) with branch I on the + square root.

    Works for either coupling sign; the discriminant
    gap^2 + 4 * phi * coupling^2 goes negative for the sign-flipped coupling
    at strong rho, in which case the pair is complex conjugate.
    """
    mean = 0.5 * (block.matrix[0, 0] + block.matrix[1, 1])
    disc, e = block.scaled_discriminant(block.rho)
    half = math.ldexp(0.5 * math.sqrt(abs(disc)), -e)
    if disc >= 0.0:
        return complex(mean + half), complex(mean - half)
    return complex(mean + 0.0, half), complex(mean - 0.0, -half)


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


def level_keys(k: int, doublets: int) -> list[tuple[str, int, str | None]]:
    """(label, n, branch) of each closed-form row: the k spin-down singlets,
    then branches I and II of doublets 0..doublets-1."""
    keys = [(f"singlet:{j}", j, None) for j in range(k)]
    for n in range(doublets):
        keys += [(f"doublet:{n}:I", n, "I"), (f"doublet:{n}:II", n, "II")]
    return keys


def closed_form_tracks(params: ModelParams, doublets: int, rho) -> np.ndarray:
    """Every closed-form level at every coupling in `rho`, in one array pass.

    Returns a complex array of shape (k + 2 doublets, len(rho)), rows in
    `level_keys` order.  Singlet j is (0, |j>) with E_j = j hw + P(j) - eps/2,
    exact for every coupling because a^k annihilates |j> for j < k.  Doublet
    entries equal the scalar path's bit for bit (see the module docstring).
    A non-finite discriminant raises the scalar path's NumericalError for
    the first coupling where one occurs and the lowest such doublet there,
    and so, by its label, does a level out of range with a finite one.
    """
    rho = np.asarray(rho, dtype=float)
    k = params.k
    tracks = np.empty((k + 2 * doublets, rho.size), dtype=complex)
    index = np.arange(doublets)[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised by name below
        tracks[:k] = (_photon_energy(params, np.arange(k)) - 0.5 * params.epsilon)[:, np.newaxis]
        upper, lower = _diagonal(params, index)
        gap, mean, prod = lower - upper, 0.5 * (upper + lower), _ladder_product(index, k)
        e = np.maximum(0, -np.frexp(np.maximum(np.abs(gap), np.abs(rho)))[1])  # the prescale
        scaled_gap, scaled_rho = np.ldexp(gap, e), np.ldexp(rho, e)
        coupling_squared = scaled_rho * scaled_rho * prod
        disc = scaled_gap * scaled_gap + 4.0 * params.phi * coupling_squared
    overflow = ~np.isfinite(disc)
    broken = ~np.isfinite(rho) | overflow.any(axis=0)
    if broken.any():
        g = int(np.argmax(broken))
        # a non-finite coupling fails ModelParams' check first, as per point
        dataclasses.replace(params, rho=float(rho[g]))
        n = int(np.argmax(overflow[:, g]))
        raise _overflow(n, float(gap[n, 0]), float(coupling_squared[n, g]))
    half = np.ldexp(0.5 * np.sqrt(np.abs(disc)), -e)
    paired = disc < 0.0
    shift = np.where(paired, 0.0, half)  # real part of root / 2
    lift = np.where(paired, half, 0.0)  # imaginary part of root / 2
    branch_1, branch_2 = tracks[k::2], tracks[k + 1 :: 2]
    branch_1.real = mean + shift
    branch_1.imag = lift
    branch_2.real = mean - shift
    branch_2.imag = 0.0 - lift  # +0.0 on a real pair, as complex(x) gives, not -0.0
    bad = np.argwhere(~np.isfinite(tracks.T))
    if bad.size:
        g, row = bad[0].tolist()
        raise NumericalError(
            f"closed-form level {level_keys(k, doublets)[row][0]} overflows the float range "
            f"at rho = {float(rho[g])!r}"
        )
    return tracks


def closed_form_levels(params: ModelParams, doublets: int) -> list[LabeledLevel]:
    """The k spin-down singlets, then both branches of doublets 0..doublets-1,
    read from `closed_form_tracks` at params.rho."""
    energies = closed_form_tracks(params, doublets, [params.rho])[:, 0].tolist()
    return [
        LabeledLevel(label=label, energy=energy, n=n, branch=branch)
        for (label, n, branch), energy in zip(level_keys(params.k, doublets), energies)
    ]


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
