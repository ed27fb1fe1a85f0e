"""Structural symmetry checks on assembled spin-Fock matrices.

Every check measures an entrywise deviation and reports it alongside the
boolean verdict, so truncation effects stay visible.  Each deviation is
read from the operator's nonzero entries (`SpinFockOperator.nonzero`, one
read per operator): rows r, columns c, H[r, c] and H[c, r].  The PT and
commutator deviations are exactly 0 where H[r, c] = 0; the (pseudo-)
hermitian ones are 0 where H[r, c] = H[c, r] = 0, and at (c, r) |conj| of
their value at (r, c), bit for bit, since the sign flips are exact.  So the
pattern of H gives the dense form's largest |.|, or 0 (`initial`), with a
nan kept and no n x n array made.  For the photon-parity conjugation the
deviation is measured on the guard-banded submatrix: parity itself is
diagonal and exact, but the identities it certifies are only claimed below
the guard band.

PT here means: photon-parity conjugation combined with complex conjugation
of the matrix in the convention where the oscillator eigenfunctions are
real.  On the symbolic blocks that is a -> -a, adag -> -adag, i -> -i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eigvals_checked
from .errors import NumericalError, UnpairableSpectrumError, ValidationError
from .fock import SpinFockOperator, TruncatedFockSpace

REALNESS_TOL = 1e-10
STRUCTURE_TOL = 1e-12


# The metrics are diagonal +-1 operators; the checks work on their signs.


def _sigma3_signs(space: TruncatedFockSpace) -> np.ndarray:
    return np.repeat([1.0, -1.0], space.cutoff)


def _parity_signs(space: TruncatedFockSpace) -> np.ndarray:
    return np.tile((-1.0) ** np.arange(space.cutoff), 2)


def sigma3_operator(space: TruncatedFockSpace) -> np.ndarray:
    return np.diag(_sigma3_signs(space))


def parity_matrix(space: TruncatedFockSpace) -> np.ndarray:
    return np.diag(_parity_signs(space))


def _largest(delta: np.ndarray) -> float:
    return float(np.max(np.abs(delta), initial=0.0))


def check_hermitian(h: SpinFockOperator, tol: float = STRUCTURE_TOL) -> tuple[bool, float]:
    """Pseudo-hermiticity with eta = 1.  Multiplying a finite entry by 1.0 is
    exact, so the deviation has the bits of max |H - H^dagger|."""
    return check_pseudo_hermitian(h, np.ones(h.space.dim), tol)


def _signs(op: np.ndarray, h: SpinFockOperator) -> np.ndarray:
    """Signs of `op`: a +-1 diagonal operator shaped like H, or its diagonal."""
    shape = (h.space.dim,) * 2
    if op.shape not in (shape, shape[:1]):
        raise ValidationError(f"operator shape {op.shape} does not match {shape}")
    signs = op if op.ndim == 1 else np.diag(op)
    off_diagonal = op.ndim == 2 and np.count_nonzero(op - np.diag(signs))
    if off_diagonal or not np.all((signs == 1) | (signs == -1)):
        raise ValidationError("metric operators must be diagonal with entries +1 or -1")
    return signs


def check_pseudo_hermitian(
    h: SpinFockOperator,
    eta: np.ndarray,
    tol: float = STRUCTURE_TOL,
    guard_banded: bool = False,
) -> tuple[bool, float]:
    """Deviation of eta H eta^-1 = eta H eta from the adjoint of H, over
    the rows and columns below the guard band if `guard_banded`.

    `eta` is a diagonal +-1 operator, given as a matrix or as its diagonal.
    """
    s = _signs(eta, h)
    rows, cols, a, b = h.nonzero
    if guard_banded:
        keep = np.tile(np.arange(h.space.cutoff) <= h.space.reliable_max, 2)
        kept = keep[rows] & keep[cols]
        rows, cols, a, b = rows[kept], cols[kept], a[kept], b[kept]
    dev = _largest(s[rows] * a * s[cols] - b.conj())
    return dev <= tol, dev


def check_pt(h: SpinFockOperator) -> tuple[bool, float]:
    """Invariance under parity conjugation plus complex conjugation."""
    p = _parity_signs(h.space)
    rows, cols, a, _ = h.nonzero
    dev = _largest(p[rows] * a.conj() * p[cols] - a)
    return dev <= STRUCTURE_TOL, dev


def commutator_deviation(h: SpinFockOperator, op: np.ndarray) -> float:
    """Largest entry of [H, op] for a +-1 diagonal op (matrix or diagonal)."""
    s = _signs(op, h)
    rows, cols, a, _ = h.nonzero
    return _largest(a * s[cols] - s[rows] * a)


def real_mask(w: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Which values are real: |Im w| at most REALNESS_TOL * max(scale, |w|).
    At the default scale the floor is absolute below |w| = 1."""
    return np.abs(w.imag) <= REALNESS_TOL * np.maximum(scale, np.abs(w))


def _pair_greedily(complex_vals: np.ndarray) -> None:
    """Raise UnpairableSpectrumError unless the greedy pairing pairs every
    value: the last unpaired value takes its nearest conjugate partner, the
    first one in the original order on a tie."""
    alive = np.ones(complex_vals.size, dtype=bool)
    for i in range(complex_vals.size - 1, -1, -1):
        if not alive[i]:
            continue
        alive[i] = False
        z = complex_vals[i]
        candidates = np.flatnonzero(alive)
        if not candidates.size:
            raise UnpairableSpectrumError(
                f"eigenvalue {z:.6g} has no conjugate partner; raise the cutoff"
            )
        dists = np.abs(np.conj(z) - complex_vals[candidates])
        best = int(np.argmin(dists))
        if dists[best] > REALNESS_TOL * max(1.0, abs(z)):
            raise UnpairableSpectrumError(
                f"eigenvalue {z:.6g} unpaired (nearest conjugate gap "
                f"{dists[best]:.3e}); raise the cutoff"
            )
        alive[candidates[best]] = False


def classify_eigenvalues(eigenvalues: np.ndarray) -> str:
    """Partition a spectrum into real values and conjugate pairs.

    Returns "all-real", "conjugate-pairs" (nothing real, everything
    paired), or "mixed".  Raises UnpairableSpectrumError when a complex
    eigenvalue has no conjugate partner within tolerance, which usually
    means the truncation cutoff is too small for the requested model, and
    NumericalError for a value that is not finite, which no tolerance reads.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    finite = np.isfinite(w)
    if not finite.all():
        raise NumericalError(f"eigenvalue {w[~finite][0]:.6g} is not finite; no spectrum class reads it")
    real = real_mask(w)
    complex_vals = w[~real]
    n_real = int(np.count_nonzero(real))
    # If the non-real values are closed under exact conjugation as a multiset,
    # as a real matrix's LAPACK spectrum is, the greedy pairing cannot fail:
    # the value z a step takes is not real, so z != conj(z), and a free conj(z)
    # lies at distance 0; the step pairs z with an exact conj(z), which leaves
    # the free values closed.  The verdict is then n_real's alone.
    if not np.array_equal(np.sort_complex(complex_vals), np.sort_complex(complex_vals.conj())):
        _pair_greedily(complex_vals)
    if n_real == len(w):
        return "all-real"
    if n_real == 0:
        return "conjugate-pairs"
    return "mixed"


def classify_spectrum(h: SpinFockOperator) -> str:
    return classify_eigenvalues(eigvals_checked(h.matrix))


@dataclass(frozen=True)
class SymmetryReport:
    """Bundle of structural verdicts for one assembled model."""

    hermitian: bool
    hermitian_deviation: float
    pt_symmetric: bool
    pt_deviation: float
    pseudo_hermitian: dict[str, tuple[bool, float]]
    parity_sigma3_commutant: float
    spectrum_class: str


def symmetry_report(h: SpinFockOperator) -> SymmetryReport:
    """Run every check against the standard conjugations.

    The pseudo-hermiticity dictionary is keyed by "sigma3", "parity" and
    "parity_sigma3"; the parity entry is measured below the guard band.
    No identity is asserted here -- the report just records what holds.
    """
    sigma3, parity = _sigma3_signs(h.space), _parity_signs(h.space)
    parity_sigma3 = sigma3 * parity
    # an inf entry gives an inf or nan deviation; the spectrum's gate reports it
    with np.errstate(over="ignore", invalid="ignore"):
        herm_ok, herm_dev = check_hermitian(h)
        pt_ok, pt_dev = check_pt(h)
        pseudo = {
            "sigma3": check_pseudo_hermitian(h, sigma3),
            "parity": check_pseudo_hermitian(h, parity, guard_banded=True),
            "parity_sigma3": check_pseudo_hermitian(h, parity_sigma3),
        }
        commutant = commutator_deviation(h, parity_sigma3)
    return SymmetryReport(
        hermitian=herm_ok,
        hermitian_deviation=herm_dev,
        pt_symmetric=pt_ok,
        pt_deviation=pt_dev,
        pseudo_hermitian=pseudo,
        parity_sigma3_commutant=commutant,
        spectrum_class=classify_spectrum(h),
    )
