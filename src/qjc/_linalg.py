"""Dense eigensolver wrapper with per-eigenpair residual verification.

The heavy lifting is LAPACK via scipy; this module only adds the quality
gate every caller relies on: each returned eigenpair must satisfy
||H v - w v|| <= RESIDUAL_TOL * max(1, ||H||), otherwise a NumericalError is
raised so the caller can enlarge the cutoff instead of silently consuming noise.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import NumericalError

RESIDUAL_TOL = 1e-12


def eig_checked(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors with a backward-error gate.

    Returns (w, v) with v[:, i] normalized.  Raises NumericalError when any
    residual exceeds RESIDUAL_TOL * max(1, ||H||_F), or when ||H||_F or a
    residual is not finite, since the gate cannot be applied then.
    """
    with np.errstate(over="ignore"):  # an overflow is reported below, as an error
        norm = float(np.linalg.norm(matrix))
    worst = math.inf
    if math.isfinite(norm):
        w, v = scipy.linalg.eig(matrix)
        residuals = np.linalg.norm(matrix @ v - v * w[np.newaxis, :], axis=0)
        worst = float(np.max(residuals)) if residuals.size else 0.0
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
    return w, v


def eigvals_checked(matrix: np.ndarray) -> np.ndarray:
    return eig_checked(matrix)[0]


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
