"""Differential-operator realization on polynomial doublets.

After the gauge transformation exp(x^2/2) H exp(-x^2/2) (length scale fixed
by unit mass and frequency) the mode operators act on polynomials in x as
first-order differential operators:

    a       ->  (-i/sqrt(2)) d/dx
    a^dag   ->  (-i/sqrt(2)) (d/dx - 2x)
    a^dag a ->  -(1/2) d^2/dx^2 + x d/dx

The phase differs from the usual convention by a = -i a_std, i.e. the
similarity diag(i^j) on monomials, so spectra agree with the Fock-side
matrices even though entries here are complex.

States are doublets of polynomials (upper of degree <= d1, lower of degree
<= d2) stored as monomial coefficient vectors.  The one-photon exchange
model preserves the caps (d, d+1) for every d; the dressed mixed-exchange
model preserves exactly (N, N+2): acting on x^(N+2), the dressing
(x d/dx + ... - n) contributes the Euler factor (N + 2 - n) = 0, the same
cancellation that closes the Fock-side invariant subspace.  `leak` records
the certified out-of-cap component, so a wrong cap is a measured failure,
not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eig_checked
from .errors import ValidationError
from .models import ModelParams, invariance_defect

MAX_CAP = 64


def derivative_matrix(work_deg: int) -> np.ndarray:
    """d/dx on coefficient vectors of degree <= work_deg."""
    d = np.zeros((work_deg + 1, work_deg + 1))
    for j in range(1, work_deg + 1):
        d[j - 1, j] = j
    return d


def multiply_x_matrix(work_deg: int) -> np.ndarray:
    """x * on coefficient vectors (truncating above work_deg)."""
    x = np.zeros((work_deg + 1, work_deg + 1))
    for j in range(work_deg):
        x[j + 1, j] = 1.0
    return x


def _mode_operators(work_deg: int):
    """Integer coefficient matrices (d, d - 2x, a^dag a) on the working space;
    the gauge-transformed a and a^dag are (-i/sqrt(2)) times the first two.

    The number operator is assembled as x d/dx - (1/2) d^2/dx^2 from the
    integer coefficient matrices rather than as the product a^dag @ a: the
    float detour (1/sqrt(2))^2 != 1/2 would smear its diagonal by one ulp,
    and exact integers there are what makes the dressed cancellation at
    degree n land on 0.0 instead of 1e-16.
    """
    d = derivative_matrix(work_deg)
    x = multiply_x_matrix(work_deg)
    return d, d - 2.0 * x, x @ d - 0.5 * (d @ d)


@dataclass(frozen=True, eq=False)
class PolySpaceOperator:
    """A block operator restricted to capped polynomial doublets.

    `matrix` acts on the concatenation (upper coeffs 0..d1, lower coeffs
    0..d2); `leak` is the largest ambient component produced outside the
    caps, certified by applying the full operator to every capped basis
    vector.  Zero leak means the caps define an exact invariant subspace.
    """

    matrix: np.ndarray
    caps: tuple[int, int]
    leak: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _restrict(full: np.ndarray, work_deg: int, caps: tuple[int, int]) -> PolySpaceOperator:
    d1, d2 = caps
    width = work_deg + 1
    inside = list(range(d1 + 1)) + [width + j for j in range(d2 + 1)]
    block = full[np.ix_(inside, inside)]
    return PolySpaceOperator(matrix=block, caps=caps, leak=invariance_defect(full, inside))


def _doublet_operator(
    params: ModelParams, number: np.ndarray, b: np.ndarray, c: np.ndarray, caps: tuple[int, int]
) -> PolySpaceOperator:
    """[[hw N + eps/2, b], [c, hw N - eps/2]] restricted to `caps`."""
    photon, half = params.hbar_omega * number, 0.5 * params.epsilon * np.eye(len(number))
    return _restrict(np.block([[photon + half, b], [c, photon - half]]), len(number) - 1, caps)


def _validate_caps(caps: tuple[int, int]):
    d1, d2 = caps
    if not (0 <= d1 <= MAX_CAP and 0 <= d2 <= MAX_CAP):
        raise ValidationError(f"caps {caps} outside [0, {MAX_CAP}]")


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches a gate, which names it
def gauge_transform_pseudo_jcm(
    params: ModelParams, n: int, caps: tuple[int, int] | None = None
) -> PolySpaceOperator:
    """Antisymmetric one-photon model on polynomial doublets, caps (n-1, n).

    The off-diagonal blocks are first order, so every cap pair (d, d+1) is
    preserved -- the model is exactly (not just quasi-exactly) solvable and
    n is a free choice rather than a parameter of the operator.  Passing
    explicit `caps` lets tests certify that wrong caps leak.  As in
    `build_pseudo_jcm` the coupling sign is fixed to the antisymmetric one.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    caps = caps or (n - 1, n)
    _validate_caps(caps)
    d, raise_2x, number = _mode_operators(max(caps) + 2)
    rho, scale = params.rho, -1j / np.sqrt(2.0)
    return _doublet_operator(params, number, rho * (scale * d), -rho * (scale * raise_2x), caps)


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches a gate, which names it
def gauge_transform_ht(
    params: ModelParams, caps: tuple[int, int] | None = None
) -> PolySpaceOperator:
    """Dressed mixed-exchange model on polynomial doublets.

    Default caps (N, N+2) are the exactly preserved pair; the dressing
    carries the Euler factor (x d/dx - ... - n) whose kernel at degree
    N + 2 = n closes the space.
    """
    n = params.big_n + 2
    caps = caps or (n - 2, n)
    _validate_caps(caps)
    d, raise_2x, number = _mode_operators(max(caps) + 3)
    rho, (c, c_hat) = params.rho, params.qes_couplings()
    shifted = number - n * np.eye(len(number))
    # a^2 = -(1/2) d^2 and a (n_hat - n) = (-i/sqrt 2) d (n_hat - n): keep
    # the integer matrix products and apply the scalar phases afterwards,
    # so the degree-n kernel of the dressing survives in floating point
    scale = -1j / np.sqrt(2.0)
    return _doublet_operator(
        params,
        number,
        -0.5 * rho * (d @ d) + (c * scale) * (d @ shifted),
        -0.5 * params.phi * rho * (raise_2x @ raise_2x) + (c_hat * scale) * (shifted @ raise_2x),
        caps,
    )


def restriction_spectrum(op: PolySpaceOperator) -> np.ndarray:
    """Eigenvalues of the capped restriction, sorted by (Re, Im).

    Only meaningful when `op.leak` vanishes; a leaking restriction is not
    similar to any sub-block of the full operator, so this refuses.
    """
    if op.leak > 1e-12:
        raise ValidationError(
            f"caps {op.caps} leak (magnitude {op.leak:.3e}); the restriction "
            "spectrum would be an artifact"
        )
    w = eig_checked(op.matrix)[0]  # dense: polyrep-check prints the deviation's digits
    w = np.where(np.abs(w.imag) < 1e-12 * np.maximum(1.0, np.abs(w)), w.real, w)
    return w[np.lexsort((w.imag, w.real))]
