"""Hamiltonian builders for the extended Jaynes-Cummings family.

All models share the diagonal part (eps/2) sigma3 + hbar_omega * n_hat and
differ in the photon-exchange blocks.  In the frozen spin-major ordering the
generic member is the block matrix

    [[ hw*n_hat + P(n_hat) + eps/2,   rho * a^k                  ],
     [ phi * rho * adag^k,            hw*n_hat + P(n_hat) - eps/2 ]]

with phi = +1 giving a hermitian matrix and phi = -1 the sign-flipped
(pseudo-hermitian) coupling.  The quasi-exactly-solvable variant `build_ht`
adds degree-one exchange terms c * a (n_hat - n) and c_hat * (n_hat - n) adag
whose (n_hat - n) factor closes a finite invariant subspace when
n = n_qes = N + 2.

Every exchange term moves |n, up> onto |n+j, down> with j <= k, so each
builder states only its diagonal and one pair of bands per photon offset j;
`_assemble` writes them into the dense matrix.

`invariant_subspace` is the one place that knows which states span the
dressed model's closed subspace: the QES route diagonalizes it and the
recurrence route certifies its reconstructed vectors on it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._linalg import reached_rows
from .errors import ValidationError
from .fock import SPIN_DOWN, SPIN_UP, SpinFockOperator, TruncatedFockSpace, basis_index


@dataclass(frozen=True)
class ModelParams:
    """Parameter set shared by every model builder.

    Attributes
    ----------
    epsilon:
        Spin level splitting (the sigma3 coefficient is epsilon / 2).
    hbar_omega:
        Oscillator quantum.
    rho:
        k-photon exchange strength.
    phi:
        Sign of the lower-left exchange block; must be +1 or -1.
    k:
        Photon transfer order of the exchange terms (a^k against adag^k).
    poly:
        Ascending coefficients of the diagonal polynomial P applied to the
        number operator.  Empty means P = 0; a nonempty P must have
        degree >= 2 (lower degrees are absorbed by hbar_omega / epsilon).
    theta:
        Convenience coupling for the quasi-exactly-solvable family: unless
        c / c_hat are given explicitly, c = c_hat = -theta / n_qes and the
        one-photon strengths of the non-solvable variant are rho1 = theta.
    n_qes:
        Subspace closure integer n = N + 2 for the solvable variant.
    c, c_hat:
        Explicit mixed-coupling strengths, overriding the theta convention.
    rho1, rho1_hat:
        Explicit one-photon strengths for `build_h12`, overriding theta.
    """

    epsilon: float = 1.0
    hbar_omega: float = 1.0
    rho: float = 0.0
    phi: int = 1
    k: int = 1
    poly: tuple[float, ...] = ()
    theta: float = 0.0
    n_qes: int | None = None
    c: float | None = None
    c_hat: float | None = None
    rho1: float | None = None
    rho1_hat: float | None = None

    def __post_init__(self):
        # a list would leave the params unhashable and unequal to the tuple form
        object.__setattr__(self, "poly", tuple(self.poly))
        # held as int, so phi = 1.0 is phi = 1 everywhere, exact series included
        for name in ("phi", "k", "n_qes"):
            value = getattr(self, name)
            if value is None:
                continue
            try:
                integral = value == int(value)
            except (TypeError, ValueError, OverflowError):  # int(nan), int(inf), int("x")
                integral = False
            if not integral:
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("epsilon", "hbar_omega", "rho", "theta", "c", "c_hat", "rho1", "rho1_hat"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(coef) for coef in self.poly):
            raise ValidationError(f"poly coefficients must be finite, got {self.poly}")
        if self.phi not in (-1, 1):
            raise ValidationError(f"phi must be +1 or -1, got {self.phi}")
        if self.k < 1:
            raise ValidationError(f"photon transfer order k must be >= 1, got {self.k}")
        if self.poly and _poly_degree(self.poly) < 2:
            raise ValidationError(
                "diagonal polynomial must have degree >= 2 "
                f"(got coefficients {self.poly}); fold lower orders into "
                "hbar_omega and epsilon instead"
            )
        if self.n_qes is not None and self.n_qes < 2:
            raise ValidationError(f"n_qes must be >= 2, got {self.n_qes}")

    @property
    def big_n(self) -> int:
        """Subspace label N = n_qes - 2."""
        if self.n_qes is None:
            raise ValidationError("n_qes is not set on these parameters")
        return self.n_qes - 2

    def qes_couplings(self, theta=None) -> tuple[float, float]:
        """Effective (c, c_hat), defaulting to -theta / n_qes, elementwise for a `theta` array."""
        if self.c is None or self.c_hat is None:
            derived = -(self.theta if theta is None else theta) / (self.big_n + 2)
        c = self.c if self.c is not None else derived
        c_hat = self.c_hat if self.c_hat is not None else derived
        return c, c_hat

    def exact_qes_params(self) -> tuple[Fraction, ...]:
        """(hbar_omega, epsilon, rho, c, c_hat) as exact rationals, for every
        exact route.

        The theta-derived default is built as -Fraction(theta)/n_qes rather
        than by converting the float quotient, so exact routes match the
        mathematical -theta/n_qes instead of its rounded double.
        """
        derived = -Fraction(self.theta) / (self.big_n + 2)
        c = Fraction(self.c) if self.c is not None else derived
        c_hat = Fraction(self.c_hat) if self.c_hat is not None else derived
        return Fraction(self.hbar_omega), Fraction(self.epsilon), Fraction(self.rho), c, c_hat

    def one_photon_couplings(self) -> tuple[float, float]:
        """Effective (rho1, rho1_hat) for the non-solvable mixed model."""
        rho1 = self.rho1 if self.rho1 is not None else self.theta
        rho1_hat = self.rho1_hat if self.rho1_hat is not None else self.theta
        return rho1, rho1_hat


def _poly_degree(coeffs: tuple[float, ...]) -> int:
    degree = -1
    for i, coef in enumerate(coeffs):
        if coef != 0.0:
            degree = i
    return degree


def poly_value(params: ModelParams, n: float) -> float:
    """Scalar P(n)."""
    if not params.poly:
        return 0.0
    return float(npoly.polyval(n, params.poly))


def _check_guard(space: TruncatedFockSpace, transfer: int, model: str) -> None:
    if space.guard < transfer + 2:
        raise ValidationError(
            f"{model} moves up to {transfer} quanta; guard band must be >= "
            f"{transfer + 2}, got {space.guard}"
        )
    if space.cutoff <= transfer + space.guard:
        raise ValidationError(
            f"cutoff {space.cutoff} too small for transfer order {transfer} "
            f"with guard {space.guard}"
        )


def _lowering_band(cutoff: int, k: int) -> np.ndarray:
    """Band <n|a^k|n+k>, n = 0 .. cutoff-1-k, of the truncated a^k.

    The factors multiply in the order of numpy's dense matrix power (left
    to right for k = 3, binary squaring otherwise), so each entry has the
    bits of the dense product.
    """

    def times(x, y):  # band product: offsets add, entry n is x[n] * y[n + offset of x]
        offset = cutoff - x.size
        return x[: y.size - offset] * y[offset:]

    a = np.sqrt(np.arange(1.0, cutoff))
    if k == 3:
        return times(times(a, a), a)
    band = power = None
    while k:
        power = a if power is None else times(power, power)
        k, bit = divmod(k, 2)
        if bit:
            band = power if band is None else times(band, power)
    return band


def _assemble(
    params: ModelParams, space: TruncatedFockSpace, bands: dict, poly: tuple[float, ...] = ()
) -> SpinFockOperator:
    """H with diagonal hw*n + P(n) +- eps/2 on |n, up/down> and the given bands.

    `bands` maps a photon offset j to the pair (<n, up|H|n+j, down>,
    <n+j, down|H|n, up>) over n = 0 .. D-1-j; every other entry is zero.
    """
    d = space.cutoff
    n = np.arange(d, dtype=float)
    photon = params.hbar_omega * n
    if poly:
        photon = photon + npoly.polyval(n, poly)
    half = 0.5 * params.epsilon
    h = np.zeros((space.dim, space.dim))
    np.fill_diagonal(h, np.concatenate([photon + half, photon - half]))
    for j, (upper, lower) in bands.items():
        np.fill_diagonal(h[:d, d + j :], upper)
        np.fill_diagonal(h[d + j :, :d], lower)
    return SpinFockOperator(h, space)


def build_extended(params: ModelParams, space: TruncatedFockSpace) -> SpinFockOperator:
    """k-photon exchange model with optional diagonal polynomial.

    Every two-dimensional subspace span{|n, up>, |n+k, down>} is invariant,
    which is what makes the full spectrum available in closed form.
    """
    _check_guard(space, params.k, "extended model")
    a_k = _lowering_band(space.cutoff, params.k)
    bands = {params.k: (params.rho * a_k, params.phi * params.rho * a_k)}
    return _assemble(params, space, bands, poly=params.poly)


def build_jcm(params: ModelParams, space: TruncatedFockSpace) -> SpinFockOperator:
    """One-photon Jaynes-Cummings matrix (hermitian; phi forced to +1)."""
    return build_extended(dataclasses.replace(params, phi=1, k=1, poly=()), space)


def build_pseudo_jcm(params: ModelParams, space: TruncatedFockSpace) -> SpinFockOperator:
    """One-photon exchange with antisymmetric coupling rho(sp a - sm adag).

    Equal to the k = 1, phi = -1, P = 0 member of the extended family: not
    hermitian, but conjugation by sigma3 maps it to its adjoint, so the
    spectrum is real wherever the doublet discriminants stay positive.
    """
    return build_extended(dataclasses.replace(params, phi=-1, k=1, poly=()), space)


def build_h12(params: ModelParams, space: TruncatedFockSpace) -> SpinFockOperator:
    """Mixed one- and two-photon exchange without the subspace-closing terms.

    Off-diagonal blocks are rho a^2 + rho1 a (upper) against
    phi rho adag^2 + rho1_hat adag (lower).  No finite set of contiguous
    Fock states is invariant when rho and the one-photon strengths are both
    nonzero: the two-photon ladder wants the lower range two states longer,
    the bare one-photon term wants it at most one state longer.
    """
    _check_guard(space, 2, "mixed-exchange model")
    rho1, rho1_hat = params.one_photon_couplings()
    a = _lowering_band(space.cutoff, 1)
    a2 = _lowering_band(space.cutoff, 2)
    bands = {1: (rho1 * a, rho1_hat * a), 2: (params.rho * a2, params.phi * params.rho * a2)}
    return _assemble(params, space, bands)


def build_ht(params: ModelParams, space: TruncatedFockSpace) -> SpinFockOperator:
    """Mixed exchange repaired to close a finite invariant subspace.

    The one-photon terms are dressed with (n_hat - n):

        upper-right  rho a^2 + c * a (n_hat - n)
        lower-left   phi rho adag^2 + c_hat * (n_hat - n) adag

    With n = n_qes = N + 2 the dressing zeroes exactly the matrix element
    that would leak |n, down> onto |n-1, up>, so the span of
    {|0..N, up>} + {|0..N+2, down>} is invariant for any rho, c, c_hat.
    """
    _check_guard(space, 2, "subspace-closed model")
    if space.cutoff <= params.big_n + 4 + space.guard:
        raise ValidationError(
            f"cutoff {space.cutoff} too small: need > N + 4 + guard = "
            f"{params.big_n + 4 + space.guard}"
        )
    c, c_hat = params.qes_couplings()
    # <m|a (n_hat - n)|m+1> = <m+1|(n_hat - n) adag|m> = sqrt(m+1) (m+1 - n)
    dressed = _lowering_band(space.cutoff, 1) * (np.arange(1.0, space.cutoff) - params.n_qes)
    a2 = _lowering_band(space.cutoff, 2)
    bands = {1: (c * dressed, c_hat * dressed), 2: (params.rho * a2, params.phi * params.rho * a2)}
    return _assemble(params, space, bands)


@dataclass(frozen=True)
class InvariantSubspace:
    """Basis bookkeeping for one closed subspace.

    upper_indices / lower_indices are positions in the full spin-major
    basis; the subspace ordering is all upper states (photon ascending)
    followed by all lower states.  `matrix` is the full matrix of the
    generating model `params` on `space`, `defect` its certified leak
    max |<out| H |in>|, and `rows` the rows of `matrix` that the subspace
    reaches (`_linalg.reached_rows`), on which its eigenpairs are certified.
    """

    params: ModelParams
    space: TruncatedFockSpace
    upper_indices: tuple[int, ...]
    lower_indices: tuple[int, ...]
    defect: float
    matrix: np.ndarray = field(compare=False, repr=False)
    rows: np.ndarray = field(compare=False, repr=False)

    @property
    def big_n(self) -> int:
        return self.params.big_n

    @property
    def n(self) -> int:
        return self.big_n + 2

    @property
    def dim(self) -> int:
        return 2 * self.big_n + 4

    @property
    def indices(self) -> tuple[int, ...]:
        return self.upper_indices + self.lower_indices


def _leak(columns: np.ndarray, indices: tuple[int, ...]) -> float:
    """Largest |entry| of H[:, indices] (`columns`) off the rows `indices`."""
    outside = np.ones(columns.shape[0], dtype=bool)
    outside[list(indices)] = False
    leak = columns[outside]
    return float(np.max(np.abs(leak))) if leak.size else 0.0


def invariance_defect(h_matrix: np.ndarray, indices: tuple[int, ...]) -> float:
    """Largest matrix element leaking out of span{indices}."""
    return _leak(h_matrix[:, list(indices)], indices)


def invariant_subspace(params: ModelParams, space: TruncatedFockSpace) -> InvariantSubspace:
    """span{|0..N, up>, |0..N+2, down>} of `build_ht` on `space`, with its leak.

    One build, and one read of the subspace's columns for both the leak and
    the rows they reach.  The matrix and rows are read-only, so `rows` stays
    the rows `matrix` reaches.  `build_ht` rejects a cutoff too small for N
    and the guard band.
    """
    h = build_ht(params, space).matrix
    upper = tuple(basis_index(space, j, SPIN_UP) for j in range(params.big_n + 1))
    lower = tuple(basis_index(space, m, SPIN_DOWN) for m in range(params.big_n + 3))
    columns = h[:, list(upper + lower)]
    defect, rows = _leak(columns, upper + lower), reached_rows(columns, upper + lower)
    for array in (h, rows):
        array.setflags(write=False)
    return InvariantSubspace(params, space, upper, lower, defect, h, rows)
