"""Series solution of the dressed mixed-exchange model by block recurrence.

The ansatz psi = (sum_j p_j(E)|j>, sum_j q_j(E)|j+2>)^t turns the
eigenequation into a two-term block recurrence for polynomial pairs in E.
At the invariant-subspace size n = n_qes it ends in a scalar consistency
condition, the *critical polynomial*, whose roots are algebraic eigenvalues
at which the series truncates onto the invariant subspace
(`run_to_critical` spells out the steps).

Scaling.  The raw coefficients carry square roots of factorials.  With

    p_j = sqrt(j!) pt_j        q_j = sqrt((j+2)!) qt_j

the recurrence closes over the rationals:

    (hw j + eps/2 - E) pt_j + rho (j+1)(j+2) qt_j
                            + c (j+1-n)(j+1) qt_{j-1} = 0        (upper |j>)
    (hw (j+2) - eps/2 - E) qt_j + phi rho pt_j
                            + c_hat (j+2-n) pt_{j+1} = 0         (lower |j+2>)

so all polynomials here are exact and the critical polynomial's roots carry
no recurrence noise.  Arithmetic is fraction-free: an `EnergyPolynomial`
holds Python-int numerators over one common denominator, and the Newton
polish evaluates by Horner in scaled integers at float (dyadic) iterates.
The stored polynomials are the rescaled pt_j, qt_j; `p_value`/`q_value`
restore the factorial scaling.

`run_to_critical` builds the series in one pass; it divides by rho and by
c_hat (j+2-n), so the rho = 0 and c_hat = 0 limits, which decouple into 2x2
chains, are read from one chain table instead (`_chain_limit`, which also
decides whether a limit applies).

Consecutive calls for one parameter set share their work: `run_to_critical`
keeps the last exact series it built, keyed on the parameters (which hold
phi, k and n_qes as int, so phi = 1.0 shares phi = 1's exact series), and
the residual gate keeps the last invariant subspace (`gate_subspace`: the
full-space matrix and the rows of it that a reconstructed vector reaches),
keyed on the parameters and the space.  So `critical_roots` and the
reconstructions of all its roots build one series and one matrix.  Each
cache holds one entry because the calls for one parameter set arrive back
to back; more entries would only serve a return to an earlier parameter
set, and would hold more memory for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import residual_on_rows
from .errors import NumericalError, ValidationError
from .fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from .models import InvariantSubspace, ModelParams, invariant_subspace

ROOT_IMAG_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


# ---------------------------------------------------------------------------
# exact polynomials in the energy variable


@dataclass(frozen=True)
class EnergyPolynomial:
    """Dense polynomial in E with exact rational coefficients, ascending.

    Held fraction-free: integer `numerators` over one positive common
    `denominator`, with no factor shared by all of them and no trailing
    zero, so equal polynomials have equal fields.  Build through
    `from_coefficients` (or the other constructors), which normalize.
    """

    numerators: tuple[int, ...]
    denominator: int = 1

    @staticmethod
    def _make(nums, den: int) -> "EnergyPolynomial":
        """Normalize: strip trailing zeros, make den positive, remove the content."""
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            return EnergyPolynomial(())
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        return EnergyPolynomial(tuple(nums), den)

    @staticmethod
    def from_coefficients(coeffs) -> "EnergyPolynomial":
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return EnergyPolynomial._make([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def zero() -> "EnergyPolynomial":
        return EnergyPolynomial(())

    @staticmethod
    def constant(value) -> "EnergyPolynomial":
        return EnergyPolynomial.from_coefficients([value])

    @staticmethod
    def linear(a0, a1) -> "EnergyPolynomial":
        """a0 + a1 E."""
        return EnergyPolynomial.from_coefficients([a0, a1])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @functools.cached_property
    def _floats(self) -> tuple[float, ...]:
        # int true division rounds correctly, exactly as Fraction.__float__
        try:
            return tuple(c / self.denominator for c in self.numerators)
        except OverflowError:
            raise NumericalError(
                "an exact coefficient lies beyond the float range (|x| > 1.8e308)"
            ) from None

    @property
    def degree(self) -> float:
        return len(self.numerators) - 1 if self.numerators else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def _combine(self, other: "EnergyPolynomial", sign: int) -> "EnergyPolynomial":
        """self + sign * other over the least common denominator."""
        g = math.gcd(self.denominator, other.denominator)
        fa, fb = other.denominator // g, sign * (self.denominator // g)
        a, b = self.numerators, other.numerators
        out = [c * fa for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c * fb
        return EnergyPolynomial._make(out, self.denominator * fa)

    def __add__(self, other: "EnergyPolynomial") -> "EnergyPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "EnergyPolynomial") -> "EnergyPolynomial":
        return self._combine(other, -1)

    def scale(self, factor) -> "EnergyPolynomial":
        f = Fraction(factor)
        return EnergyPolynomial._make(
            [f.numerator * c for c in self.numerators], f.denominator * self.denominator
        )

    def __mul__(self, other: "EnergyPolynomial") -> "EnergyPolynomial":
        if self.is_zero or other.is_zero:
            return EnergyPolynomial.zero()
        out = [0] * (len(self.numerators) + len(other.numerators) - 1)
        for i, a in enumerate(self.numerators):
            for j, b in enumerate(other.numerators):
                out[i + j] += a * b
        return EnergyPolynomial._make(out, self.denominator * other.denominator)

    def divmod_exact(self, other: "EnergyPolynomial"):
        """Exact polynomial division: self = quotient * other + remainder.

        Integer pseudo-division: the dividend's numerators are multiplied
        by lead**e up front (e quotient terms, lead the divisor's top
        numerator), after which every quotient digit divides exactly.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        div = other.numerators
        e = len(self.numerators) - len(div) + 1
        if e <= 0:
            return EnergyPolynomial.zero(), self
        lead = div[-1]
        rem = [c * lead**e for c in self.numerators]
        quot = [0] * e
        for k in range(e - 1, -1, -1):
            factor = rem[k + len(div) - 1] // lead
            quot[k] = factor
            for i, c in enumerate(div):
                rem[k + i] -= factor * c
        # self = rem_num / (lead**e den_a),  other = div / den_b
        den = self.denominator * lead**e
        return (
            EnergyPolynomial._make([q * other.denominator for q in quot], den),
            EnergyPolynomial._make(rem[: len(div) - 1], den),
        )

    def derivative(self) -> "EnergyPolynomial":
        return EnergyPolynomial._make(
            [i * c for i, c in enumerate(self.numerators)][1:], self.denominator
        )

    def eval_exact(self, value) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        x = Fraction(value)
        p, q = x.numerator, x.denominator
        # homogeneous Horner: q**deg * poly(p/q) over the integers
        acc, qpow = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self.denominator * (qpow // q))

    def __call__(self, value):
        """Horner evaluation through floats (accepts complex)."""
        acc = 0.0
        for c in reversed(self._floats):
            acc = acc * value + c
        return acc

    def float_coefficients(self) -> np.ndarray:
        return np.array(self._floats)


# ---------------------------------------------------------------------------
# recurrence state


def _rational_params(params: ModelParams):
    """Exact rational images of the couplings.

    The theta-derived couplings are built as -Fraction(theta)/n rather than
    by converting the float quotient, so the recurrence matches the
    mathematical -theta/n exactly instead of its rounded double.  Callers
    reach `params.big_n` first, which refuses parameters without n_qes.
    """
    derived = -Fraction(params.theta) / params.n_qes
    c = Fraction(params.c) if params.c is not None else derived
    c_hat = Fraction(params.c_hat) if params.c_hat is not None else derived
    return Fraction(params.hbar_omega), Fraction(params.epsilon), Fraction(params.rho), c, c_hat


@dataclass(frozen=True)
class SeriesState:
    """The rescaled polynomial pairs up to the singular step.

    `p[j + 1]` holds pt_j for j = -1 .. n - 2 (pt_{-1} is identically zero)
    and `q[j + 2]` holds qt_j for j = -2 .. n - 2; `critical` is the
    consistency polynomial of the singular step.
    """

    n: int
    p: tuple[EnergyPolynomial, ...]
    q: tuple[EnergyPolynomial, ...]
    critical: EnergyPolynomial

    def p_poly(self, j: int) -> EnergyPolynomial:
        return self.p[j + 1]

    def q_poly(self, j: int) -> EnergyPolynomial:
        return self.q[j + 2]

    def p_value(self, j: int, energy: float) -> float:
        """Unrescaled coefficient p_j(E) = sqrt(j!) pt_j(E)."""
        return math.sqrt(math.factorial(j)) * self.p_poly(j)(energy)

    def q_value(self, j: int, energy: float) -> float:
        """Unrescaled coefficient q_j(E) = sqrt((j+2)!) qt_j(E)."""
        return math.sqrt(math.factorial(j + 2)) * self.q_poly(j)(energy)


@functools.lru_cache(maxsize=1)
def run_to_critical(params: ModelParams) -> SeriesState:
    """Build the series from qt_{-2} = 0, qt_{-1} = 1 up to the critical
    polynomial (generic couplings only).

    Each step j = -1 .. n - 3 solves the lower |j+2> equation for pt_{j+1},
    then the upper |j+1> equation for qt_{j+1}, exactly over the rationals.
    At j = n - 2 the lower |n> equation loses its pt_{n-1} term, leaving the
    scalar consistency condition

        C(E) = (E - hw n + eps/2) qt_{n-2}(E) - phi rho pt_{n-2}(E) = 0,

    the critical polynomial.  p_{n-1} is a free choice; taking it zero
    forces qt_{n-1} = 0 as well (the upper |n-1> equation has its qt_{n-2}
    coupling annihilated by the same (j + 1 - n) factor), so at any root of
    C every later coefficient vanishes and the series truncates.  The
    returned state is shared by every caller with equal parameters.
    """
    n = params.big_n + 2
    hw, eps, rho, c, c_hat = _rational_params(params)
    if rho == 0 or c_hat == 0:
        raise ValidationError(
            "generic stepping needs rho != 0 and c_hat != 0; use "
            "critical_polynomial, which handles the decoupled limits"
        )
    phi_rho = params.phi * rho
    p = [EnergyPolynomial.zero()]
    q = [EnergyPolynomial.zero(), EnergyPolynomial.constant(1)]
    for j in range(-1, n - 2):
        pt_j, qt_j = p[-1], q[-1]
        # lower |j+2>:  pt_{j+1} = [(E - hw (j+2) + eps/2) qt_j - phi rho pt_j]
        #                          / (c_hat (j + 2 - n))
        # (the divisor goes into the short factors: one pass less over the long ones)
        s = 1 / (c_hat * (j + 2 - n))
        lead = EnergyPolynomial.linear((-hw * (j + 2) + eps / 2) * s, s)
        p.append(lead * qt_j - pt_j.scale(phi_rho * s))
        # upper |j+1>:  qt_{j+1} = [(E - hw (j+1) - eps/2) pt_{j+1}
        #                           - c (j + 2 - n)(j + 2) qt_j] / (rho (j+2)(j+3))
        s = 1 / (rho * (j + 2) * (j + 3))
        lead = EnergyPolynomial.linear((-hw * (j + 1) - eps / 2) * s, s)
        q.append(lead * p[-1] - qt_j.scale(c * (j + 2 - n) * (j + 2) * s))
    critical = EnergyPolynomial.linear(-hw * n + eps / 2, 1) * q[-1] - p[-1].scale(phi_rho)
    return SeriesState(n, tuple(p), tuple(q), critical)


# ---------------------------------------------------------------------------
# critical polynomial, including decoupled limits


def _chain_limit(params: ModelParams, exact: bool):
    """Seeded level and 2x2 chain blocks of a decoupled limit, or None.

    None means neither rho = 0 nor c_hat = 0 holds, read off the float
    parameters exactly: Fraction(x) is zero just where x is, and the derived
    c_hat = -theta/n just where theta is (its float can underflow to -0.0).
    Returns ((level, down photon), blocks), each block (up photon, down
    photon, up diag, down diag, B C, b, c, m) for the chain block
    [[up diag, B], [C, down diag]] with B = b sqrt(m) and C = c sqrt(m).
    Both limits at once leave only the seeded level.  The values are exact
    rationals if `exact`, else floats of the same expressions on the float
    couplings the matrix is built from.
    """
    n, phi = params.big_n + 2, params.phi
    no_rho = params.rho == 0
    no_c_hat = params.theta == 0 if params.c_hat is None else params.c_hat == 0
    if not (no_rho or no_c_hat):
        return None
    if exact:
        hw, eps, rho, c, c_hat = _rational_params(params)
    else:
        hw, eps, rho = params.hbar_omega, params.epsilon, params.rho
        c, c_hat = params.qes_couplings()
    if no_rho and no_c_hat:
        return (hw - eps / 2, 1), []
    if no_rho:
        # the decoupled top of the lower tower is the seeded level
        return (hw * n - eps / 2, n), [
            (j + 1, j + 2, hw * (j + 1) + eps / 2, hw * (j + 2) - eps / 2,
             c * c_hat * (j + 2 - n) ** 2 * (j + 2), c * (j + 2 - n), c_hat * (j + 2 - n), j + 2)
            for j in range(-1, n - 2)
        ]
    if not exact and c != 0.0:
        raise ValidationError(
            "reconstruction with c_hat = 0 but c != 0 is not supported (the "
            "chains couple triangularly); override both couplings or none"
        )
    return (hw - eps / 2, 1), [
        (j, j + 2, hw * j + eps / 2, hw * (j + 2) - eps / 2,
         phi * rho**2 * (j + 1) * (j + 2), rho, phi * rho, (j + 1) * (j + 2))
        for j in range(n - 1)
    ]


def critical_polynomial(params: ModelParams) -> EnergyPolynomial:
    """Scalar consistency polynomial whose roots truncate the series.

    Generic rho, c_hat: degree 2n - 1 from the block recurrence.  In the
    decoupled limits the recurrence splits into the 2x2 chains of
    `_chain_limit` and the consistency condition becomes the product of
    their determinants,

        (E - level) prod_blocks [(E - up diag)(E - down diag) - B C],

    which keeps degree 2n - 1 except in the doubly decoupled limit, where
    only the seeded level survives.  The series ansatz starts from the
    |1, down> coefficient, so the decoupled |0, down> level at -eps/2 is
    never a root: root sets are a subset of the algebraic spectrum, one
    level short.
    """
    limit = _chain_limit(params, exact=True)
    if limit is None:
        return run_to_critical(params).critical
    (level, _), blocks = limit
    poly = EnergyPolynomial.linear(-level, 1)
    for _, _, up_diag, down_diag, bc, *_ in blocks:
        poly = poly * EnergyPolynomial.from_coefficients(
            [up_diag * down_diag - bc, -(up_diag + down_diag), 1]
        )
    return poly


def _dyadic(re: float, im: float):
    """Integers (x_re, x_im, k) with re + i im = (x_re + i x_im) / 2**k."""
    (a, s), (b, t) = re.as_integer_ratio(), im.as_integer_ratio()
    k = max(s, t).bit_length() - 1
    return a << (k - s.bit_length() + 1), b << (k - t.bit_length() + 1), k


def _eval_exact_complex(poly: EnergyPolynomial, x_re: int, x_im: int, k: int):
    """Exact Horner at the dyadic point (x_re + i x_im) / 2**k.

    Returns integers (f_re, f_im, den), den > 0, with poly = (f_re + i f_im)
    / den there: the numerators are run through Horner homogeneously, the
    j-th from the top carrying 2**(k j) in place of the point's denominator.
    """
    acc_re = acc_im = shift = 0
    for c in reversed(poly.numerators):
        acc_re, acc_im = acc_re * x_re - acc_im * x_im + (c << shift), acc_re * x_im + acc_im * x_re
        shift += k
    return acc_re, acc_im, poly.denominator << max(shift - k, 0)


def _newton_step(poly: EnergyPolynomial, deriv: EnergyPolynomial, re: float, im: float):
    """poly / deriv at the float point re + i im, each part the correctly
    rounded float of the exact ratio (one int true division); None where
    poly or deriv vanishes exactly."""
    x_re, x_im, k = _dyadic(re, im)
    f_re, f_im, f_den = _eval_exact_complex(poly, x_re, x_im, k)
    if f_re == 0 and f_im == 0:
        return None
    d_re, d_im, d_den = _eval_exact_complex(deriv, x_re, x_im, k)
    norm = d_re * d_re + d_im * d_im
    if norm == 0:
        return None
    # (f_re + i f_im) conj(d) d_den / (|d|^2 f_den)
    denom = norm * f_den
    return complex(
        (f_re * d_re + f_im * d_im) * d_den / denom,
        (f_im * d_re - f_re * d_im) * d_den / denom,
    )


def _newton_exact(poly: EnergyPolynomial, deriv: EnergyPolynomial, seed: complex):
    """Polish one root by Newton iteration with exact polynomial evaluation.

    The iterate is re-rounded to a float (pair) each step, so it stays
    dyadic and the evaluation runs on integers while carrying no rounding
    noise -- float-Horner evaluation noise would otherwise floor the root
    error near 1e-9 once coefficients reach ~1e4.  At an m-fold root plain
    Newton only converges linearly with ratio (m-1)/m, so once the step
    ratio settles the remaining geometric tail is summed in one extrapolated
    jump.
    """
    # + 0.0 turns a -0.0 seed into 0.0, so a root at zero comes back as +0.0
    # (the pinned root bits); x - step is never -0.0 once x is not
    re, im = float(seed.real) + 0.0, float(seed.imag) + 0.0
    prev_step = None
    prev_ratio = None
    # The cap ends the polish silently on purpose: at weak coupling some
    # roots of a defective cluster use all 80 iterations (N=10, phi=-1,
    # rho=0.05, theta=0.4 has four), and raising would drop the whole
    # spectrum instead of returning the best iterate.
    for _ in range(80):
        step = _newton_step(poly, deriv, re, im)
        if step is None:
            break
        if prev_step not in (None, 0) and abs(step) > 0:
            ratio = step / prev_step
            if (
                prev_ratio is not None
                and 0.2 < abs(ratio) < 0.99
                and abs(ratio - prev_ratio) < 0.02 * abs(ratio)
            ):
                step = step / (1 - ratio)
                prev_step, prev_ratio = None, None
            else:
                prev_step, prev_ratio = step, ratio
        else:
            prev_step, prev_ratio = step, None
        nxt_re = re - step.real
        nxt_im = im - step.imag
        if nxt_re == re and nxt_im == im:
            break
        re, im = nxt_re, nxt_im
    return complex(re, im)


def critical_roots(params: ModelParams) -> np.ndarray:
    """All roots of the critical polynomial (complex), sorted by (Re, Im).

    Companion-matrix eigenvalues seed the roots; each is then polished by
    exact-arithmetic Newton so the returned values are accurate to the last
    float digit and reconstruction residuals are not limited by root error.
    """
    poly = critical_polynomial(params)
    if poly.is_zero:
        raise NumericalError("zero critical polynomial: every E would truncate")
    if poly.degree == 0:
        return np.array([])
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, as an error
            roots = np.roots(poly.float_coefficients()[::-1])
    except np.linalg.LinAlgError:
        raise NumericalError(
            "companion matrix of the critical polynomial leaves the float range "
            "(coefficient ratios beyond 1.8e308)"
        ) from None
    deriv = poly.derivative()
    polished = []
    for r in roots:
        x = _newton_exact(poly, deriv, complex(r))
        if abs(x.imag) < ROOT_IMAG_TOL * max(1.0, abs(x)):
            x = complex(x.real)
        polished.append(x)
    out = np.array(polished)
    return out[np.lexsort((out.imag, out.real))]


def _residual_scale(poly: EnergyPolynomial, value: complex) -> float:
    """Sum |c_i| |E|^i -- the natural backward-error scale for |poly(E)|."""
    mag = abs(value)
    acc = 0.0
    for c in reversed(poly._floats):
        acc = acc * mag + abs(c)
    return max(acc, 1.0)


# ---------------------------------------------------------------------------
# eigenvector reconstruction


def _vector_dtype(energy: complex):
    return complex if complex(energy).imag != 0.0 else float


def _truncated_vector_generic(
    state: SeriesState, energy: complex, space: TruncatedFockSpace
) -> np.ndarray:
    n = state.n
    psi = np.zeros(space.dim, dtype=_vector_dtype(energy))
    for j in range(0, n - 1):
        psi[basis_index(space, j, SPIN_UP)] = state.p_value(j, energy)
    for j in range(-1, n - 1):
        psi[basis_index(space, j + 2, SPIN_DOWN)] = state.q_value(j, energy)
    return psi


def _chain_vector(limit, energy: complex, space: TruncatedFockSpace) -> np.ndarray:
    """Eigenvector of the seeded level, or of the chain block nearest `energy`."""
    (level, photon), blocks = limit
    psi = np.zeros(space.dim, dtype=_vector_dtype(energy))
    if not blocks or abs(energy - level) < 1e-8:
        psi[basis_index(space, photon, SPIN_DOWN)] = 1.0
        return psi
    up, down, up_diag, down_diag, _, b, c, m = min(
        blocks, key=lambda blk: abs((energy - blk[2]) * (energy - blk[3]) - blk[4])
    )
    b, c = b * math.sqrt(m), c * math.sqrt(m)
    # eigenvector (B, E - up), falling back to (E - down, C) when that degenerates
    pair = (
        (b, energy - up_diag)
        if max(abs(b), abs(energy - up_diag)) > 1e-12
        else (energy - down_diag, c)
    )
    psi[basis_index(space, up, SPIN_UP)] = pair[0]
    psi[basis_index(space, down, SPIN_DOWN)] = pair[1]
    return psi


@functools.lru_cache(maxsize=1)
def gate_subspace(params: ModelParams, space: TruncatedFockSpace) -> InvariantSubspace:
    """The invariant subspace whose full matrix the residual gate reads.

    Its span, up |0..n-2> and down |0..n>, is the support of every
    reconstructed vector, and its read-only `rows` the rows that support
    reaches; shared across calls, no caller can alter what a later gate reads.
    """
    return invariant_subspace(params, space)


def gate_residual(
    params: ModelParams, space: TruncatedFockSpace, energy, vector: np.ndarray
) -> np.ndarray:
    """H v - E v on the gate matrix, computed on the rows a reconstructed
    vector reaches; equal to the dense product bit for bit
    (`_linalg.residual_on_rows`)."""
    sub = gate_subspace(params, space)
    return residual_on_rows(sub.matrix, vector, energy, sub.indices, sub.rows)


def reconstruct_eigenvector(
    params: ModelParams, energy: complex, space: TruncatedFockSpace
) -> np.ndarray:
    """Assemble the truncated series at a critical root and certify it.

    Returns the unit-normalized full-space vector (complex when the root
    is).  Refuses when `energy` is not a root (the series would not
    truncate) and reports the leaking frontier component when certification
    fails.  At generic couplings the critical polynomial comes from the
    same exact series the vector is read from.
    """
    energy = complex(energy)
    if energy.imag == 0.0:
        energy = energy.real
    limit = _chain_limit(params, exact=False)
    if limit is None:
        state = run_to_critical(params)
        poly = state.critical
        psi = _truncated_vector_generic(state, energy, space)
    else:
        poly = critical_polynomial(params)
        psi = _chain_vector(limit, energy, space)
    if abs(poly(energy)) > 1e-8 * _residual_scale(poly, energy):
        raise ValidationError(
            f"E = {energy} is not a truncation root: the critical polynomial "
            f"evaluates to {poly(energy):.3e}, so post-frontier coefficients "
            "stay nonzero"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as an error
        norm = float(np.linalg.norm(psi))
        if norm == 0.0:
            raise NumericalError("series collapsed to the zero vector")
        residual = gate_residual(params, space, energy, psi)
        rel = float(np.linalg.norm(residual) / norm)
    if not (math.isfinite(norm) and math.isfinite(rel)):
        # an infinite norm makes rel 0 or nan, and psi / norm the zero vector
        raise NumericalError(
            "reconstruction gate cannot be checked outside the float range "
            f"(1.8e308): ||psi|| = {norm:.3e}, relative residual {rel:.3e}"
        )
    if rel > RECONSTRUCTION_TOL:
        worst = int(np.argmax(np.abs(residual)))
        photon = worst % space.cutoff
        sector = "upper" if worst < space.cutoff else "lower"
        raise NumericalError(
            f"reconstruction residual {rel:.3e} exceeds {RECONSTRUCTION_TOL:.1e}; "
            f"largest leak on the {sector} |{photon}> component"
        )
    return psi / norm

