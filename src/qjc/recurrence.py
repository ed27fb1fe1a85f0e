"""Series solution of the dressed mixed-exchange model by block recurrence.

The ansatz psi = (sum_j p_j(E)|j>, sum_j q_j(E)|j+2>)^t turns the
eigenequation into a two-term block recurrence for polynomial pairs in E.
The solve for p_{n-1} is singular exactly at the invariant-subspace size
n = n_qes; the scalar consistency condition there is the *critical
polynomial*, whose roots are algebraic eigenvalues.  At a root, choosing
p_{n-1} = 0 makes every later coefficient vanish identically and the series
truncates onto the invariant subspace.

Scaling.  The raw coefficients carry square roots of factorials.  With

    p_j = sqrt(j!) pt_j        q_j = sqrt((j+2)!) qt_j

the recurrence closes over the rationals:

    (hw j + eps/2 - E) pt_j + rho (j+1)(j+2) qt_j
                            + c (j+1-n)(j+1) qt_{j-1} = 0        (upper |j>)
    (hw (j+2) - eps/2 - E) qt_j + phi rho pt_j
                            + c_hat (j+2-n) pt_{j+1} = 0         (lower |j+2>)

so all polynomials here live in exact Fraction arithmetic and the critical
polynomial's roots carry no recurrence noise.  The stored polynomials are
the rescaled pt_j, qt_j; `p_value`/`q_value` restore the factorial scaling.

Generic stepping divides by rho and by c_hat (j+2-n); the rho = 0 and
c_hat = 0 limits decouple into 2x2 chains whose consistency factors are
assembled directly (`critical_polynomial` handles the dispatch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import NumericalError, ValidationError
from .fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from .models import ModelParams, build_ht

ROOT_IMAG_TOL = 1e-10


# ---------------------------------------------------------------------------
# exact polynomials in the energy variable


@dataclass(frozen=True)
class EnergyPolynomial:
    """Dense polynomial in E with exact rational coefficients, ascending."""

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coefficients(coeffs) -> "EnergyPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return EnergyPolynomial(tuple(cs))

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
    def degree(self) -> float:
        return len(self.coefficients) - 1 if self.coefficients else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "EnergyPolynomial") -> "EnergyPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return EnergyPolynomial.from_coefficients(out)

    def __sub__(self, other: "EnergyPolynomial") -> "EnergyPolynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "EnergyPolynomial":
        f = Fraction(factor)
        return EnergyPolynomial.from_coefficients([f * c for c in self.coefficients])

    def __mul__(self, other: "EnergyPolynomial") -> "EnergyPolynomial":
        if self.is_zero or other.is_zero:
            return EnergyPolynomial.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return EnergyPolynomial.from_coefficients(out)

    def divmod_exact(self, other: "EnergyPolynomial"):
        """Exact polynomial division: self = quotient * other + remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        div = other.coefficients
        if len(rem) < len(div):
            return EnergyPolynomial.zero(), self
        quot = [Fraction(0)] * (len(rem) - len(div) + 1)
        for top in range(len(rem) - 1, len(div) - 2, -1):
            k = top - (len(div) - 1)
            factor = rem[top] / div[-1]
            quot[k] = factor
            for i, c in enumerate(div):
                rem[k + i] -= factor * c
        return (
            EnergyPolynomial.from_coefficients(quot),
            EnergyPolynomial.from_coefficients(rem),
        )

    def derivative(self) -> "EnergyPolynomial":
        return EnergyPolynomial.from_coefficients(
            [i * c for i, c in enumerate(self.coefficients)][1:]
        )

    def eval_exact(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * value + c
        return acc

    def __call__(self, value):
        """Horner evaluation through floats (accepts complex)."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * value + float(c)
        return acc

    def float_coefficients(self) -> np.ndarray:
        return np.array([float(c) for c in self.coefficients])


# ---------------------------------------------------------------------------
# recurrence state


def _rational_params(params: ModelParams):
    """Exact rational images of the couplings.

    The theta-derived couplings are built as -Fraction(theta)/n rather than
    by converting the float quotient, so the recurrence matches the
    mathematical -theta/n exactly instead of its rounded double.
    """
    hw = Fraction(params.hbar_omega)
    eps = Fraction(params.epsilon)
    rho = Fraction(params.rho)
    c = (
        Fraction(params.c)
        if params.c is not None
        else -Fraction(params.theta) / params.n_qes
    )
    c_hat = (
        Fraction(params.c_hat)
        if params.c_hat is not None
        else -Fraction(params.theta) / params.n_qes
    )
    return hw, eps, rho, c, c_hat


@dataclass(frozen=True)
class SeriesState:
    """Rescaled polynomial pairs generated so far.

    `p[j + 1]` holds pt_j for j >= -1 (pt_{-1} is identically zero) and
    `q[j + 2]` holds qt_j for j >= -2; `frontier` is the largest j whose
    pair (pt_j, qt_j) is complete.  `critical` appears after the singular
    step.  The state is a value: stepping returns a new state.
    """

    params: ModelParams
    normalization: Fraction
    p: tuple[EnergyPolynomial, ...]
    q: tuple[EnergyPolynomial, ...]
    frontier: int
    critical: EnergyPolynomial | None = None

    @property
    def n(self) -> int:
        return self.params.n_qes

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


def series_start(params: ModelParams, normalization=1) -> SeriesState:
    """Initial conditions qt_{-2} = 0, qt_{-1} = normalization."""
    if params.n_qes is None:
        raise ValidationError("series solution requires n_qes")
    norm = Fraction(normalization)
    if norm == 0:
        raise ValidationError("normalization must be nonzero")
    return SeriesState(
        params=params,
        normalization=norm,
        p=(EnergyPolynomial.zero(),),
        q=(EnergyPolynomial.zero(), EnergyPolynomial.constant(norm)),
        frontier=-1,
    )


def step(state: SeriesState) -> SeriesState:
    """Advance the frontier by one (regular step, j + 2 != n).

    Solves the lower |j+2> equation for pt_{j+1}, then the upper |j+1>
    equation for qt_{j+1}.  Exact over Fraction.
    """
    j = state.frontier
    n = state.n
    if j + 2 == n:
        raise ValidationError(
            f"solve for p_{n - 1} is singular; use step_critical at the "
            f"frontier j = {j}"
        )
    hw, eps, rho, c, c_hat = _rational_params(state.params)
    if rho == 0 or c_hat == 0:
        raise ValidationError(
            "generic stepping needs rho != 0 and c_hat != 0; use "
            "critical_polynomial, which handles the decoupled limits"
        )
    pt_j = state.p_poly(j)
    qt_j = state.q_poly(j)
    # lower |j+2>:  pt_{j+1} = [(E - hw (j+2) + eps/2) qt_j - phi rho pt_j]
    #                          / (c_hat (j + 2 - n))
    lead = EnergyPolynomial.linear(-hw * (j + 2) + eps / 2, 1)
    pt_next = (lead * qt_j - pt_j.scale(state.params.phi * rho)).scale(
        1 / (c_hat * (j + 2 - n))
    )
    # upper |j+1>:  qt_{j+1} = [(E - hw (j+1) - eps/2) pt_{j+1}
    #                           - c (j + 2 - n)(j + 2) qt_j] / (rho (j+2)(j+3))
    lead = EnergyPolynomial.linear(-hw * (j + 1) - eps / 2, 1)
    qt_next = (lead * pt_next - qt_j.scale(c * (j + 2 - n) * (j + 2))).scale(
        1 / (rho * (j + 2) * (j + 3))
    )
    return replace(
        state, p=state.p + (pt_next,), q=state.q + (qt_next,), frontier=j + 1
    )


def step_critical(state: SeriesState) -> SeriesState:
    """The singular step at j = n - 2.

    The lower |n> equation loses its pt_{n-1} term, leaving the scalar
    consistency condition

        C(E) = (E - hw n + eps/2) qt_{n-2}(E) - phi rho pt_{n-2}(E) = 0,

    the critical polynomial.  p_{n-1} is a free choice; taking it zero
    forces qt_{n-1} = 0 as well (the upper |n-1> equation has its qt_{n-2}
    coupling annihilated by the same (j + 1 - n) factor), so at any root of
    C every later coefficient vanishes and the series truncates.
    """
    j = state.frontier
    n = state.n
    if j != n - 2:
        raise ValidationError(f"critical step applies at frontier {n - 2}, not {j}")
    hw, eps, rho, _, _ = _rational_params(state.params)
    lead = EnergyPolynomial.linear(-hw * n + eps / 2, 1)
    critical = lead * state.q_poly(n - 2) - state.p_poly(n - 2).scale(
        state.params.phi * rho
    )
    return replace(
        state,
        p=state.p + (EnergyPolynomial.zero(),),
        q=state.q + (EnergyPolynomial.zero(),),
        frontier=j + 1,
        critical=critical,
    )


def run_to_critical(params: ModelParams, normalization=1) -> SeriesState:
    """Generate all pairs up to the singular step and extract the critical
    polynomial (generic couplings only)."""
    state = series_start(params, normalization)
    while state.frontier < params.n_qes - 2:
        state = step(state)
    return step_critical(state)


def compare_critical_with_last_regular_q(state: SeriesState):
    """Exact division of the critical polynomial by qt_{n-3}.

    Returns (quotient, remainder).  A zero remainder would mean the
    consistency condition is a polynomial multiple of q_{n-3}; measured
    behavior (see tests) is a nonzero remainder -- the critical polynomial
    is genuinely new content, with 2n - 1 roots versus the 2(n - 2)
    of q_{n-3}.
    """
    if state.critical is None:
        raise ValidationError("run step_critical first")
    return state.critical.divmod_exact(state.q_poly(state.n - 3))


# ---------------------------------------------------------------------------
# critical polynomial, including decoupled limits


def _pair_quadratic(a0_up, a0_down, coupling2) -> EnergyPolynomial:
    """(E - a0_up)(E - a0_down) - coupling2 with exact coefficients."""
    up = EnergyPolynomial.linear(-a0_up, 1)
    down = EnergyPolynomial.linear(-a0_down, 1)
    return up * down - EnergyPolynomial.constant(coupling2)


def critical_polynomial(params: ModelParams) -> EnergyPolynomial:
    """Scalar consistency polynomial whose roots truncate the series.

    Generic rho, c_hat: degree 2n - 1 from the block recurrence.  In the
    decoupled limits the recurrence splits into 2x2 chains and the
    consistency condition becomes the product of their determinants:

      rho = 0:   (E - hw n + eps/2) * prod_{j=-1}^{n-3} [(E - hw (j+2)
                 + eps/2)(E - hw (j+1) - eps/2) - c c_hat (j+2-n)^2 (j+2)]
      c_hat = 0: (E - hw + eps/2) * prod_{j=0}^{n-2} [(E - hw j - eps/2)
                 (E - hw (j+2) + eps/2) - phi rho^2 (j+1)(j+2)]
      both:      E - hw + eps/2   (only the seeded level survives)

    Each limit keeps degree 2n - 1 except the doubly decoupled one.  The
    series ansatz starts from the |1, down> coefficient, so the decoupled
    |0, down> level at -eps/2 is never a root: root sets are a subset of
    the algebraic spectrum, one level short.
    """
    if params.n_qes is None:
        raise ValidationError("critical polynomial requires n_qes")
    hw, eps, rho, c, c_hat = _rational_params(params)
    n = params.n_qes
    if rho != 0 and c_hat != 0:
        return run_to_critical(params).critical
    if rho == 0 and c_hat == 0:
        return EnergyPolynomial.linear(-(hw - eps / 2), 1)
    if rho == 0:
        poly = EnergyPolynomial.linear(-(hw * n - eps / 2), 1)
        for j in range(-1, n - 2):
            poly = poly * _pair_quadratic(
                hw * (j + 2) - eps / 2,
                hw * (j + 1) + eps / 2,
                c * c_hat * (j + 2 - n) ** 2 * (j + 2),
            )
        return poly
    # c_hat == 0, rho != 0: two-photon doublet chains plus the seeded level
    poly = EnergyPolynomial.linear(-(hw - eps / 2), 1)
    for j in range(0, n - 1):
        poly = poly * _pair_quadratic(
            hw * j + eps / 2,
            hw * (j + 2) - eps / 2,
            Fraction(params.phi) * rho**2 * (j + 1) * (j + 2),
        )
    return poly


def _eval_exact_complex(poly: EnergyPolynomial, re: Fraction, im: Fraction):
    """Exact Horner evaluation at re + i*im over Fraction pairs."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(poly.coefficients):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def _newton_exact(poly: EnergyPolynomial, deriv: EnergyPolynomial, seed: complex):
    """Polish one root by Newton iteration with exact polynomial evaluation.

    The iterate is re-rounded to a float (pair) each step, so denominators
    stay bounded while the evaluation itself carries no rounding noise --
    float-Horner evaluation noise would otherwise floor the root error near
    1e-9 once coefficients reach ~1e4.  At an m-fold root plain Newton only
    converges linearly with ratio (m-1)/m, so once the step ratio settles
    the remaining geometric tail is summed in one extrapolated jump.
    """
    re, im = Fraction(float(seed.real)), Fraction(float(seed.imag))
    prev_step = None
    prev_ratio = None
    for _ in range(80):
        f_re, f_im = _eval_exact_complex(poly, re, im)
        if f_re == 0 and f_im == 0:
            break
        d_re, d_im = _eval_exact_complex(deriv, re, im)
        denom = d_re * d_re + d_im * d_im
        if denom == 0:
            break
        step = complex(
            float((f_re * d_re + f_im * d_im) / denom),
            float((f_im * d_re - f_re * d_im) / denom),
        )
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
        nxt_re = Fraction(float(re) - step.real)
        nxt_im = Fraction(float(im) - step.imag)
        if nxt_re == re and nxt_im == im:
            break
        re, im = nxt_re, nxt_im
    return complex(float(re), float(im))


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
    coeffs = poly.float_coefficients()
    roots = np.roots(coeffs[::-1])
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
    for c in reversed(poly.coefficients):
        acc = acc * mag + abs(float(c))
    return max(acc, 1.0)


def truncation_spectrum(
    params: ModelParams,
    interval: tuple[float, float] | None = None,
    tol: float = ROOT_IMAG_TOL,
) -> np.ndarray:
    """Real roots of the critical polynomial, optionally windowed."""
    roots = critical_roots(params)
    real = roots[np.abs(roots.imag) <= tol * np.maximum(1.0, np.abs(roots))].real
    if interval is not None:
        lo, hi = interval
        real = real[(real >= lo) & (real <= hi)]
    return np.sort(real)


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


def _chain_limit(params: ModelParams):
    """Seeded level and 2x2 chain blocks of a decoupled limit.

    Returns ((level, down photon), blocks), each block (up photon, down
    photon, up diag, down diag, B C, B, C) for the chain block
    [[up, B], [C, down]].  Both limits at once leave only the seeded level.
    """
    hw, eps = params.hbar_omega, params.epsilon
    c, c_hat = params.qes_couplings()
    n = params.n_qes
    _, _, rho, _, exact_c_hat = _rational_params(params)
    if rho == 0 and exact_c_hat == 0:
        return (hw - eps / 2, 1), []
    if rho == 0:
        # the decoupled top of the lower tower is the seeded level
        return (hw * n - eps / 2, n), [
            (j + 1, j + 2, hw * (j + 1) + eps / 2, hw * (j + 2) - eps / 2,
             c * c_hat * (j + 2 - n) ** 2 * (j + 2),
             c * (j + 2 - n) * math.sqrt(j + 2), c_hat * (j + 2 - n) * math.sqrt(j + 2))
            for j in range(-1, n - 2)
        ]
    if c != 0.0:
        raise ValidationError(
            "reconstruction with c_hat = 0 but c != 0 is not supported (the "
            "chains couple triangularly); override both couplings or none"
        )
    amps = [params.rho * math.sqrt((j + 1) * (j + 2)) for j in range(n - 1)]
    return (hw - eps / 2, 1), [
        (j, j + 2, hw * j + eps / 2, hw * (j + 2) - eps / 2,
         params.phi * params.rho**2 * (j + 1) * (j + 2), amp, params.phi * amp)
        for j, amp in enumerate(amps)
    ]


def _chain_vector(params: ModelParams, energy: complex, space: TruncatedFockSpace) -> np.ndarray:
    """Eigenvector of the seeded level, or of the chain block nearest `energy`."""
    (level, photon), blocks = _chain_limit(params)
    psi = np.zeros(space.dim, dtype=_vector_dtype(energy))
    if not blocks or abs(energy - level) < 1e-8:
        psi[basis_index(space, photon, SPIN_DOWN)] = 1.0
        return psi
    up, down, up_diag, down_diag, _, b, c = min(
        blocks, key=lambda blk: abs((energy - blk[2]) * (energy - blk[3]) - blk[4])
    )
    # eigenvector (B, E - up), falling back to (E - down, C) when that degenerates
    pair = (
        (b, energy - up_diag)
        if max(abs(b), abs(energy - up_diag)) > 1e-12
        else (energy - down_diag, c)
    )
    psi[basis_index(space, up, SPIN_UP)] = pair[0]
    psi[basis_index(space, down, SPIN_DOWN)] = pair[1]
    return psi


def reconstruct_eigenvector(
    params: ModelParams,
    energy: complex,
    space: TruncatedFockSpace,
    normalization=1,
    residual_tol: float = 1e-9,
) -> np.ndarray:
    """Assemble the truncated series at a critical root and certify it.

    Returns the unit-normalized full-space vector (complex when the root
    is).  Refuses when `energy` is not a root (the series would not
    truncate) and reports the leaking frontier component when certification
    fails.  At generic couplings the critical polynomial comes from the
    same exact series the vector is read from.
    """
    if params.n_qes is None:
        raise ValidationError("series solution requires n_qes")
    energy = complex(energy)
    if energy.imag == 0.0:
        energy = energy.real
    _, _, rho, _, c_hat = _rational_params(params)
    if rho != 0 and c_hat != 0:
        state = run_to_critical(params, normalization)
        # exactly critical_polynomial(params): the recurrence is linear in its start
        poly = state.critical.scale(1 / state.normalization)
        psi = _truncated_vector_generic(state, energy, space)
    else:
        poly = critical_polynomial(params)
        psi = _chain_vector(params, energy, space) * float(Fraction(normalization))
    if abs(poly(energy)) > 1e-8 * _residual_scale(poly, energy):
        raise ValidationError(
            f"E = {energy} is not a truncation root: the critical polynomial "
            f"evaluates to {poly(energy):.3e}, so post-frontier coefficients "
            "stay nonzero"
        )
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise NumericalError("series collapsed to the zero vector")
    h = build_ht(params, space)
    residual = h.matrix @ psi - energy * psi
    rel = float(np.linalg.norm(residual) / norm)
    if rel > residual_tol:
        worst = int(np.argmax(np.abs(residual)))
        photon = worst % space.cutoff
        sector = "upper" if worst < space.cutoff else "lower"
        raise NumericalError(
            f"reconstruction residual {rel:.3e} exceeds {residual_tol:.1e}; "
            f"largest leak on the {sector} |{photon}> component"
        )
    return psi / norm


def partial_residual_support(
    params: ModelParams,
    order: int,
    energy: float,
    space: TruncatedFockSpace,
    normalization=1,
):
    """Residual of the half-step partial sum (p through J+1, q through J).

    Returns (psi_partial, residual_vector, support_indices).  For generic E
    every interior equation is satisfied by construction, so the residual
    sits exactly on the two frontier states |J+1, up> and |J+3, down> --
    this is the invariant that makes the recurrence a solution method.
    """
    if not 0 <= order <= params.n_qes - 3:
        raise ValidationError("order must keep the frontier below the singular step")
    state = series_start(params, normalization)
    while state.frontier <= order:
        state = step(state)
    psi = np.zeros(space.dim)
    for j in range(0, order + 2):
        psi[basis_index(space, j, SPIN_UP)] = state.p_value(j, energy)
    for j in range(-1, order + 1):
        psi[basis_index(space, j + 2, SPIN_DOWN)] = state.q_value(j, energy)
    h = build_ht(params, space)
    residual = h.matrix @ psi - energy * psi
    support = np.nonzero(np.abs(residual) > 1e-10 * max(1.0, np.max(np.abs(residual))))[0]
    return psi, residual, support
