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
holds Python-int numerators over one common denominator, and each series
step is one integer pass over them (`_series_step`).  The stored
polynomials are the rescaled pt_j, qt_j; `p_value`/`q_value` restore the
factorial scaling.

Root polish.  A Newton step takes C and C' in scaled integers at the float
(dyadic) iterate: one Horner pass at a real point, one pass of remainders by
the iterate's real quadratic at a nonreal one (`_horner_pair`).  Complex
seeds come in exact conjugate pairs, and the polish commutes with
conjugation, so one seed of a pair is polished and the other mirrored (a root
that came out real is copied as it is: conj would make its +0.0 a -0.0).

`run_to_critical` builds the series in one pass; it divides by rho and by
c_hat (j+2-n), so the rho = 0 and c_hat = 0 limits, which decouple into 2x2
chains, are read from one chain table instead (`_chain_limit`, which also
decides whether a limit applies).  The product of the chain determinants,
the critical polynomial there, is built by `_series_step` too.

Consecutive calls for one parameter set share their work: `run_to_critical`
keeps the last exact series, keyed on the parameters (which hold phi, k and
n_qes as int, so phi = 1.0 shares phi = 1's series), and the residual gate
the last invariant subspace (`gate_subspace`: the full matrix and the rows a
reconstructed vector reaches), keyed on the parameters and the space.  So
`critical_roots` and the reconstructions of its roots build one series and
one matrix.  The calls for one parameter set arrive back to back, so each
cache holds one entry; more would only serve a return to an earlier set.
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
    `from_coefficients`, which normalizes; `_series_step` builds every exact
    polynomial of the recurrence from `_ZERO` and `_ONE`.
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

    def __call__(self, value):
        """Horner evaluation through floats (accepts complex)."""
        acc = 0.0
        for c in reversed(self._floats):
            acc = acc * value + c
        return acc

    def float_coefficients(self) -> np.ndarray:
        return np.array(self._floats)


_ZERO = EnergyPolynomial(())
_ONE = EnergyPolynomial((1,))


# ---------------------------------------------------------------------------
# recurrence state


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


def _series_step(x: EnergyPolynomial, a: Fraction, y: EnergyPolynomial, f: Fraction, v=1):
    """((E + a) x - f y) / v in one integer pass, normalized once.  With x =
    X / (g dx), y = Y / (g dy) and a = an / ad, f = fn / fd, v = vn / vd, it
    is [(ad E + an) fd vd dy X - ad fn vd dx Y] / (ad fd vn g dx dy)."""
    g = math.gcd(x.denominator, y.denominator)
    dx, dy = x.denominator // g, y.denominator // g
    mx, my = f.denominator * v.denominator * dy, a.denominator * f.numerator * v.denominator * dx
    e0, e1, xs, ys = a.numerator * mx, a.denominator * mx, x.numerators, y.numerators
    out = [0, *(e1 * c for c in xs)] + [0] * (len(ys) - len(xs) - 1)
    for i, c in enumerate(xs):
        out[i] += e0 * c
    for i, c in enumerate(ys):
        out[i] -= my * c
    return EnergyPolynomial._make(out, a.denominator * f.denominator * v.numerator * g * dx * dy)


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
    hw, eps, rho, c, c_hat = params.exact_qes_params()
    if rho == 0 or c_hat == 0:
        raise ValidationError(
            "generic stepping needs rho != 0 and c_hat != 0; use "
            "critical_polynomial, which handles the decoupled limits"
        )
    phi_rho = params.phi * rho
    p, q = [_ZERO], [_ZERO, _ONE]
    for j in range(-1, n - 2):
        pt_j, qt_j = p[-1], q[-1]
        # lower |j+2>:  pt_{j+1} = [(E - hw (j+2) + eps/2) qt_j - phi rho pt_j]
        #                          / (c_hat (j + 2 - n))
        p.append(_series_step(qt_j, -hw * (j + 2) + eps / 2, pt_j, phi_rho, c_hat * (j + 2 - n)))
        # upper |j+1>:  qt_{j+1} = [(E - hw (j+1) - eps/2) pt_{j+1}
        #                           - c (j + 2 - n)(j + 2) qt_j] / (rho (j+2)(j+3))
        f, v = c * (j + 2 - n) * (j + 2), rho * (j + 2) * (j + 3)
        q.append(_series_step(p[-1], -hw * (j + 1) - eps / 2, qt_j, f, v))
    critical = _series_step(q[-1], -hw * n + eps / 2, p[-1], phi_rho)
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
    couplings the matrix is built from; those refuse c != 0 with c_hat = 0,
    with rho = 0 or without.
    """
    n, phi = params.big_n + 2, params.phi
    no_rho = params.rho == 0
    no_c_hat = params.theta == 0 if params.c_hat is None else params.c_hat == 0
    if not (no_rho or no_c_hat):
        return None
    if exact:
        hw, eps, rho, c, c_hat = params.exact_qes_params()
    else:
        hw, eps, rho = params.hbar_omega, params.epsilon, params.rho
        c, c_hat = params.qes_couplings()
    if no_c_hat and not exact and c != 0.0:
        raise ValidationError(
            "reconstruction with c_hat = 0 but c != 0 is not supported (the "
            "chains couple triangularly); override both couplings or none"
        )
    if no_rho and no_c_hat:
        return (hw - eps / 2, 1), []
    if no_rho:
        # the decoupled top of the lower tower is the seeded level
        return (hw * n - eps / 2, n), [
            (j + 1, j + 2, hw * (j + 1) + eps / 2, hw * (j + 2) - eps / 2,
             c * c_hat * (j + 2 - n) ** 2 * (j + 2), c * (j + 2 - n), c_hat * (j + 2 - n), j + 2)
            for j in range(-1, n - 2)
        ]
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
    poly = _series_step(_ONE, -level, _ZERO, 0)
    for _, _, up_diag, down_diag, bc, *_ in blocks:
        # (E - down) [(E - up) poly] - B C poly
        poly = _series_step(_series_step(poly, -up_diag, _ZERO, 0), -down_diag, poly, bc)
    return poly


def _dyadic(re: float, im: float):
    """Integers (x_re, x_im, k) with re + i im = (x_re + i x_im) / 2**k."""
    (a, s), (b, t) = re.as_integer_ratio(), im.as_integer_ratio()
    k = max(s, t).bit_length() - 1
    return a << (k - s.bit_length() + 1), b << (k - t.bit_length() + 1), k


def _horner_pair(poly: EnergyPolynomial, x_re: int, x_im: int, k: int):
    """Integers (B_re, B_im, D_re, D_im) with poly = B / (den 2**(k deg)) and
    poly' = D / (den 2**(k deg - k)) at the dyadic point X / 2**k, X = x_re +
    i x_im, the j-th numerator c from the top carrying 2**(k j).  Real X:
    Horner, B <- B X + (c << k j) and D <- D X + B.  Nonreal X: the remainders
    R <- (c << k j) + s R1 - t R2 by its real quadratic x**2 - s x + t
    (Goertzel) and W <- R2 + s W1 - t W2 for the quotient, 4 products a
    coefficient, not 8, give B = R0 - R1 conj(X), D = R1 + 2i x_im (W0 - W1 conj(X))."""
    shift = 0
    if x_im == 0:
        b = d = 0
        for c in reversed(poly.numerators):
            d, b = d * x_re + b, b * x_re + (c << shift)
            shift += k
        return b, 0, d, 0
    s, t = 2 * x_re, x_re * x_re + x_im * x_im
    r1 = r2 = w1 = w2 = 0
    for c in reversed(poly.numerators):
        w1, w2 = r2 + s * w1 - t * w2, w1
        r1, r2 = (c << shift) + s * r1 - t * r2, r1
        shift += k
    return r1 - r2 * x_re, r2 * x_im, r2 - 2 * x_im * x_im * w2, 2 * x_im * (w1 - w2 * x_re)


def _newton_step(poly: EnergyPolynomial, re: float, im: float):
    """poly / poly' at the float point re + i im, each part the correctly
    rounded float of the exact ratio B conj(D) / (|D|**2 2**k) of one fused
    pass (`_horner_pair`), by one int true division; B / (D 2**k) at a real
    point.  None where poly or poly' vanishes exactly.  Zero parts are +0.0,
    underflows included, so the step at conj(x) is the exact conjugate up to
    that +0.0: `critical_roots` polishes one seed of each conjugate pair only."""
    x_re, x_im, k = _dyadic(re, im)
    b_re, b_im, d_re, d_im = _horner_pair(poly, x_re, x_im, k)
    if b_re == b_im == 0 or d_re == d_im == 0:
        return None
    if x_im == 0:
        return complex(b_re / (d_re << k) + 0.0, 0.0)
    denom = (d_re * d_re + d_im * d_im) << k
    re, im = (b_re * d_re + b_im * d_im) / denom, (b_im * d_re - b_re * d_im) / denom
    return complex(re + 0.0, im + 0.0)


def _newton_exact(poly: EnergyPolynomial, seed: complex):
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
        step = _newton_step(poly, re, im)
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

    Companion-matrix eigenvalues seed the roots; one seed of each conjugate
    pair is polished by exact-arithmetic Newton and the other mirrored, so
    the values are accurate to the last float digit and reconstruction
    residuals are not limited by root error.
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
    polished, by_seed = [], {}
    for seed in map(complex, roots):
        x = by_seed.get(seed.conjugate())
        if x is None:
            x = _newton_exact(poly, seed)
            if abs(x.imag) < ROOT_IMAG_TOL * max(1.0, abs(x)):
                x = complex(x.real)
        elif x.imag != 0.0:
            x = x.conjugate()
        by_seed[seed] = x
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


def _truncated_vector_generic(
    state: SeriesState, energy: complex, space: TruncatedFockSpace
) -> np.ndarray:
    n = state.n
    psi = np.zeros(space.dim, dtype=type(energy))  # float at a real root
    for j in range(0, n - 1):
        psi[basis_index(space, j, SPIN_UP)] = state.p_value(j, energy)
    for j in range(-1, n - 1):
        psi[basis_index(space, j + 2, SPIN_DOWN)] = state.q_value(j, energy)
    return psi


def _chain_vector(limit, energy: complex, space: TruncatedFockSpace) -> np.ndarray:
    """Eigenvector of the seeded level, or of the chain block nearest `energy`."""
    (level, photon), blocks = limit
    psi = np.zeros(space.dim, dtype=type(energy))  # float at a real root
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
    return _certified_reconstruction(params, energy, space)[0]


def _certified_reconstruction(params: ModelParams, energy, space: TruncatedFockSpace):
    """`reconstruct_eigenvector`'s unit vector v and the ||H v - E v|| its gate read."""
    energy = complex(energy)
    energy = energy.real if energy.imag == 0.0 else energy
    limit = _chain_limit(params, exact=False)
    if limit is None:
        state = run_to_critical(params)
        poly, psi = state.critical, _truncated_vector_generic(state, energy, space)
    else:
        poly = critical_polynomial(params)
        psi = _chain_vector(limit, energy, space)
    if abs(poly(energy)) > 1e-8 * _residual_scale(poly, energy):
        raise ValidationError(
            f"E = {energy} is not a truncation root: the critical polynomial evaluates "
            f"to {poly(energy):.3e}, so post-frontier coefficients stay nonzero"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as an error
        norm = float(np.linalg.norm(psi))
        if norm == 0.0:
            raise NumericalError("series collapsed to the zero vector")
        vector = psi / norm
        residual = gate_residual(params, space, energy, vector)
        rel = float(np.linalg.norm(residual))
    if not (math.isfinite(norm) and math.isfinite(rel)):
        # an infinite norm makes psi / norm the zero vector (or nan), so rel 0 or nan
        raise NumericalError(
            "reconstruction gate cannot be checked outside the float range "
            f"(1.8e308): ||psi|| = {norm:.3e}, relative residual {rel:.3e}"
        )
    if rel > RECONSTRUCTION_TOL:
        worst = int(np.argmax(np.abs(residual)))
        sector = "upper" if worst < space.cutoff else "lower"
        raise NumericalError(
            f"reconstruction residual {rel:.3e} exceeds {RECONSTRUCTION_TOL:.1e}; "
            f"largest leak on the {sector} |{worst % space.cutoff}> component"
        )
    return vector, rel
