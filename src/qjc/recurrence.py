"""Series solution of the dressed mixed-exchange model by block recurrence.

The ansatz psi = (sum_j p_j(E)|j>, sum_j q_j(E)|j+2>)^t turns the
eigenequation into a two-term block recurrence for polynomial pairs in E.
At the invariant-subspace size n = n_qes it ends in a scalar consistency
condition, the *critical polynomial*, whose roots are algebraic eigenvalues
at which the series truncates onto the invariant subspace
(`_steps` spells out the steps).

Scaling.  The raw coefficients carry square roots of factorials.  With

    p_j = sqrt(j!) pt_j        q_j = sqrt((j+2)!) qt_j

the recurrence closes over the rationals:

    (hw j + eps/2 - E) pt_j + rho (j+1)(j+2) qt_j
                            + c (j+1-n)(j+1) qt_{j-1} = 0        (upper |j>)
    (hw (j+2) - eps/2 - E) qt_j + phi rho pt_j
                            + c_hat (j+2-n) pt_{j+1} = 0         (lower |j+2>)

so all polynomials here are exact and the critical polynomial's roots carry
no recurrence noise.  In path order y_0 = qt_{-1} = 1, y_1 = pt_0, y_2 =
qt_0, ..., y_m = C (m = 2n - 1) each half-step is y_{k+1} = ((E + a_k) y_k -
f_k y_{k-1}) / v_k, with exact (a_k, f_k, v_k) from one table, `_steps`.
Arithmetic is fraction-free: an `EnergyPolynomial` holds Python-int
numerators over one common denominator, and each step is one integer pass
over them (`_series_step`).  The stored series is y_0 .. y_{m-1} in path
order, the rescaled qt_j and pt_j; the reconstruction restores the factorial
scaling as it places each y_k on its photon state (`_series_vector`).

Root seeds.  C is, up to a constant, the table's monic continuant z_{k+1} =
(E + a_k) z_k - f_k v_{k-1} z_{k-1}: the characteristic polynomial of the
m x m tridiagonal with diagonal -a_k and off-diagonal pair +-sqrt|f_k v_{k-1}|
(the comrade matrix), whose float eigenvalues seed the roots.  That
tridiagonal is a diagonal similarity of the path-ordered QES restriction, so
the seeds are only seeds: the exact polish on C carries the route.  Where
rho = 0 or c_hat = 0 some v_k vanish, the series cannot divide, and C is the
continuant itself: the 2x2 chain determinants of `_chain_limit`, whose float
blocks give the vectors.

Root polish.  A Newton step takes C and C' in scaled integers at the float
(dyadic) iterate: one Horner pass at a real point, one pass of remainders by
the iterate's real quadratic at a nonreal one (`_horner_pair`).  Complex
seeds come in exact conjugate pairs, and the polish commutes with
conjugation, so one seed of a pair is polished and the other mirrored (a root
that came out real is copied as it is: conj would make its +0.0 a -0.0).

Consecutive calls for one parameter set share their work: `run_to_critical`
keeps the last exact record, series or limit alike, keyed on the parameters
(which hold phi, k and n_qes as int, so phi = 1.0 shares phi = 1's series).
The residual gate reads the cached `models.invariant_subspace`'s row slab.
So `critical_roots` and the reconstructions of its roots build one record
and one model.  The calls for one parameter set arrive back to back, so the
record cache holds one entry; more would only serve a return to an earlier
set.
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
from .models import ModelParams, invariant_subspace

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
    """Everything exact the recurrence route reads for one parameter set.

    `steps` is the table (`_steps`) whose continuant `critical` (C) is;
    `series` holds y_0 .. y_{m-1} in path order, y_{2i} = qt_{i-1} and
    y_{2i+1} = pt_i, empty in a decoupled limit (`_decoupled`).
    """

    steps: tuple[tuple[Fraction, Fraction, Fraction], ...]
    critical: EnergyPolynomial
    series: tuple[EnergyPolynomial, ...]


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


def _steps(params: ModelParams) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """The exact (a_k, f_k, v_k), k = 0 .. 2n - 2, from one `exact_qes_params`
    call: for each j = -1 .. n - 3 the lower |j+2> equation solved for
    pt_{j+1}, then the upper |j+1> one for qt_{j+1}; last the lower |n> one,
    which loses its pt_{n-1} term (v = 1), leaving the critical polynomial

        C(E) = (E - hw n + eps/2) qt_{n-2}(E) - phi rho pt_{n-2}(E)."""
    n = params.big_n + 2
    hw, eps, rho, c, c_hat = params.exact_qes_params()
    phi_rho = params.phi * rho
    steps = []
    for j in range(-1, n - 2):
        # lower |j+2>:  pt_{j+1} = [(E - hw (j+2) + eps/2) qt_j - phi rho pt_j]
        #                          / (c_hat (j + 2 - n))
        steps.append((-hw * (j + 2) + eps / 2, phi_rho, c_hat * (j + 2 - n)))
        # upper |j+1>:  qt_{j+1} = [(E - hw (j+1) - eps/2) pt_{j+1}
        #                           - c (j + 2 - n)(j + 2) qt_j] / (rho (j+2)(j+3))
        steps.append((-hw * (j + 1) - eps / 2, c * (j + 2 - n) * (j + 2), rho * (j + 2) * (j + 3)))
    steps.append((-hw * n + eps / 2, phi_rho, Fraction(1)))
    return tuple(steps)


@functools.lru_cache(maxsize=1)
def run_to_critical(params: ModelParams) -> SeriesState:
    """The one exact build of the recurrence route, for every coupling.

    At generic couplings the series runs from pt_{-1} = 0, qt_{-1} = 1 up to
    the critical polynomial, one `_steps` step at a time, exactly over the
    rationals.  p_{n-1} is a free choice; taking it zero forces qt_{n-1} = 0
    as well (the upper |n-1> equation has its qt_{n-2} coupling annihilated
    by the same (j + 1 - n) factor), so at any root of C every later
    coefficient vanishes and the series truncates.  Where rho = 0 or
    c_hat = 0 C is the table's monic continuant instead, and the doubly
    decoupled limit keeps only E + a_0, its seeded level.  The returned
    record is shared by every caller with equal parameters.
    """
    steps, (no_rho, no_c_hat) = _steps(params), _decoupled(params)
    if no_rho and no_c_hat:
        steps = steps[:1]  # both limits: the seeded level, E + a_0
    y, v_prev = [_ZERO, _ONE], 0  # pt_{-1}, qt_{-1}
    for a, f, v in steps:
        if no_rho or no_c_hat:
            y.append(_series_step(y[-1], a, y[-2], f * v_prev))
        else:
            y.append(_series_step(y[-1], a, y[-2], f, v))
        v_prev = v
    return SeriesState(steps, y[-1], () if no_rho or no_c_hat else tuple(y[1:-1]))


# ---------------------------------------------------------------------------
# critical polynomial, including decoupled limits


def _decoupled(params: ModelParams) -> tuple[bool, bool]:
    """Whether rho = 0 and whether c_hat = 0, read off the float parameters
    exactly: Fraction(x) is zero just where x is, and the derived
    c_hat = -theta/n just where theta is (its float can underflow to -0.0)."""
    return params.rho == 0, params.theta == 0 if params.c_hat is None else params.c_hat == 0


def _chain_limit(params: ModelParams):
    """Seeded level and 2x2 chain blocks of a decoupled limit, where rho = 0
    or c_hat = 0 (`_decoupled`).

    Returns ((level, down photon), blocks), each block (up photon, down
    photon, up diag, down diag, B C, b, c, m) for the chain block
    [[up diag, B], [C, down diag]] with B = b sqrt(m) and C = c sqrt(m).
    Both limits at once leave only the seeded level.  The values are floats
    on the float couplings the matrix is built from.  With c_hat = 0 the
    blocks leave c out, so they are eigenvectors only where c = 0 too; the
    reconstruction refuses c != 0 there.
    """
    n, phi = params.big_n + 2, params.phi
    no_rho, no_c_hat = _decoupled(params)
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
    return (hw - eps / 2, 1), [  # rho * rho: past the float range an inf, where rho**2 raises
        (j, j + 2, hw * j + eps / 2, hw * (j + 2) - eps / 2,
         phi * (rho * rho) * (j + 1) * (j + 2), rho, phi * rho, (j + 1) * (j + 2))
        for j in range(n - 1)
    ]


def critical_polynomial(params: ModelParams) -> EnergyPolynomial:
    """Scalar consistency polynomial whose roots truncate the series.

    Generic rho, c_hat: degree 2n - 1 from the block recurrence.  In the
    decoupled limits it is the table's monic continuant, the product of the
    2x2 chain determinants of `_chain_limit` and the seeded level,

        (E - level) prod_blocks [(E - up diag)(E - down diag) - B C],

    which keeps degree 2n - 1 except in the doubly decoupled limit, where
    only the seeded level survives.  Either way it is read off the one
    cached record of `run_to_critical`.  The series ansatz starts from the
    |1, down> coefficient, so the decoupled |0, down> level at -eps/2 is
    never a root: root sets are a subset of the algebraic spectrum, one
    level short.
    """
    return run_to_critical(params).critical


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
    error near 1e-9 once coefficients reach ~1e4.
    """
    # + 0.0 turns a -0.0 seed into 0.0, so a root at zero comes back as +0.0
    # (the pinned root bits); x - step is never -0.0 once x is not
    re, im = float(seed.real) + 0.0, float(seed.imag) + 0.0
    # The cap ends the polish silently on purpose: at a multiple root Newton
    # converges only linearly, and raising would drop the whole spectrum
    # instead of returning the best iterate.  So does a step beyond the float
    # range, where poly' all but vanishes (x**2 + 1 at x = 5e-324).
    for _ in range(80):
        try:
            step = _newton_step(poly, re, im)
        except OverflowError:
            break
        if step is None:
            break
        nxt_re, nxt_im = re - step.real, im - step.imag
        if nxt_re == re and nxt_im == im:
            break
        re, im = nxt_re, nxt_im
    return complex(re, im)


def _seeds(steps) -> np.ndarray:
    """Float eigenvalues of the tridiagonal whose characteristic polynomial
    is the monic continuant of `steps`: diagonal -a_k, off-diagonal pair
    +-sqrt|f_k v_{k-1}| carrying the sign of f_k v_{k-1} below."""
    try:
        diag = [-float(a) for a, _, _ in steps]
        couplings = np.array([float(f * v) for (_, f, _), (_, _, v) in zip(steps[1:], steps)])
    except OverflowError:
        raise NumericalError(
            "a step coefficient of the recurrence lies beyond the float range (|x| > 1.8e308)"
        ) from None
    off = np.sqrt(np.abs(couplings))
    return np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(np.copysign(off, couplings), -1))


def critical_roots(params: ModelParams) -> np.ndarray:
    """All roots of the critical polynomial (complex), sorted by (Re, Im).

    The eigenvalues of the step table's tridiagonal seed the roots (`_seeds`);
    one seed of each conjugate pair is polished by exact-arithmetic Newton
    on C and the other mirrored, so the values are accurate to the last
    float digit and reconstruction residuals are not limited by root error.
    """
    state = run_to_critical(params)
    poly, polished, by_seed = state.critical, [], {}
    for seed in map(complex, _seeds(state.steps)):
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


def _series_vector(series, energy: complex, space: TruncatedFockSpace) -> np.ndarray:
    """The path-ordered series at `energy` with its factorial scaling
    restored: y_k times sqrt(photon!) on lower |k/2 + 1> (k even, q) or upper
    |(k - 1)/2> (k odd, p)."""
    psi = np.zeros(space.dim, dtype=type(energy))  # float at a real root
    for k, y in enumerate(series):
        photon, spin = (k // 2 + 1, SPIN_DOWN) if k % 2 == 0 else (k // 2, SPIN_UP)
        try:
            scale = math.sqrt(math.factorial(photon))
        except OverflowError:
            raise NumericalError(
                f"the series scaling sqrt({photon}!) cannot be formed: {photon}! lies "
                "beyond the float range (|x| > 1.8e308)"
            ) from None
        psi[basis_index(space, photon, spin)] = scale * y(energy)
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


def reconstruct_eigenvector(
    params: ModelParams, energy: complex, space: TruncatedFockSpace
) -> np.ndarray:
    """Assemble the truncated series at a critical root and certify it.

    Returns the unit-normalized full-space vector (complex when the root
    is).  Refuses when `energy` is not a root (the series would not
    truncate) and reports the leaking frontier component when certification
    fails.  The critical polynomial and the vector come from the same
    cached record (`run_to_critical`).
    """
    return _certified_reconstruction(params, energy, space)[0]


def _certified_reconstruction(params: ModelParams, energy, space: TruncatedFockSpace):
    """`reconstruct_eigenvector`'s unit vector v and the ||H v - E v|| its gate read."""
    energy = complex(energy)
    energy = energy.real if energy.imag == 0.0 else energy
    state, (no_rho, no_c_hat) = run_to_critical(params), _decoupled(params)
    if not (no_rho or no_c_hat):
        psi = _series_vector(state.series, energy, space)
    elif no_c_hat and params.qes_couplings()[0] != 0.0:
        raise ValidationError(
            "reconstruction with c_hat = 0 but c != 0 is not supported (the "
            "chains couple triangularly); override both couplings or none"
        )
    else:
        psi = _chain_vector(_chain_limit(params), energy, space)
    poly = state.critical
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
        sub = invariant_subspace(params, space)
        residual = residual_on_rows(sub.slab, vector, energy, sub.indices, sub.rows)
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
