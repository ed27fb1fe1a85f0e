"""The fraction-free polynomial kernel against a list-of-Fraction oracle.

The reference functions below are the former `Fraction` implementation of
`EnergyPolynomial` arithmetic, complex Horner evaluation and the Newton
step, kept here as the oracle: every kernel operation must agree with them
exactly, down to the bits of every float it returns.  The list arithmetic
(`ref_add`, `ref_scale`, `ref_mul`, `ref_divmod`) is also what
`test_recurrence` builds its series and chain-product oracles from, so they
never share `EnergyPolynomial` with the code they check.  The kernel's Newton
step takes the polynomial and its derivative from one integer pass (Horner
at a real point, the quadratic remainder at a nonreal one); the oracle
evaluates them separately.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qjc.recurrence
from qjc.errors import NumericalError
from qjc.recurrence import (
    EnergyPolynomial,
    _dyadic,
    _horner_pair,
    _newton_exact,
    _newton_step,
)

# ---------------------------------------------------------------------------
# reference: ascending lists of Fraction with no trailing zero


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ref_trim(out)


def ref_scale(a, factor):
    return ref_trim([Fraction(factor) * c for c in a])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem = list(a)
    if len(rem) < len(b):
        return [], ref_trim(a)
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for top in range(len(rem) - 1, len(b) - 2, -1):
        k = top - (len(b) - 1)
        factor = rem[top] / b[-1]
        quot[k] = factor
        for i, c in enumerate(b):
            rem[k + i] -= factor * c
    return ref_trim(quot), ref_trim(rem)


def ref_derivative(a):
    return ref_trim([i * c for i, c in enumerate(a)][1:])


def ref_eval_complex(a, re, im):
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(a):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def ref_newton_step(a, da, re, im):
    f_re, f_im = ref_eval_complex(a, Fraction(re), Fraction(im))
    if f_re == 0 and f_im == 0:
        return None
    d_re, d_im = ref_eval_complex(da, Fraction(re), Fraction(im))
    denom = d_re * d_re + d_im * d_im
    if denom == 0:
        return None
    # a quotient that underflows rounds to a zero of its sign; the step's
    # zero parts are +0.0
    return complex(
        float((f_re * d_re + f_im * d_im) / denom) + 0.0,
        float((f_im * d_re - f_re * d_im) / denom) + 0.0,
    )


def outcome(func, *args) -> str:
    """repr of func(*args), so floats compare by their bits (signed zeros and
    nan included), or the name of the overflow it raised."""
    try:
        return repr(func(*args))
    except (OverflowError, NumericalError) as err:
        return type(err).__name__


def typed(reference: str) -> str:
    """The kernel's outcome where the oracle's float coefficients overflow:
    a coefficient beyond the float range is a NumericalError, not a bare
    OverflowError."""
    return "NumericalError" if reference == "OverflowError" else reference


# ---------------------------------------------------------------------------
# strategies: small and >= 1000-bit integers, denominators of either sign


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


INTS = st.one_of(
    st.integers(-40, 40),
    _signed(st.integers(2**1000, 2**1100)),
    _signed(st.integers(1, 2**80)),
)
DENS = INTS.filter(lambda d: d != 0)
RAW = st.tuples(st.lists(INTS, max_size=7), DENS)
# dyadic points: floats over a wide but finite exponent range, zeros of both signs
FLOATS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-6, 1e-6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -0.5]),
)


def build(raw):
    """Kernel polynomial and its reference list from (numerators, denominator)."""
    nums, den = raw
    return EnergyPolynomial._make(nums, den), ref_trim(Fraction(n, den) for n in nums)


def canonical_coefficients(poly):
    """poly's coefficients, once its fields are checked canonical: positive
    denominator, no common content, no trailing zero."""
    assert poly.denominator > 0
    assert math.gcd(poly.denominator, *poly.numerators) == 1
    assert not poly.numerators or poly.numerators[-1] != 0
    return list(poly.coefficients)


def assert_matches(poly, ref):
    assert canonical_coefficients(poly) == ref
    assert poly == EnergyPolynomial.from_coefficients(ref)


def float_horner(floats, x):
    acc = 0.0
    for c in reversed(floats):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# properties


@given(RAW)
@settings(max_examples=200, deadline=None)
def test_construction_is_canonical(raw):
    poly, ref = build(raw)
    assert_matches(poly, ref)
    floats = outcome(lambda: [float(c) for c in ref])
    assert outcome(lambda: poly.float_coefficients().tolist()) == typed(floats)
    assert poly.degree == (len(ref) - 1 if ref else -math.inf)


@given(RAW, FLOATS)
@settings(max_examples=200, deadline=None)
def test_float_horner_matches_reference(raw, x):
    poly, ref = build(raw)
    assert outcome(poly, x) == typed(outcome(lambda: float_horner([float(c) for c in ref], x)))


@given(RAW, FLOATS, FLOATS)
@settings(max_examples=200, deadline=None)
def test_complex_evaluation_at_dyadic_points(raw, re, im):
    # the fused pass gives poly = B / (den 2**(k deg)), poly' = D / (den 2**(k deg - k))
    poly, ref = build(raw)
    x_re, x_im, k = _dyadic(re, im)
    assert (Fraction(x_re, 2**k), Fraction(x_im, 2**k)) == (Fraction(re), Fraction(im))
    b_re, b_im, d_re, d_im = _horner_pair(poly, x_re, x_im, k)
    if x_im == 0:
        assert b_im == d_im == 0
    scale = Fraction(poly.denominator) * Fraction(2) ** (k * (len(ref) - 1))
    point = Fraction(re), Fraction(im)
    assert (b_re / scale, b_im / scale) == ref_eval_complex(ref, *point)
    assert (d_re * 2**k / scale, d_im * 2**k / scale) == ref_eval_complex(
        ref_derivative(ref), *point
    )


def horner_reference(poly, re, im):
    """`_horner_pair`'s B and D by the `Fraction` oracle, rescaled to integers."""
    x_re, x_im, k = _dyadic(re, im)
    ref = list(poly.coefficients)
    scale = poly.denominator * Fraction(2) ** (k * (len(ref) - 1))
    point = Fraction(re), Fraction(im)
    b = [v * scale for v in ref_eval_complex(ref, *point)]
    d = [v * scale / 2**k for v in ref_eval_complex(ref_derivative(ref), *point)]
    assert all(v.denominator == 1 for v in b + d)
    return (x_re, x_im, k), tuple(int(v) for v in b + d)


QUADRATIC_POINTS = [
    (0.0, 1.0), (-0.0, -1.0), (0.0, 2.0**-70), (-0.0, 3.5e6),  # purely imaginary
    (0.5, 1 + 2.0**-52), (-3.0, -(2.0**-1074)), (2.0**40, 2.0**-30),  # im sets k
    (0.25, 0.75), (-1.5, 1e-300), (1e-300, -7.0), (-2.0**52, 2.0**52),
]


def test_quadratic_pass_edge_cases_match_reference():
    big = 3 << 3000
    polys = [
        EnergyPolynomial.from_coefficients([Fraction(-7, 3)]),  # degree 0
        EnergyPolynomial.from_coefficients([Fraction(5, 9), -2]),  # degree 1
        EnergyPolynomial.from_coefficients([1, Fraction(-1, 6), 4]),  # degree 2
        EnergyPolynomial._make([(-1) ** i * (big + 17 * i) for i in range(61)], 11 << 40),
    ]
    assert polys[-1].degree == 60 and min(c.bit_length() for c in polys[-1].numerators) > 3000
    for poly in polys:
        for re, im in QUADRATIC_POINTS:
            x, expected = horner_reference(poly, re, im)
            assert x[1] != 0 and _horner_pair(poly, *x) == expected, (poly.degree, re, im)
    # where the imaginary part sets k, x_re carries its 2**k too
    assert _dyadic(0.5, 1 + 2.0**-52) == (2**51, 2**52 + 1, 52)


@given(st.lists(INTS, max_size=9).map(lambda nums: EnergyPolynomial._make(nums, 1)),
       FLOATS, FLOATS.filter(lambda im: im != 0))
# the step's imaginary part underflows: its zero must be +0.0 at both points
@example(EnergyPolynomial._make([2**1000, 1, 2**1000], 1), 0.0, 1.0)
@settings(max_examples=200, deadline=None)
def test_quadratic_pass_is_conjugate_symmetric(poly, re, im):
    # conj(X) gives conj(B) and conj(D); the step's zero parts stay +0.0
    x_re, x_im, k = _dyadic(re, im)
    b_re, b_im, d_re, d_im = _horner_pair(poly, x_re, x_im, k)
    assert _horner_pair(poly, x_re, -x_im, k) == (b_re, -b_im, d_re, -d_im)
    try:
        step = _newton_step(poly, re, im)
    except OverflowError:
        with pytest.raises(OverflowError):
            _newton_step(poly, re, -im)
        return
    mirror = None if step is None else complex(step.real, -step.imag + 0.0)
    assert repr(_newton_step(poly, re, -im)) == repr(mirror)


@given(RAW, FLOATS, FLOATS)
@settings(max_examples=200, deadline=None)
def test_newton_step_matches_reference(raw, re, im):
    poly, ref = build(raw)
    got = outcome(_newton_step, poly, re, im)
    assert got == outcome(ref_newton_step, ref, ref_derivative(ref), re, im)


@given(RAW, FLOATS)
@settings(max_examples=200, deadline=None)
def test_newton_step_at_real_points_matches_reference(raw, re):
    # the real-integer pass, at +0.0 and -0.0 imaginary parts alike
    poly, ref = build(raw)
    expected = outcome(ref_newton_step, ref, ref_derivative(ref), re, 0.0)
    assert outcome(_newton_step, poly, re, 0.0) == expected
    assert outcome(_newton_step, poly, re, -0.0) == expected


def test_newton_step_explicit_points():
    # (E - 1)(E^2 + 1): a real root, a conjugate pair, real and complex iterates
    cubic = EnergyPolynomial.from_coefficients([-1, 1, -1, 1])
    ref = ref_trim([-1, 1, -1, 1])
    for re, im in [(0.5, 0.0), (0.5, -0.0), (-0.0, 0.0), (2.0, 0.0), (0.25, 0.75), (0.25, -0.75),
                   (1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1e-300, 0.0), (3.0, 1e-300)]:
        expected = outcome(ref_newton_step, ref, ref_derivative(ref), re, im)
        assert outcome(_newton_step, cubic, re, im) == expected
    # exact roots stop the step; the real one by the real pass
    assert _newton_step(cubic, 1.0, 0.0) is None and _newton_step(cubic, 0.0, -1.0) is None
    assert repr(_newton_step(cubic, 2.0, 0.0)) == repr(complex(5 / 9, 0.0))
    for poly in (EnergyPolynomial(()), EnergyPolynomial.from_coefficients([Fraction(-7, 3)])):
        for re, im in [(0.5, 0.0), (0.5, -0.0), (0.0, 0.0), (0.25, 0.75)]:
            assert _newton_step(poly, re, im) is None


def test_newton_polish_returns_positive_zero_like_fraction_iterates():
    # Fraction(-0.0) == 0, so the Fraction polish turned a -0.0 seed into 0.0
    energy = EnergyPolynomial.from_coefficients([0, 1])
    root = _newton_exact(energy, complex(-0.0, -0.0))
    assert (math.copysign(1, root.real), math.copysign(1, root.imag)) == (1, 1)


SMALL_POLYS = st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0)
SEED_PARTS = st.one_of(st.floats(-4, 4, allow_nan=False), st.sampled_from([0.0, -0.0]))


@given(SMALL_POLYS, SEED_PARTS, SEED_PARTS)
@example([1, 0, 1], 5e-324, 0.0)  # a Newton step beyond the float range stops the polish
@example([1, 0, 1], 0.0, 5e-324)
@settings(max_examples=150, deadline=None)
def test_newton_polish_from_conjugate_seed_is_the_mirror_image(coeffs, re, im):
    # the iterates from conj(seed) are the exact conjugates; a polish that
    # ends real ends at +0.0 from either seed
    poly = EnergyPolynomial.from_coefficients(coeffs)
    seed = complex(re, im)
    root = _newton_exact(poly, seed)
    mirror = root if root.imag == 0.0 else root.conjugate()
    assert repr(_newton_exact(poly, seed.conjugate())) == repr(mirror)
    if root.imag == 0.0:
        assert math.copysign(1, root.imag) == 1


def test_zero_polynomial_edge_cases():
    # the series seeds are the canonical zero and one
    zero, one = qjc.recurrence._ZERO, qjc.recurrence._ONE
    assert zero == EnergyPolynomial.from_coefficients([0, 0]) == EnergyPolynomial._make([0], -7)
    assert one == EnergyPolynomial.from_coefficients([1]) == EnergyPolynomial._make([-5], -5)
    assert zero.coefficients == () and zero.float_coefficients().shape == (0,)
    assert zero(2.5) == 0.0 and zero.numerators == () and one.degree == 0
    assert _horner_pair(zero, 3, 1, 2) == _horner_pair(zero, 3, 0, 2) == (0, 0, 0, 0)
    assert _horner_pair(one, 3, 1, 2) == (1, 0, 0, 0)
    assert _newton_step(zero, 0.5, 0.0) is None
    assert _newton_step(one, 0.5, 0.0) is None

