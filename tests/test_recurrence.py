"""Series recurrence, critical polynomial, and eigenvector reconstruction."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjc.recurrence
from qjc._linalg import spectrum_mismatch
from qjc.closedform import doublet_block, doublet_eigenvalues
from qjc.errors import NumericalError, ValidationError
from qjc.fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from qjc.models import ModelParams, build_ht
from qjc.qes import algebraic_eigenvalues, count_below
from qjc.recurrence import (
    ROOT_IMAG_TOL,
    EnergyPolynomial,
    critical_polynomial,
    critical_roots,
    reconstruct_eigenvector,
    run_to_critical,
)
from test_energy_polynomial import canonical_coefficients, ref_add, ref_divmod, ref_mul, ref_scale

SPACE = TruncatedFockSpace(32, 8)


def truncation_spectrum(params):
    """Real roots of the critical polynomial, ascending."""
    roots = critical_roots(params)
    return np.sort(roots[np.abs(roots.imag) <= ROOT_IMAG_TOL * np.maximum(1.0, np.abs(roots))].real)


# ---------------------------------------------------------------------------
# exact polynomial arithmetic


def test_polynomial_canonical_form_and_degree():
    p = EnergyPolynomial.from_coefficients([1, 2, 0, 0])
    assert p.coefficients == (Fraction(1), Fraction(2))
    assert p.degree == 1
    zero = EnergyPolynomial.from_coefficients([])
    assert zero.degree == -math.inf
    assert zero.numerators == ()


def test_polynomial_evaluation_matches_fraction_path():
    p = EnergyPolynomial.from_coefficients([Fraction(1, 7), -3, Fraction(5, 2)])
    x = Fraction(3, 4)
    value = Fraction(1, 7) - 3 * x + Fraction(5, 2) * x * x
    assert sum(c * x**i for i, c in enumerate(p.coefficients)) == value
    npt.assert_allclose(p(0.75), float(value), rtol=1e-15)


# ---------------------------------------------------------------------------
# recurrence generation


def hand_params(**kw):
    base = dict(rho=0.5, theta=0.5, n_qes=3, phi=-1)
    base.update(kw)
    return ModelParams(**base)


def test_first_step_matches_hand_expansion():
    # n = 3, eps = hw = 1, rho = theta = 1/2, couplings c = c_hat = -theta/3.
    # Lower |1> equation:  (1 - 1/2 - E) qt_{-1} + c_hat (1 - 3) pt_0 = 0
    #   => pt_0 = 3 (E - 1/2)
    # Upper |0> equation:  (1/2 - E) pt_0 + 2 rho qt_0 + c (1 - 3) qt_{-1} = 0
    #   => qt_0 = 3 (E - 1/2)^2 - 1/3
    # In path order y_0 = qt_{-1} = 1, y_1 = pt_0, y_2 = qt_0.
    series = run_to_critical(hand_params()).series
    assert series[0].coefficients == (Fraction(1),)
    assert series[1].coefficients == (Fraction(-3, 2), Fraction(3))
    assert series[2].coefficients == (
        Fraction(5, 12),
        Fraction(-3),
        Fraction(3),
    )


def test_degree_growth_is_measured():
    # measured degrees: deg pt_j = 2j + 1, deg qt_j = 2j + 2, strictly
    # increasing up to the singular step; pt_j = y_{2j+1}, qt_j = y_{2j+2}
    series = run_to_critical(ModelParams(rho=0.7, theta=1.1, n_qes=7, phi=-1)).series
    assert len(series) == 2 * 7 - 1
    degrees = []
    for j in range(6):
        assert series[2 * j + 1].degree == 2 * j + 1
        assert series[2 * j + 2].degree == 2 * j + 2
        degrees.append(series[2 * j + 2].degree)
    assert degrees == sorted(degrees)


def test_critical_polynomial_degree_and_reality():
    params = ModelParams(rho=0.8, theta=1.2, n_qes=5, phi=-1)
    state = run_to_critical(params)
    assert state.critical.degree == 2 * 5 - 1
    assert all(isinstance(c, Fraction) for c in state.critical.coefficients)


def test_critical_is_not_a_multiple_of_last_q():
    # the consistency polynomial has degree 2n-1 while qt_{n-3} has 2n-4;
    # measured: the division leaves a nonzero remainder, so the two are
    # related but not equal up to a polynomial factor
    n = 5
    state = run_to_critical(ModelParams(rho=0.8, theta=1.2, n_qes=n, phi=-1))
    critical = list(state.critical.coefficients)
    last_q = list(state.series[2 * (n - 3) + 2].coefficients)  # qt_{n-3}
    quot, rem = ref_divmod(critical, last_q)
    assert len(quot) - 1 == 3
    assert rem
    assert ref_add(ref_mul(quot, last_q), rem) == critical


@pytest.mark.parametrize("big_n", [0, 3, 10])
def test_series_derives_couplings_once(monkeypatch, big_n):
    calls = []

    def counted(params):
        calls.append(params)
        return exact_params(params)

    exact_params = ModelParams.exact_qes_params
    monkeypatch.setattr(ModelParams, "exact_qes_params", counted)
    run_to_critical.cache_clear()
    run_to_critical(ModelParams(rho=0.9, theta=1.2, n_qes=big_n + 2, phi=-1))
    assert len(calls) == 1


def fraction_series(params):
    """The former series build, one `Fraction`-scaled product and difference
    per half-step, on the plain `Fraction` lists of the reference arithmetic
    (`test_energy_polynomial`): the oracle of `run_to_critical`'s integer
    steps, built without `EnergyPolynomial`.  Returns the lists p (pt_{-1}
    .. pt_{n-2}), q (qt_{-2} .. qt_{n-2}) and the critical polynomial."""
    n = params.big_n + 2
    hw, eps, rho, c, c_hat = params.exact_qes_params()
    phi_rho = params.phi * rho
    p, q = [[]], [[], [Fraction(1)]]
    for j in range(-1, n - 2):
        pt_j, qt_j = p[-1], q[-1]
        s = 1 / (c_hat * (j + 2 - n))
        lead = [(-hw * (j + 2) + eps / 2) * s, s]
        p.append(ref_add(ref_mul(lead, qt_j), ref_scale(pt_j, -phi_rho * s)))
        s = 1 / (rho * (j + 2) * (j + 3))
        lead = [(-hw * (j + 1) - eps / 2) * s, s]
        q.append(ref_add(ref_mul(lead, p[-1]), ref_scale(qt_j, -c * (j + 2 - n) * (j + 2) * s)))
    critical = ref_add(ref_mul([-hw * n + eps / 2, 1], q[-1]), ref_scale(p[-1], -phi_rho))
    return p, q, critical


SERIES_GRID = [
    dict(rho=rho, theta=theta) for rho in (1e-3, 0.05, 0.7, 2.0, 37.5) for theta in (0.4, 1.2, 3.0)
] + [
    # c != c_hat through explicit couplings, a zero c, and non-default hw and eps
    dict(rho=0.7, c=0.3, c_hat=-1.9),
    dict(rho=1.3, c=-2.5, c_hat=0.125),
    dict(rho=0.4, c=0.0, c_hat=0.6),
    dict(rho=0.9, theta=1.2, hbar_omega=0.37, epsilon=-2.25),
    dict(rho=2.0, c=0.1, c_hat=0.7, hbar_omega=3.0, epsilon=0.0),
]


@pytest.mark.parametrize("big_n", range(17))
def test_integer_series_steps_equal_the_fraction_steps(big_n):
    # every stored y_k and the critical polynomial, in canonical fields,
    # against the fraction steps interleaved into path order: y_{2i} =
    # qt_{i-1}, y_{2i+1} = pt_i
    for phi in (1, -1):
        for kw in SERIES_GRID:
            params = ModelParams(phi=phi, n_qes=big_n + 2, **kw)
            state = run_to_critical.__wrapped__(params)
            p, q, critical = fraction_series(params)
            path = [None] * (2 * big_n + 3)
            path[0::2], path[1::2] = q[1:], p[1:]
            got = [canonical_coefficients(y) for y in state.series]
            assert got == path, (phi, kw)
            assert canonical_coefficients(state.critical) == critical, (phi, kw)


# ---------------------------------------------------------------------------
# truncation spectrum


# (hbar_omega, epsilon, rho, theta, phi): rho = 0 or c_hat = -theta/n = 0
DECOUPLED = [
    pytest.param(1.0, 1.0, 0.0, 0.25, -1, id="0.25"),
    pytest.param(1.0, 1.0, 0.0, 1.0, -1, id="1.0"),
    pytest.param(1.0, 1.0, 0.0, 3.0, -1, id="3.0"),
    pytest.param(0.75, 1.3, 0.0, 1.5, -1, id="hw0.75-eps1.3-1.5"),
    pytest.param(1.0, 1.0, 0.8, 0.0, 1, id="chat-zero"),
    pytest.param(0.75, 1.3, 0.8, 0.0, 1, id="hw0.75-eps1.3-chat-zero"),
]


@pytest.mark.parametrize("hw, eps, rho, theta, phi", DECOUPLED)
def test_decoupled_limit_roots(hw, eps, rho, theta, phi):
    # N = 1: all algebraic levels except the seed-orthogonal singlet
    # -eps/2 appear as roots -- the seeded level and two 2x2 chain blocks,
    # each given by its mean diagonal and B C; both share one half gap
    params = ModelParams(hbar_omega=hw, epsilon=eps, rho=rho, theta=theta, n_qes=3, phi=phi)
    if rho == 0:
        seed, half_gap = 3 * hw - eps / 2, (hw - eps) / 2
        chains = ((hw / 2, 4 * theta**2 / 9), (3 * hw / 2, 2 * theta**2 / 9))
    else:
        seed, half_gap = hw - eps / 2, hw - eps / 2
        chains = ((hw, 2 * phi * rho**2), (2 * hw, 6 * phi * rho**2))
    expected = [seed] + [
        mean + sign * math.sqrt(half_gap**2 + bc) for mean, bc in chains for sign in (-1, 1)
    ]
    npt.assert_allclose(truncation_spectrum(params), sorted(expected), atol=1e-12)


CHAIN_GRID = [
    dict(rho=0.0, theta=1.2),
    dict(rho=0.0, c=0.3, c_hat=-1.9),
    dict(rho=0.7, theta=0.0),  # c_hat = -theta/n = 0
    dict(rho=2.0, c=0.3, c_hat=0.0),
    dict(rho=0.0, theta=0.0),  # both limits at once
    dict(rho=0.0, c=0.0, c_hat=0.0),
]


def exact_chain_table(params):
    """The seeded level and the chain blocks (up diag, down diag, B C) of a
    decoupled limit in exact rationals, written out block by block: the
    oracle of `critical_polynomial`'s continuant over the step table."""
    n, phi = params.big_n + 2, params.phi
    hw, eps, rho, c, c_hat = params.exact_qes_params()
    if rho == 0 and c_hat == 0:
        return hw - eps / 2, []
    if rho == 0:
        # the decoupled top of the lower tower is the seeded level
        return hw * n - eps / 2, [
            (hw * (j + 1) + eps / 2, hw * (j + 2) - eps / 2, c * c_hat * (j + 2 - n) ** 2 * (j + 2))
            for j in range(-1, n - 2)
        ]
    return hw - eps / 2, [
        (hw * j + eps / 2, hw * (j + 2) - eps / 2, phi * rho**2 * (j + 1) * (j + 2))
        for j in range(n - 1)
    ]


def chain_product(params):
    """(E - level) prod [(E - up)(E - down) - B C] over `exact_chain_table`,
    by the reference product on Fraction lists."""
    level, blocks = exact_chain_table(params)
    ref = [-level, Fraction(1)]
    for up, down, bc in blocks:
        ref = ref_mul(ref, [up * down - bc, -(up + down), 1])
    return ref


@pytest.mark.parametrize("big_n", range(13))
def test_decoupled_critical_polynomial_is_the_chain_product(big_n):
    # the chain product, in canonical fields
    n = big_n + 2
    for phi in (1, -1):
        for hw, eps in ((1.0, 1.0), (0.37, -2.25), (3.0, 0.0)):
            for kw in CHAIN_GRID:
                params = ModelParams(hbar_omega=hw, epsilon=eps, phi=phi, n_qes=n, **kw)
                poly = critical_polynomial(params)
                assert canonical_coefficients(poly) == chain_product(params), (phi, hw, eps, kw)
                both = params.rho == 0 and params.qes_couplings()[1] == 0
                assert poly.degree == (1 if both else 2 * n - 1)


def test_vanishing_theta_reduces_to_two_photon_roots():
    params = ModelParams(rho=0.4, theta=0.0, n_qes=4, phi=1)
    roots = truncation_spectrum(params)
    two_photon = ModelParams(rho=0.4, phi=1, k=2)
    expected = [0.5]  # seeded |1, down> level at hw - eps/2
    for t in range(3):
        expected.extend(doublet_eigenvalues(doublet_block(two_photon, t)))
    npt.assert_allclose(roots, sorted(np.real(expected)), atol=1e-12)


@pytest.mark.parametrize("phi", [-1, 1])
@pytest.mark.parametrize("big_n", [1, 2, 3, 4])
def test_roots_are_subset_of_algebraic_spectrum(phi, big_n):
    for rho in (0.0, 0.5, 1.0):
        for theta in (0.0, 0.5, 1.0):
            params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
            w = algebraic_eigenvalues(params)
            roots = critical_roots(params)
            expected = 2 * params.n_qes - 1 if (rho, theta) != (0.0, 0.0) else 1
            assert len(roots) == expected
            for r in roots:
                assert np.min(np.abs(w - r)) < 1e-8


def qes_mismatch(params):
    """Worst distance of `critical_roots` from the QES levels less the
    decoupled -eps/2 one (inf on a count mismatch)."""
    levels = algebraic_eigenvalues(params)
    seeded = int(np.argmin(np.abs(levels + 0.5 * params.epsilon)))
    return spectrum_mismatch(critical_roots(params), np.delete(levels, seeded))


@pytest.mark.parametrize("phi", [-1, 1])
@pytest.mark.parametrize("big_n", range(5, 13))
def test_roots_are_the_algebraic_spectrum_at_strong_coupling(phi, big_n):
    for rho in (0.8, 1.2, 2.0):
        for theta in (0.5, 1.2, 2.5):
            params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
            mismatch = qes_mismatch(params)
            assert mismatch <= 1e-9, (rho, theta, mismatch)


@pytest.mark.parametrize("phi", [-1, 1])
@pytest.mark.parametrize("big_n", [*range(1, 21), 40])
def test_roots_are_the_algebraic_spectrum_at_every_coupling(phi, big_n):
    # np.roots seeds on the monomial coefficients went wrong at weak coupling
    # and from N = 14 on; the tridiagonal seeds stay right on the whole grid
    grid = [(rho, theta) for rho in (0.05, 0.3, 0.7, 1.5) for theta in (0.4, 1.2, 2.0)]
    for rho, theta in grid if big_n <= 20 else [(0.7, 1.2)]:
        params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
        mismatch = qes_mismatch(params)
        assert mismatch <= 1e-9, (rho, theta, mismatch)


def test_doubly_decoupled_limit_keeps_only_seeded_level():
    params = ModelParams(rho=0.0, theta=0.0, n_qes=5, phi=-1, hbar_omega=0.75)
    npt.assert_array_equal(truncation_spectrum(params), [0.25])


def test_multiple_root_is_polished_through_linear_convergence():
    # at rho = 1, theta = 0, phi = +1 every lower doublet branch passes
    # through E = -1/2 simultaneously, so the critical polynomial has a
    # 5-fold root there; the accelerated Newton must still deliver it to
    # full precision
    params = ModelParams(rho=1.0, theta=0.0, n_qes=6, phi=1)
    roots = critical_roots(params)
    cluster = roots[np.abs(roots - (-0.5)) < 1e-6]
    assert len(cluster) == 5
    npt.assert_allclose(cluster.real, -0.5, atol=1e-10)
    npt.assert_allclose(cluster.imag, 0.0, atol=1e-10)


def test_newton_cap_keeps_every_weak_coupling_root():
    # the weak cell: np.roots seeds of its near-defective clusters used all
    # 80 Newton steps and polished onto non-roots; the tridiagonal seeds give
    # all 2n - 1 roots, each a QES level
    params = ModelParams(rho=0.05, theta=0.4, n_qes=12, phi=-1)
    assert len(critical_roots(params)) == 23
    assert qes_mismatch(params) <= 1e-9
    # the cap itself stays silent: from 3, Newton on (E - 1)**5 shrinks the
    # error by 4/5 a step, and the polish returns its 80th iterate
    quintic = EnergyPolynomial.from_coefficients([-1, 5, -10, 10, -5, 1])
    root = qjc.recurrence._newton_exact(quintic, complex(3.0))
    assert root.imag == 0.0 and root.real - 1 == pytest.approx(2 * 0.8**80, rel=1e-6)


@pytest.mark.parametrize("big_n", range(1, 13))
def test_mirrored_conjugate_polish_equals_polishing_every_seed(big_n):
    # critical_roots polishes one seed of each conjugate pair; polishing
    # every tridiagonal seed on its own must give the same bytes
    for phi in (1, -1):
        for rho in (0.05, 0.3, 0.7, 1.5):
            for theta in (0.4, 1.2, 2.0):
                params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
                state = run_to_critical(params)
                polished = []
                for seed in qjc.recurrence._seeds(state.steps):
                    x = qjc.recurrence._newton_exact(state.critical, complex(seed))
                    if abs(x.imag) < ROOT_IMAG_TOL * max(1.0, abs(x)):
                        x = complex(x.real)
                    polished.append(x)
                every = np.array(polished)
                every = every[np.lexsort((every.imag, every.real))]
                assert critical_roots(params).tobytes() == every.tobytes(), params


def _roots_below_match_exact_count(params):
    """At every midpoint of the sorted critical roots (and beyond both ends)
    the roots below it number `count_below`'s levels less the -eps/2 one."""
    found = critical_roots(params)
    roots = np.sort(found.real)
    points = [roots[0] - 1.0, *((roots[1:] + roots[:-1]) / 2), roots[-1] + 1.0]
    for point in points:
        seeded = -params.epsilon / 2 < point
        assert int(np.sum(roots < point)) == count_below(params, point) - seeded, point
    assert np.all(found.imag == 0.0), "the real family's roots must come out real"


def _strong_real_family():
    rng = np.random.default_rng(2024)
    for big_n in range(1, 13):
        for _ in range(2):
            rho, theta = rng.uniform(0.8, 2.0), rng.uniform(0.1, 3.0)
            yield ModelParams(rho=float(rho), theta=float(theta), n_qes=big_n + 2, phi=1)


@pytest.mark.parametrize(
    "params", list(_strong_real_family()), ids=lambda p: f"N{p.big_n}-rho{p.rho:.3f}"
)
def test_critical_roots_agree_with_exact_count_at_strong_coupling(params):
    # phi = +1, c c_hat > 0: every level is real and simple, and count_below
    # counts them exactly
    _roots_below_match_exact_count(params)


def test_critical_roots_agree_with_exact_count_at_weak_coupling():
    _roots_below_match_exact_count(ModelParams(rho=0.3, theta=1.2, n_qes=14, phi=1))


def test_float_range_overflow_is_a_numerical_error():
    # every step divides by rho, so at rho = 1e-80 exact coefficients pass
    # 1e308: their floats are refused by name, yet the roots, seeded from the
    # step table and polished on the exact polynomial, are the QES levels
    params = ModelParams(rho=1e-80, theta=1.0, n_qes=5, phi=1)
    with pytest.raises(NumericalError, match="float range"):
        critical_polynomial(params).float_coefficients()
    assert qes_mismatch(params) <= 1.8e-15


@pytest.mark.parametrize("kw", [dict(rho=1e200, theta=1.0), dict(rho=1.0, theta=1.0, hbar_omega=1e308)])
def test_step_coefficients_beyond_the_float_range_are_a_numerical_error(kw):
    # rho**2 or hw (j + 2) leaves the float range in the seed tridiagonal
    with pytest.raises(NumericalError, match="float range"):
        critical_roots(ModelParams(n_qes=5, phi=1, **kw))


@pytest.mark.parametrize("rho", [1e160, 1e200, 1e300])
def test_a_chain_limit_beyond_the_float_range_is_a_numerical_error(rho):
    # at c_hat = 0 the chain blocks rank on B C = phi rho^2 (j + 1)(j + 2):
    # an inf there, not an OverflowError, and the exact record refuses by name
    params = ModelParams(rho=rho, theta=0.0, n_qes=4)
    with pytest.raises(NumericalError, match="float range"):
        reconstruct_eigenvector(params, 0.5, TruncatedFockSpace(16, 4))


def test_conjugate_root_pairs_for_flipped_sign():
    params = ModelParams(rho=1.0, theta=0.5, n_qes=3, phi=-1)
    roots = critical_roots(params)
    complexes = roots[np.abs(roots.imag) > 1e-10]
    assert len(complexes) > 0 and len(complexes) % 2 == 0
    ups = np.sort_complex(complexes[complexes.imag > 0])
    downs = np.sort_complex(np.conj(complexes[complexes.imag < 0]))
    npt.assert_allclose(ups, downs, rtol=1e-12)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruction_certifies_and_stays_in_subspace():
    params = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=-1)
    h = build_ht(params, SPACE)
    inside = set(range(3)) | set(range(32, 32 + 5))
    for root in critical_roots(params):
        psi = reconstruct_eigenvector(params, root, SPACE)
        res = np.linalg.norm(h.matrix @ psi - root * psi)
        assert res <= 1e-9
        outside = [i for i in range(SPACE.dim) if i not in inside]
        assert np.max(np.abs(psi[outside])) == 0.0


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("big_n", range(7))
@pytest.mark.parametrize(
    "rho, theta", [(0.7, 1.2), (0.0, 1.5), (0.8, 0.0), (0.0, 0.0)],
    ids=["generic", "rho-zero", "chat-zero", "both-limits"],
)
def test_reconstructed_vectors_live_on_the_gate_support(rho, theta, big_n, phi):
    # the gate computes its residual on the rows that up |0..n-2> and
    # down |0..n> reach, so every vector must vanish outside them
    params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
    n = big_n + 2
    inside = {basis_index(SPACE, j, SPIN_UP) for j in range(n - 1)}
    inside |= {basis_index(SPACE, m, SPIN_DOWN) for m in range(n + 1)}
    outside = [i for i in range(SPACE.dim) if i not in inside]
    returned = 0
    for root in critical_roots(params):
        try:
            psi = reconstruct_eigenvector(params, root, SPACE)
        except NumericalError as err:
            assert "reconstruction residual" in str(err)  # the 1e-9 gate, not the support
            continue
        assert not np.any(psi[outside])
        returned += 1
    assert returned


def test_reconstruction_refuses_a_vector_off_the_gate_support(monkeypatch):
    params = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=-1)
    leaky = qjc.recurrence._series_vector

    def off_support(*args):
        psi = leaky(*args)
        psi[basis_index(SPACE, 20, SPIN_UP)] = 1e-300  # far below the 1e-9 gate
        return psi

    monkeypatch.setattr(qjc.recurrence, "_series_vector", off_support)
    with pytest.raises(NumericalError, match="outside the support"):
        reconstruct_eigenvector(params, critical_roots(params)[0], SPACE)


def test_reconstruction_matches_algebraic_eigenvectors():
    from qjc.qes import algebraic_spectrum, build_subspace, embed_subspace_vector

    params = ModelParams(rho=0.5, theta=0.5, n_qes=4, phi=-1)
    sub = build_subspace(params, SPACE)
    pairs = algebraic_spectrum(sub, params)
    for root in critical_roots(params):
        psi = reconstruct_eigenvector(params, root, SPACE).astype(complex)
        partners = [
            embed_subspace_vector(sub, q.vector, SPACE)
            for q in pairs
            if abs(q.energy - root) < 1e-8 and q.vector is not None
        ]
        overlap = max(
            abs(np.vdot(v, psi)) / np.linalg.norm(v) for v in partners
        )
        assert overlap >= 1 - 1e-10


def test_reconstruction_of_complex_roots():
    params = ModelParams(rho=1.0, theta=0.5, n_qes=3, phi=-1)
    roots = critical_roots(params)
    complex_roots = roots[np.abs(roots.imag) > 1e-8]
    h = build_ht(params, SPACE)
    for root in complex_roots:
        psi = reconstruct_eigenvector(params, root, SPACE)
        assert np.iscomplexobj(psi)
        assert np.linalg.norm(h.matrix @ psi - root * psi) <= 1e-9


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("big_n", [1, 2, 3])
def test_reconstruction_builds_one_series_per_call(monkeypatch, big_n, phi):
    params = ModelParams(rho=0.7, theta=1.2, n_qes=big_n + 2, phi=phi)
    roots = critical_roots(params)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_to_critical(*args, **kwargs)

    monkeypatch.setattr(qjc.recurrence, "run_to_critical", counted)
    for root in roots:
        calls.clear()
        reconstruct_eigenvector(params, root, SPACE)
        assert len(calls) == 1


def _clear_caches():
    run_to_critical.cache_clear()
    qjc.models.invariant_subspace.cache_clear()


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("big_n", range(1, 7))
def test_all_roots_share_one_series_and_one_matrix(monkeypatch, big_n, phi):
    # generic couplings and the rho = 0, c_hat = 0 and doubly decoupled
    # limits alike: one exact build (one step table) serves the roots and
    # every vector
    builds, tables = [], []
    steps = qjc.recurrence._steps

    def counted(*args):
        builds.append(args)
        return build_ht(*args)

    def counted_steps(params):
        tables.append(params)
        return steps(params)

    monkeypatch.setattr(qjc.models, "build_ht", counted)
    monkeypatch.setattr(qjc.recurrence, "_steps", counted_steps)
    for rho, theta in ((0.7, 1.2), (0.0, 1.5), (0.8, 0.0), (0.0, 0.0)):
        params = ModelParams(rho=rho, theta=theta, n_qes=big_n + 2, phi=phi)
        builds.clear()
        tables.clear()
        _clear_caches()
        for root in critical_roots(params):
            try:
                reconstruct_eigenvector(params, root, SPACE)
            except NumericalError:
                pass  # a failed gate has read the matrix all the same
        assert run_to_critical.cache_info().misses == 1, (rho, theta)
        assert len(tables) == 1 and len(builds) == 1, (rho, theta)


def test_interleaved_params_match_a_fresh_cache():
    a = (ModelParams(rho=0.7, theta=1.2, n_qes=5, phi=1), SPACE)
    b = (ModelParams(rho=1.6, theta=0.5, n_qes=4, phi=-1), TruncatedFockSpace(24, 8))

    def vectors(params, space, fresh):
        out = []
        for root in critical_roots(params):
            if fresh:
                _clear_caches()
            out.append(reconstruct_eigenvector(params, root, space).tobytes())
        return out

    expected = {case: vectors(*case, fresh=True) for case in (a, b)}
    for case in (a, b, a):
        assert vectors(*case, fresh=False) == expected[case]


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("big_n", [1, 4, 9])
def test_float_phi_gives_the_exact_series(big_n, phi):
    exact = ModelParams(rho=0.7, theta=1.2, n_qes=big_n + 2, phi=phi)
    floated = ModelParams(rho=0.7, theta=1.2, n_qes=big_n + 2.0, phi=float(phi))
    assert type(floated.phi) is type(floated.n_qes) is int
    _clear_caches()
    alone = run_to_critical(floated)
    _clear_caches()
    assert run_to_critical(exact) == alone
    assert critical_polynomial(floated) == critical_polynomial(exact)
    assert critical_roots(floated).tobytes() == critical_roots(exact).tobytes()


def test_reconstructed_vector_is_the_callers_own():
    params = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=-1)
    root = critical_roots(params)[0]
    psi = reconstruct_eigenvector(params, root, SPACE)
    expected = psi.copy()
    assert psi.flags.writeable
    psi[:] = 7.0
    npt.assert_array_equal(reconstruct_eigenvector(params, root, SPACE), expected)
    assert not qjc.models.invariant_subspace(params, SPACE).slab.flags.writeable
    assert build_ht(params, SPACE).matrix.flags.writeable


def test_reconstruction_refuses_non_roots():
    params = ModelParams(rho=0.8, theta=1.2, n_qes=4, phi=-1)
    with pytest.raises(ValidationError, match="not a truncation root"):
        reconstruct_eigenvector(params, 0.123456, SPACE)


@pytest.mark.parametrize("big_n, rho", [(2, 1e-100), (1, 1e-100), (1, 1e-140)])
def test_reconstruction_refuses_a_series_vector_whose_norm_overflows(big_n, rho):
    # the weak-coupling series grows past 1.8e308: its norm is inf, so the
    # relative residual is nan and psi / norm the zero vector
    params = ModelParams(rho=rho, theta=1.2, n_qes=big_n + 2, phi=-1)
    refused = 0
    for root in critical_roots(params):
        try:
            psi = reconstruct_eigenvector(params, root, SPACE)
        except NumericalError as err:
            assert "reconstruction gate" in str(err) and "float range" in str(err)
            refused += 1
        else:
            assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert refused > 0


def test_series_scaling_beyond_the_float_range_is_a_numerical_error():
    # sqrt(j!) keeps its float bits up to j = 170, where j! still fits; the
    # path-order helper refuses 171! by name instead of an OverflowError
    space = TruncatedFockSpace(200, 8)
    one = EnergyPolynomial((1,))
    psi = qjc.recurrence._series_vector((one,) * 340, 0.5, space)
    for photon in range(171):
        scale = math.sqrt(math.factorial(photon))
        if photon <= 169:  # upper |j> holds y_{2j+1}, up to y_339 = pt_169
            assert psi[basis_index(space, photon, SPIN_UP)] == scale
        if photon >= 1:  # lower |j+2> holds y_{2j+2}, from y_0 = qt_{-1}
            assert psi[basis_index(space, photon, SPIN_DOWN)] == scale
    with pytest.raises(NumericalError, match=r"sqrt\(171!\).*float range"):
        qjc.recurrence._series_vector((one,) * 341, 0.5, space)


def test_reconstruction_in_decoupled_limits():
    for case in DECOUPLED:
        hw, eps, rho, theta, phi = case.values
        params = ModelParams(hbar_omega=hw, epsilon=eps, rho=rho, theta=theta, n_qes=3, phi=phi)
        h = build_ht(params, SPACE)
        for root in truncation_spectrum(params):
            psi = reconstruct_eigenvector(params, root, SPACE)
            assert np.linalg.norm(h.matrix @ psi - root * psi) <= 1e-12


@pytest.mark.parametrize(
    "theta, n_qes, root, photon",
    [
        # fully decoupled: only the seeded |1, down> level
        (0.0, 3, 0.5, 1),
        # theta/n underflows to c_hat = -0.0 in floats but not exactly, so
        # this is the rho = 0 limit, whose seeded level is |n, down>
        (5e-324, 4, 3.5, 4),
    ],
)
def test_seeded_level_reconstructs_onto_its_photon(theta, n_qes, root, photon):
    params = ModelParams(rho=0.0, theta=theta, n_qes=n_qes, phi=-1)
    assert params.qes_couplings()[1] == 0.0
    psi = reconstruct_eigenvector(params, root, SPACE)
    expected = np.zeros(SPACE.dim)
    expected[basis_index(SPACE, photon, SPIN_DOWN)] = 1.0
    npt.assert_array_equal(psi, expected)


@pytest.mark.parametrize("rho", [0.5, 0.0])
def test_reconstruction_rejects_one_sided_override(rho):
    # at rho = 0 this is the doubly decoupled limit, refused by name as well
    params = ModelParams(rho=rho, theta=0.0, n_qes=3, phi=-1, c=0.3, c_hat=0.0)
    root = truncation_spectrum(ModelParams(rho=rho, theta=0.0, n_qes=3, phi=-1))[0]
    with pytest.raises(ValidationError, match="c_hat = 0"):
        reconstruct_eigenvector(params, root, SPACE)


# ---------------------------------------------------------------------------
# residual locality


def partial_residual_support(params, order, energy, space):
    """Support of the residual of the half-step partial sum (p through J+1, q through J).

    For generic E every interior equation is satisfied by construction, so
    the residual sits exactly on the two frontier states |J+1, up> and
    |J+3, down> -- the invariant that makes the recurrence a solution method.
    """
    # p_j = sqrt(j!) pt_j with pt_j = y_{2j+1}, q_j = sqrt((j+2)!) qt_j with qt_j = y_{2j+2}
    series = run_to_critical(params).series
    psi = np.zeros(space.dim)
    for j in range(0, order + 2):
        psi[basis_index(space, j, SPIN_UP)] = math.sqrt(math.factorial(j)) * series[2 * j + 1](energy)
    for j in range(-1, order + 1):
        psi[basis_index(space, j + 2, SPIN_DOWN)] = (
            math.sqrt(math.factorial(j + 2)) * series[2 * j + 2](energy)
        )
    residual = build_ht(params, space).matrix @ psi - energy * psi
    return np.nonzero(np.abs(residual) > 1e-10 * max(1.0, np.max(np.abs(residual))))[0]


@given(
    order=st.integers(min_value=0, max_value=3),
    energy=st.floats(-2.0, 4.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_partial_sum_residual_is_frontier_local(order, energy):
    params = ModelParams(rho=0.8, theta=1.2, n_qes=7, phi=-1)
    support = partial_residual_support(params, order, energy, SPACE)
    # generic E: residual exactly on the two frontier states; a measure-zero
    # set of energies can null one component, never add one
    frontier = {order + 1, 32 + order + 3}
    assert set(support) <= frontier


def test_partial_sum_residual_hits_both_frontier_states_generically():
    params = ModelParams(rho=0.8, theta=1.2, n_qes=7, phi=-1)
    support = partial_residual_support(params, 2, 0.7331, SPACE)
    assert set(support) == {3, 32 + 5}


def test_series_requires_qes_model():
    with pytest.raises(ValidationError):
        run_to_critical(ModelParams(rho=0.5, phi=-1))
    with pytest.raises(ValidationError):
        critical_polynomial(ModelParams(rho=0.5, phi=-1))
    # a decoupled limit is no refusal: its record holds the continuant
    # (the chain product) and no series, exact data only
    for kw in CHAIN_GRID:
        params = ModelParams(n_qes=3, phi=-1, **kw)
        state = run_to_critical(params)
        assert canonical_coefficients(state.critical) == chain_product(params), kw
        assert state.series == (), kw
    assert [field.name for field in dataclasses.fields(state)] == ["steps", "critical", "series"]


def test_chain_vector_falls_back_where_its_first_pair_vanishes():
    # rho = 0 with c = 0: every block has B = 0, so at a root on its upper
    # diagonal the pair (B, E - up) is (0, 0) and the vector is the
    # normalized (E - down, C), C = c_hat (j + 2 - n) sqrt(j + 2)
    hw, eps, theta, n = 1.3, 1.0, 1.5, 4
    params = ModelParams(hbar_omega=hw, epsilon=eps, theta=theta, c=0.0, n_qes=n)
    c_hat = -theta / n
    for j, energy in ((-1, 0.5), (0, 1.8), (1, 3.1)):
        assert energy == hw * (j + 1) + eps / 2 and energy in critical_roots(params)
        pair = np.array([energy - (hw * (j + 2) - eps / 2), c_hat * (j + 2 - n) * math.sqrt(j + 2)])
        expected = np.zeros(SPACE.dim)
        expected[basis_index(SPACE, j + 1, SPIN_UP)] = pair[0]
        expected[basis_index(SPACE, j + 2, SPIN_DOWN)] = pair[1]
        got = reconstruct_eigenvector(params, energy, SPACE)
        npt.assert_allclose(got, expected / np.linalg.norm(pair), rtol=0, atol=1e-15)
