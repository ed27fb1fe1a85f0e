"""Doublet/singlet formulas checked against direct 2x2 diagonalization."""

import cmath
import dataclasses
import decimal
import math
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

import qjc.closedform
from qjc._linalg import eig_checked
from qjc.closedform import (
    closed_form_tracks,
    doublet_block,
    doublet_coalescence_rho,
    doublet_eigenvalues,
    doublet_eigenvectors,
    full_algebraic_spectrum,
    mixing_angle,
    normalize,
    transfer_amplitude,
)
from qjc.errors import NumericalError, ValidationError
from qjc.fock import SPIN_DOWN, SPIN_UP, TruncatedFockSpace, basis_index
from qjc.models import ModelParams, build_extended


def charpoly_eigenvalues(block):
    """Independent route: solve the secular quadratic directly.

    Uses the numerically stable splitting q = -(b + sign(b) sqrt(disc)) / 2
    for lambda^2 + b lambda + c, then the product rule for the second root.
    """
    b = -float(np.trace(block.matrix))
    c = float(np.linalg.det(block.matrix))
    disc = cmath.sqrt(b * b - 4.0 * c)
    q = -0.5 * (b + disc) if b >= 0.0 else -0.5 * (b - disc)
    return [complex(-0.5 * b)] * 2 if q == 0.0 else [q, c / q]


def test_transfer_amplitude():
    assert transfer_amplitude(0, 1) == 1.0
    assert transfer_amplitude(0, 2) == pytest.approx(math.sqrt(2.0))
    assert transfer_amplitude(0, 3) == pytest.approx(math.sqrt(6.0))
    assert transfer_amplitude(3, 2) == pytest.approx(math.sqrt(20.0))


def test_two_photon_ground_doublet_closed_form():
    # lambda = (2 +- sqrt(1 + 8 rho^2)) / 2 at eps = hw = 1, k = 2, n = 0,
    # verified against a direct numpy diagonalization of the same block.
    for rho in (0.0, 0.3, 1.0, 2.5):
        params = ModelParams(epsilon=1.0, rho=rho, k=2, phi=1)
        block = doublet_block(params, 0)
        lam_1, lam_2 = doublet_eigenvalues(block)
        root = math.sqrt(1.0 + 8.0 * rho * rho)
        assert lam_1.real == pytest.approx((2.0 + root) / 2.0, rel=1e-14)
        assert lam_2.real == pytest.approx((2.0 - root) / 2.0, rel=1e-14)
        numeric = sorted(np.linalg.eigvals(block.matrix).real, reverse=True)
        assert_allclose([lam_1.real, lam_2.real], numeric, rtol=1e-12)


def test_lower_branch_hits_minus_half_at_rho_one():
    params = ModelParams(epsilon=1.0, rho=1.0, k=2, phi=1)
    _, lam_2 = doublet_eigenvalues(doublet_block(params, 0))
    assert lam_2.real == pytest.approx(-0.5, abs=1e-14)


def test_charpoly_route_agrees_with_radical_route():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = ModelParams(
            epsilon=float(rng.uniform(0.1, 3.0)),
            hbar_omega=float(rng.uniform(0.5, 2.0)),
            rho=float(rng.uniform(0.0, 2.0)),
            k=int(rng.integers(1, 4)),
            phi=int(rng.choice([-1, 1])),
        )
        block = doublet_block(params, int(rng.integers(0, 12)))
        direct = doublet_eigenvalues(block)
        charp = charpoly_eigenvalues(block)
        for a in direct:
            nearest = min(abs(a - b) for b in charp)
            assert nearest <= 1e-12 * max(1.0, abs(a))


def test_exceptional_point_two_photon():
    # Discriminant zero at rho = |hw k - eps| / (2 sqrt((n+1)...(n+k))):
    # for k = 2, eps = 1 this is 1/(2 sqrt(2)) at n = 0 and 1/(2 sqrt(6))
    # at n = 1, with the degenerate eigenvalue equal to the block mean.
    params = ModelParams(epsilon=1.0, rho=1.0, k=2, phi=-1)
    assert doublet_coalescence_rho(params, 0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15
    )
    assert doublet_coalescence_rho(params, 1) == pytest.approx(
        1.0 / (2.0 * math.sqrt(6.0)), rel=1e-15
    )
    at_star = ModelParams(epsilon=1.0, rho=1.0 / (2.0 * math.sqrt(2.0)), k=2, phi=-1)
    lam_1, lam_2 = doublet_eigenvalues(doublet_block(at_star, 0))
    # the pair is defective here, so eigenvalues respond to the one-ulp
    # rounding of rho* with square-root sensitivity: sqrt(eps) ~ 1.5e-8
    assert lam_1 == pytest.approx(1.0, abs=1e-7)
    assert lam_2 == pytest.approx(1.0, abs=1e-7)
    assert doublet_coalescence_rho(ModelParams(k=2, phi=1), 0) is None


def test_complex_pair_past_exceptional_point():
    params = ModelParams(epsilon=1.0, rho=0.5, k=2, phi=-1)
    lam_1, lam_2 = doublet_eigenvalues(doublet_block(params, 0))
    assert lam_1.imag > 0.0
    assert lam_1 == lam_2.conjugate()
    assert lam_1.real == pytest.approx(1.0)  # block mean stays real


def test_rho_independent_levels_are_exact_eigenvectors():
    space = TruncatedFockSpace(cutoff=24, guard=6)
    params = ModelParams(epsilon=0.8, rho=1.7, k=3, phi=-1, poly=(0.0, 0.0, 0.5))
    h = build_extended(params, space).matrix
    levels = [level for level in full_algebraic_spectrum(params, space) if level.branch is None]
    assert [level.label for level in levels] == ["singlet:0", "singlet:1", "singlet:2"]
    for j, level in enumerate(levels):
        assert level.energy == pytest.approx(j + 0.5 * j * j - 0.4)
        vec = np.zeros(space.dim)
        vec[basis_index(space, j, SPIN_DOWN)] = 1.0
        assert_allclose(h @ vec, level.energy.real * vec, atol=1e-13)


def test_trig_angle_identity_and_vectors():
    rng = np.random.default_rng(11)
    for _ in range(100):
        eps = float(rng.uniform(0.1, 3.0))
        hw = float(rng.uniform(0.5, 2.0))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(0, 10))
        gap = abs(hw * k - eps)
        if gap == 0.0:
            continue
        amp = transfer_amplitude(n, k)
        rho = float(rng.uniform(0.0, 0.999)) * gap / (2.0 * amp)
        params = ModelParams(epsilon=eps, hbar_omega=hw, rho=rho, k=k, phi=-1)
        block = doublet_block(params, n)
        angle = mixing_angle(block)
        assert angle.trig
        lam_1, lam_2 = doublet_eigenvalues(block)
        # through the angle: mean +- gap cos(theta) / 2
        mean = 0.5 * float(np.trace(block.matrix))
        stretch = 0.5 * block.gap * math.cos(angle.value)
        assert mean + stretch == pytest.approx(lam_1.real, abs=1e-12 * max(1.0, abs(lam_1)))
        assert mean - stretch == pytest.approx(lam_2.real, abs=1e-12 * max(1.0, abs(lam_2)))
        psi_1, psi_2 = doublet_eigenvectors(block, angle)
        r_1 = block.matrix @ psi_1 - lam_1.real * psi_1
        r_2 = block.matrix @ psi_2 - lam_2.real * psi_2
        assert np.linalg.norm(r_1) <= 1e-12 * max(1.0, abs(lam_1))
        assert np.linalg.norm(r_2) <= 1e-12 * max(1.0, abs(lam_2))
        # the two trig vectors are unit but deliberately not orthogonal
        overlap = float(psi_1 @ psi_2)
        assert overlap == pytest.approx(math.sin(angle.value), abs=1e-12)


def test_hyperbolic_vectors_orthogonal_both_gap_signs():
    for eps in (0.3, 2.7):  # gap = hw*k - eps changes sign across these
        params = ModelParams(epsilon=eps, rho=1.3, k=1, phi=1)
        block = doublet_block(params, 2)
        angle = mixing_angle(block)
        assert not angle.trig
        lam_1, lam_2 = doublet_eigenvalues(block)
        psi_1, psi_2 = doublet_eigenvectors(block, angle)
        assert_allclose(block.matrix @ psi_1, lam_1.real * psi_1, atol=1e-12)
        assert_allclose(block.matrix @ psi_2, lam_2.real * psi_2, atol=1e-12)
        # sinh*cosh - cosh*sinh cancels exactly up to dot-product FMA noise
        assert abs(float(psi_1 @ psi_2)) <= 1e-15


def test_decoupled_limit_vectors():
    params = ModelParams(epsilon=0.5, rho=0.0, k=2, phi=-1)
    block = doublet_block(params, 1)
    angle = mixing_angle(block)
    assert angle.value == 0.0
    psi_1, psi_2 = doublet_eigenvectors(block, angle)
    assert_allclose(psi_1, [0.0, 1.0], atol=0.0)
    assert_allclose(psi_2, [1.0, 0.0], atol=0.0)


def test_trigonometric_mixing_angle_at_zero_gap_and_zero_coupling_is_zero():
    # eps = k hw and rho = 0: a degenerate diagonal block, already diagonal
    block = doublet_block(ModelParams(epsilon=2.0, rho=0.0, k=2, phi=-1), 0)
    assert block.gap == 0.0 and block.coupling == 0.0
    angle = mixing_angle(block)
    assert angle.value == 0.0 and angle.trig


def test_mixing_angle_validity_borders():
    beyond = ModelParams(epsilon=1.0, rho=2.0, k=2, phi=-1)
    with pytest.raises(ValidationError):
        mixing_angle(doublet_block(beyond, 0))
    resonant = ModelParams(epsilon=2.0, rho=0.4, k=2, phi=1)  # gap = 0
    with pytest.raises(ValidationError):
        mixing_angle(doublet_block(resonant, 0))
    with pytest.raises(ValidationError):
        normalize(np.zeros(2))


def test_doublet_index_must_be_nonnegative():
    with pytest.raises(ValidationError, match="doublet index"):
        doublet_block(ModelParams(epsilon=1.0, rho=0.5, k=2), -1)


def test_lowest_six_levels_two_photon_decoupled():
    space = TruncatedFockSpace(cutoff=16, guard=4)
    params = ModelParams(epsilon=1.0, rho=0.0, k=2, phi=1)
    levels = sorted(
        level.energy.real for level in full_algebraic_spectrum(params, space)
    )[:6]
    assert_allclose(levels, [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5], atol=1e-14)


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("poly", [(), (0.0, 0.0, 1.0)])
def test_closed_form_matches_truncated_matrix_spectrum(phi, poly):
    space = TruncatedFockSpace(cutoff=32, guard=8)
    params = ModelParams(epsilon=0.5, rho=0.7, k=2, phi=phi, poly=poly)
    h = build_extended(params, space).matrix
    numeric, _ = eig_checked(h)
    for level in full_algebraic_spectrum(params, space):
        dist = np.min(np.abs(numeric - level.energy))
        assert dist <= 1e-9, f"{level.label}: nearest numeric {dist:.2e} away"


def test_spectrum_invariant_under_rho_sign_flip():
    space = TruncatedFockSpace(cutoff=24, guard=6)
    for rho in (0.4, 1.1):
        plus = full_algebraic_spectrum(
            ModelParams(epsilon=1.0, rho=rho, k=2, phi=-1), space
        )
        minus = full_algebraic_spectrum(
            ModelParams(epsilon=1.0, rho=-rho, k=2, phi=-1), space
        )
        for a, b in zip(plus, minus):
            assert a.label == b.label
            assert a.energy == b.energy


def test_embedded_doublet_vector_is_full_space_eigenvector():
    space = TruncatedFockSpace(cutoff=24, guard=6)
    params = ModelParams(epsilon=0.5, rho=0.9, k=2, phi=1)
    h = build_extended(params, space).matrix
    block = doublet_block(params, 3)
    angle = mixing_angle(block)
    lam_1, _ = doublet_eigenvalues(block)
    psi_1, _ = doublet_eigenvectors(block, angle)
    upper, lower = normalize(psi_1)
    full = np.zeros(space.dim)
    full[basis_index(space, block.n, SPIN_UP)] = upper
    full[basis_index(space, block.n + block.k, SPIN_DOWN)] = lower
    assert_allclose(h @ full, lam_1.real * full, atol=1e-12)


# ---------------------------------------------------------------------------
# closed_form_tracks against the scalar block route, bit for bit


def block_route_tracks(params, doublets, rho):
    """The reference: singlets j hw + P(j) - eps/2 in scalar floats, then
    doublet_eigenvalues(doublet_block(...)) per point."""
    singlets = [
        complex(params.hbar_omega * j + float(npoly.polyval(j, params.poly or [0.0])) - 0.5 * params.epsilon)
        for j in range(params.k)
    ]
    columns = []
    for value in rho:
        at = dataclasses.replace(params, rho=float(value))
        column = list(singlets)
        for n in range(doublets):
            column.extend(doublet_eigenvalues(doublet_block(at, n)))
        columns.append(column)
    return np.array(columns, dtype=complex).reshape(len(rho), -1).T


def assert_same_bits(actual, expected):
    # int64 views tell -0.0 from +0.0, which == does not
    assert actual.shape == expected.shape
    bits = np.ascontiguousarray(actual).view(np.int64)
    assert np.array_equal(bits, np.ascontiguousarray(expected).view(np.int64))


@pytest.mark.parametrize("poly", [(), (0.0, 0.0, 0.05), (0.0, 0.0, 0.01, 0.0, -4e-4)])
@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_form_tracks_equal_the_block_route_bit_for_bit(k, phi, poly):
    params = ModelParams(epsilon=0.7, k=k, phi=phi, poly=poly)
    doublets = 6
    # each doublet's exceptional point and its float neighbours, where the
    # discriminant passes zero, plus couplings just inside the float range
    flipped = dataclasses.replace(params, phi=-1)
    points = np.array([doublet_coalescence_rho(flipped, n) for n in range(doublets)])
    edge = math.sqrt(sys.float_info.max) / (2.0 * transfer_amplitude(doublets - 1, k))
    rho = np.concatenate(
        [
            np.linspace(0.0, 2.0, 41),
            points,
            np.nextafter(points, 0.0),
            np.nextafter(points, np.inf),
            edge * (1.0 - 1e-12 * np.arange(1, 4)),
        ]
    )
    assert_same_bits(closed_form_tracks(params, doublets, rho), block_route_tracks(params, doublets, rho))


@pytest.mark.parametrize("k, poly", [(2, ()), (3, (0.0, 0.0, 0.01, 0.0, -4e-4))])
@pytest.mark.parametrize("phi", [1, -1])
def test_closed_form_tracks_equal_the_block_route_at_the_spectrums_doublet_count(k, phi, poly):
    # `qjc spectrum --D 512` reads this many doublets in one array pass
    params = ModelParams(epsilon=0.7, k=k, phi=phi, poly=poly)
    space = TruncatedFockSpace(512)
    doublets = space.cutoff - space.guard - k
    assert len(full_algebraic_spectrum(params, space)) == k + 2 * doublets
    flipped = dataclasses.replace(params, phi=-1)
    points = np.array([doublet_coalescence_rho(flipped, n) for n in (1, doublets // 2, doublets - 1)])
    rho = np.concatenate([[0.0, 0.3, 1.7], points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])
    assert_same_bits(closed_form_tracks(params, doublets, rho), block_route_tracks(params, doublets, rho))


def test_closed_form_tracks_read_the_diagonals_in_one_call(monkeypatch):
    calls = []

    def counted(params, n):
        calls.append(np.shape(n))
        return diagonal(params, n)

    diagonal = qjc.closedform._diagonal
    monkeypatch.setattr(qjc.closedform, "_diagonal", counted)
    for doublets in (0, 1, 6, 502):
        calls.clear()
        closed_form_tracks(ModelParams(epsilon=0.7, k=2, poly=(0.0, 0.0, 0.05)), doublets, [0.0, 0.3])
        assert len(calls) == 1, doublets


@pytest.mark.parametrize("phi", [1, -1])
def test_closed_form_tracks_round_a_tiny_root_as_cmath_does(phi):
    # zero gap (eps = k hw), so the discriminant is 4 phi rho^2 (n+1)...(n+k),
    # in the band where cmath.sqrt rounds differently from sqrt (k = 1, as an
    # even (n+1)...(n+k) keeps |disc| / 8 exact); both paths take the same
    # prescaled real root there, whatever cmath does
    params = ModelParams(epsilon=1.0, k=1, phi=phi)
    rho = np.geomspace(1e-155, 1e-153, 400)
    blocks = [doublet_block(dataclasses.replace(params, rho=float(r)), n) for r in rho for n in range(3)]
    # each discriminant unscaled: the prescaled value times 4^-e
    discs = [abs(math.ldexp(value, -2 * e)) for value, e in (b.scaled_discriminant(b.rho) for b in blocks)]
    assert any(cmath.sqrt(d).real != math.sqrt(d) for d in discs)
    assert_same_bits(closed_form_tracks(params, 3, rho), block_route_tracks(params, 3, rho))


def test_the_closed_form_squares_in_ieee_arithmetic():
    # gap = 2.7266, where libm's pow rounds gap**2 one ulp off gap * gap
    params = ModelParams(epsilon=0.0545, hbar_omega=2.7811, k=1, rho=0.3)
    block = doublet_block(params, 0)
    g = block.gap
    # no prescale at this gap (e = 0); rho^2 (n+1) at n = 0, k = 1 is 0.3 * 0.3
    assert block.scaled_discriminant(block.rho) == (g * g + 4.0 * (0.3 * 0.3), 0)
    assert_same_bits(closed_form_tracks(params, 3, [0.3]), block_route_tracks(params, 3, [0.3]))


TINY = 1e-160  # every energy and coupling of figure 1 scaled by this


def decimal_doublets(params, doublets, rho):
    """Doublet rows (levels / TINY) at 60 digits from the same float diagonals."""
    with decimal.localcontext() as context:
        context.prec = 60
        rows = []
        for n in range(doublets):
            upper, lower = (decimal.Decimal(value) for value in qjc.closedform._diagonal(params, n))
            mean, gap = (upper + lower) / 2, lower - upper
            prod = decimal.Decimal(qjc.closedform._ladder_product(n, params.k))
            roots = [
                (gap * gap + 4 * params.phi * decimal.Decimal(float(r)) ** 2 * prod).sqrt() / 2
                for r in rho
            ]
            rows += [[(mean + root) / decimal.Decimal(TINY) for root in roots],
                     [(mean - root) / decimal.Decimal(TINY) for root in roots]]
        return np.array(rows, dtype=float)


@pytest.mark.parametrize("epsilon", [1.0, 2.0])  # 2.0: zero gap at n = 0
def test_a_tiny_scale_keeps_the_digits_of_the_unit_scale(epsilon):
    # gap^2 and rho^2 (n+1)(n+2) are subnormal here: squared unscaled, they
    # lost up to 4 digits of each level
    params = ModelParams(epsilon=epsilon * TINY, hbar_omega=TINY, k=2)
    rho = np.linspace(0.0, 2.0 * TINY, 201)
    tracks = closed_form_tracks(params, 4, rho)
    assert np.all(tracks[2:].imag == 0.0)
    error = np.abs(tracks[2:].real / TINY - decimal_doublets(params, 4, rho))
    assert error.max() <= 1e-14


@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("epsilon", [1.0, 2.0, 0.7])
def test_a_tiny_scale_is_the_block_route_bit_for_bit(phi, epsilon):
    params = ModelParams(epsilon=epsilon * TINY, hbar_omega=TINY, k=2, phi=phi)
    rho = np.concatenate([np.linspace(-2.0 * TINY, 2.0 * TINY, 81), [5e-324, 1e-300, 1e-200, 1e-150]])
    assert_same_bits(closed_form_tracks(params, 4, rho), block_route_tracks(params, 4, rho))


def test_closed_form_tracks_with_no_doublets_are_the_singlets():
    params = ModelParams(epsilon=0.7, k=3, poly=(0.0, 0.0, 0.05))
    rho = np.linspace(0.0, 1.0, 5)
    assert_same_bits(closed_form_tracks(params, 0, rho), block_route_tracks(params, 0, rho))


@pytest.mark.parametrize(
    "params, rho",
    [
        # coupling^2 overflows from doublet 3 on at the second coupling
        (ModelParams(k=3, phi=1), [0.5, math.sqrt(sys.float_info.max / 360.0), 1e200]),
        # rho^2 (n+1)...(n+k) overflows at the last point only
        (ModelParams(k=2, phi=-1), [0.0, 1.0, 1e160]),
        # gap^2 overflows at every coupling
        (ModelParams(k=1, phi=1, hbar_omega=1e155), [0.0, 1.0]),
        # a non-finite coupling fails ModelParams' check, as per point
        (ModelParams(k=2, phi=1), [0.0, math.nan, 1e200]),
    ],
)
def test_closed_form_tracks_raise_the_block_routes_error(params, rho):
    with pytest.raises((NumericalError, ValidationError)) as scalar:
        block_route_tracks(params, 5, rho)
    with pytest.raises((NumericalError, ValidationError)) as vector:
        closed_form_tracks(params, 5, rho)
    assert type(vector.value) is type(scalar.value)
    assert str(vector.value) == str(scalar.value)



@pytest.mark.parametrize(
    "params",
    [
        ModelParams(epsilon=0.7, k=2, phi=-1),
        ModelParams(epsilon=0.7, k=3, phi=1, poly=(0.0, 0.0, 0.05)),
        ModelParams(epsilon=2.0, k=2, phi=-1),  # zero gap at n = 0: eps = k hw
        ModelParams(k=1, phi=1, hbar_omega=1e155),  # gap^2 overflows
    ],
)
def test_discriminant_at_a_coupling_is_the_new_blocks_bit_for_bit(params):
    edge = math.sqrt(sys.float_info.max)
    for n in range(5):
        block = doublet_block(params, n)
        for rho in [0.0, -0.0, 5e-324, 1e-160, 0.3, 1 / 3, 1.7, -2.5, edge / 8, edge, 1e200]:
            outcomes = []

            def built_at_rho():  # the block built at rho, read at its own coupling
                built = doublet_block(dataclasses.replace(params, rho=rho), n)
                return built.scaled_discriminant(built.rho)

            for probe in (lambda: block.scaled_discriminant(rho), built_at_rho):
                try:
                    outcomes.append(repr(probe()))
                except NumericalError as err:
                    outcomes.append(f"NumericalError: {err}")
            assert outcomes[0] == outcomes[1], (n, rho)
