"""Sweep trajectories, crossing localization, and coalescence events."""

import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qjc.closedform
import qjc.flow
from qjc._linalg import eig_checked, eigvals_checked, spectrum_mismatch
from qjc.closedform import doublet_block, doublet_coalescence_rho
from qjc.errors import NumericalError, TrackingAmbiguityError, ValidationError
from qjc.flow import (
    PARAM_TOL,
    FlowEvent,
    SweepSpec,
    _advance,
    _assign_tracks,
    _bisect,
    _events,
    locate_coalescence,
    numeric_deviation,
    qes_theta_sweep,
    sweep,
)
from qjc.fock import TruncatedFockSpace
from qjc.models import ModelParams, build_extended
from qjc.qes import algebraic_eigenvalues, restriction_matrix
from qjc.symmetry import REALNESS_TOL, real_mask

REAL_EIG = scipy.linalg.eig
TWO_PHOTON = ModelParams(epsilon=1.0, k=2, phi=1)
FLIPPED = ModelParams(epsilon=1.0, k=2, phi=-1)


def theta_spec(rho, points=31, phi=1, stop=3.0):
    params = ModelParams(epsilon=1.0, rho=rho, n_qes=3, phi=phi)
    return SweepSpec(params=params, parameter="theta", start=0.0, stop=stop, points=points)


def test_spec_validation():
    with pytest.raises(ValidationError, match="'rho' or 'theta'"):
        SweepSpec(params=TWO_PHOTON, parameter="epsilon", start=0.0, stop=1.0, points=5)
    with pytest.raises(ValidationError, match="grid points"):
        SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=1.0, points=1)
    with pytest.raises(ValidationError, match="finite"):
        SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=np.inf, points=5)
    with pytest.raises(ValidationError, match="start < stop"):
        SweepSpec(params=TWO_PHOTON, parameter="rho", start=2.0, stop=1.0, points=5)


def test_spec_rejects_negative_doublets():
    with pytest.raises(ValidationError, match="doublets"):
        SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=1.0, points=5, doublets=-1)


def test_six_level_structure_at_zero_coupling():
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=81)
    result = sweep(spec)
    assert result.labels == (
        "singlet:0",
        "singlet:1",
        "doublet:0:I",
        "doublet:0:II",
        "doublet:1:I",
        "doublet:1:II",
    )
    npt.assert_allclose(
        np.sort(result.tracks[:, 0].real), [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5], atol=1e-14
    )
    assert np.max(np.abs(result.tracks[:, 0].imag)) == 0.0


def test_singlet_rows_are_exactly_constant():
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=41)
    result = sweep(spec)
    for label in ("singlet:0", "singlet:1"):
        row = result.track(label)
        assert np.max(np.abs(row - row[0])) == 0.0


def test_ground_state_changeover_at_rho_one():
    # the lower branch of every tracked doublet meets the -1/2 singlet at
    # rho = 1 (exactly: (2 - sqrt(1 + 8)) / 2 = -1/2); with 1.0 on the grid
    # the difference vanishes there and the event needs no bisection
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=81)
    events = sweep(spec).events
    hits = [
        e
        for e in events
        if e.labels == ("singlet:0", "doublet:0:II") and abs(e.value - 1.0) < 1e-7
    ]
    assert len(hits) == 1
    assert abs(hits[0].energy - (-0.5)) < 1e-7
    assert all(e.kind == "crossing" for e in events)  # phi=+1: no coalescence
    assert all(spec.start <= e.value <= spec.stop for e in events)


def test_crossing_is_bisected_when_off_grid():
    # 8 points over [0, 2] puts no grid point at rho = 1
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=8)
    assert not np.any(np.isclose(spec.grid(), 1.0))
    events = sweep(spec).events
    hits = [e for e in events if e.labels == ("singlet:0", "doublet:0:II")]
    assert len(hits) == 1
    assert abs(hits[0].value - 1.0) <= 1e-7
    assert hits[0].tolerance == 1e-8


def test_bisection_probes_build_only_the_two_rows_blocks(monkeypatch):
    # 100 crossings among ten doublets; rebuilding every tracked block at
    # each probe costs 11,360 blocks here, the two probed rows 2,828
    calls = []

    def counted(params, n):
        calls.append(n)
        return doublet_block(params, n)

    monkeypatch.setattr(qjc.closedform, "doublet_block", counted)
    monkeypatch.setattr(qjc.flow, "doublet_block", counted)
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=101, doublets=10)
    assert len(sweep(spec).events) == 100
    assert len(calls) <= 3000


def _events_by_loop(spec, grid, labels, tracks, pair, extra=()):
    """The reference for `_events`: every real pair, every grid step, one by
    one, each sign change bisected on the real parts of the two rows."""
    events = []
    real_row = np.all(real_mask(tracks), axis=1)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if not (real_row[i] and real_row[j]):
                continue
            diff = tracks[i].real - tracks[j].real
            for g in range(len(grid) - 1):
                if diff[g + 1] == 0.0:
                    if g + 1 == len(grid) - 1:
                        continue
                    value, energy = float(grid[g + 1]), complex(tracks[i, g + 1])
                    tolerance = 0.0
                elif np.sign(diff[g]) * np.sign(diff[g + 1]) < 0.0:

                    def gap(value):
                        e_i, e_j = pair(i, j, g, value)
                        return e_i.real - e_j.real

                    value = _bisect(gap, grid[g], grid[g + 1])
                    energy = next(iter(pair(i, j, g, value)))
                    tolerance = PARAM_TOL
                else:
                    continue
                events.append(
                    FlowEvent(
                        kind="crossing",
                        value=value,
                        energy=energy,
                        labels=(labels[i], labels[j]),
                        tolerance=tolerance,
                    )
                )
    events.extend(extra)
    events.sort(key=lambda e: e.value)
    return tuple(events)


@pytest.mark.parametrize(
    "spec",
    [
        # 100 crossings among ten doublets, the rho = 1 ones on the grid
        SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=101, doublets=10),
        # degeneracies on the last grid point, which are no events
        SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=1.0, points=41, doublets=3),
        # coalescences among the crossings, and rows that turn complex
        SweepSpec(params=FLIPPED, parameter="rho", start=0.0, stop=2.0, points=81, doublets=4),
        theta_spec(1.0, points=21),
    ],
)
def test_events_match_the_per_point_loop(monkeypatch, spec):
    compared = []

    def both(*args):
        events = _events(*args)
        compared.append((events, _events_by_loop(*args)))
        return events

    monkeypatch.setattr(qjc.flow, "_events", both)
    (sweep if spec.parameter == "rho" else qes_theta_sweep)(spec)
    [(events, reference)] = compared
    assert events and events == reference


def test_bisection_cap_raises_naming_param_tol():
    # floats near 1e9 are 1.2e-7 apart, wider than PARAM_TOL = 1e-8, so
    # halving stalls on two neighbouring floats around the sign change
    lo = 1e9
    assert np.spacing(lo) > PARAM_TOL
    with pytest.raises(NumericalError, match="PARAM_TOL"):
        _bisect(lambda x: x - lo - 3e-7, lo, lo + 1e-6)


def test_lower_branches_cross_each_other_at_rho_one_too():
    # (t+1) - sqrt(1 + 4(t+1)(t+2)) / 2 equals -1/2 for every t at rho = 1,
    # so the two tracked lower branches also cross there
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=2.0, points=81)
    events = sweep(spec).events
    hits = [e for e in events if e.labels == ("doublet:0:II", "doublet:1:II")]
    assert len(hits) == 1
    assert abs(hits[0].value - 1.0) < 1e-7


@pytest.mark.parametrize("phi", [1, -1])
def test_closed_form_tracks_match_full_matrix(phi):
    params = ModelParams(epsilon=1.0, k=2, phi=phi)
    stop = 2.0 if phi == 1 else 0.6  # flipped sign crosses both EPs by 0.6
    spec = SweepSpec(params=params, parameter="rho", start=0.0, stop=stop, points=7)
    deviation = numeric_deviation(spec, TruncatedFockSpace(32, 8))
    assert deviation < 1e-9


def test_numeric_deviation_reads_the_grid_without_locating_events(monkeypatch):
    # crossings and a coalescence lie on this grid, but the deviation reads
    # only the closed-form tracks: no block is built to bisect for an event
    def refused(*args):
        raise AssertionError("an event was located")

    monkeypatch.setattr(qjc.flow, "doublet_block", refused)
    spec = SweepSpec(params=FLIPPED, parameter="rho", start=0.0, stop=0.6, points=7)
    assert numeric_deviation(spec, TruncatedFockSpace(32, 8)) < 1e-9


def test_closed_form_routes_refuse_a_theta_sweep():
    spec = SweepSpec(params=FLIPPED, parameter="theta", start=0.0, stop=1.0, points=3)
    for route in (sweep, lambda spec: numeric_deviation(spec, TruncatedFockSpace(32, 8))):
        with pytest.raises(ValidationError, match="closed-form sweeps drive rho; use qes_theta_sweep"):
            route(spec)


def test_coalescence_events_for_flipped_sign():
    spec = SweepSpec(params=FLIPPED, parameter="rho", start=0.05, stop=0.5, points=46)
    result = sweep(spec)
    pairs = [e for e in result.events if e.kind == "coalescence"]
    assert [e.labels for e in pairs] == [
        ("doublet:1:I", "doublet:1:II"),
        ("doublet:0:I", "doublet:0:II"),
    ]
    npt.assert_allclose(
        [e.value for e in pairs],
        [1.0 / (2.0 * np.sqrt(6.0)), 1.0 / (2.0 * np.sqrt(2.0))],
        atol=1e-7,
    )
    npt.assert_allclose([e.energy for e in pairs], [2.0, 1.0], atol=1e-7)
    # events agree with the closed-form discriminant zeros
    for t, event in ((1, pairs[0]), (0, pairs[1])):
        assert abs(event.value - doublet_coalescence_rho(FLIPPED, t)) < 1e-7


def test_post_coalescence_branches_are_conjugate():
    spec = SweepSpec(params=FLIPPED, parameter="rho", start=0.05, stop=0.5, points=46)
    result = sweep(spec)
    past = result.grid > 0.36  # beyond the last exceptional point
    branch_1 = result.track("doublet:0:I")[past]
    branch_2 = result.track("doublet:0:II")[past]
    assert np.max(np.abs(branch_1 - np.conj(branch_2))) <= 1e-10
    assert np.max(branch_1.imag) > 0.1


def test_locate_coalescence_directly():
    event = locate_coalescence(FLIPPED, 0, 0.1, 0.5)
    assert event.kind == "coalescence"
    assert abs(event.value - 1.0 / (2.0 * np.sqrt(2.0))) <= 1e-8
    assert abs(event.energy - 1.0) < 1e-7
    with pytest.raises(ValidationError, match="sign-flipped"):
        locate_coalescence(TWO_PHOTON, 0, 0.1, 0.5)
    with pytest.raises(ValidationError, match="change sign"):
        locate_coalescence(FLIPPED, 0, 0.4, 0.5)


def _coalescence_values(start, stop):
    spec = SweepSpec(params=FLIPPED, parameter="rho", start=start, stop=stop, points=11)
    return [(e.value, e.labels) for e in sweep(spec).events if e.kind == "coalescence"]


DOUBLET_0, DOUBLET_1 = ("doublet:0:I", "doublet:0:II"), ("doublet:1:I", "doublet:1:II")
FROM_ZERO = [(0.20412414893507957, DOUBLET_1), (0.3535533882677555, DOUBLET_0)]


@pytest.mark.parametrize(
    "start, stop, expected",
    [
        (0.0, 2.0, FROM_ZERO),
        # a start inside (-r, r) keeps its own bisection interval
        (-0.1, 2.0, [(0.20412414167076348, DOUBLET_1), (0.35355338994413615, DOUBLET_0)]),
        (-2.0, 2.0, [(-value, labels) for value, labels in FROM_ZERO[::-1]] + FROM_ZERO),
        (-2.0, 0.0, [(-value, labels) for value, labels in FROM_ZERO[::-1]]),
        (-0.3, 0.3, [(-0.2041241481900215, DOUBLET_1), (0.2041241481900215, DOUBLET_1)]),
        (-2.0, -0.1, [(-0.3535533925518393, DOUBLET_0), (-0.2041241442784667, DOUBLET_1)]),
        (-2.0, -0.5, []),  # below both -r, and no rho > 0 in range
    ],
)
def test_a_sweep_finds_the_coalescences_on_both_signs_of_rho(start, stop, expected):
    found = _coalescence_values(start, stop)
    assert found == expected
    # the discriminant reads rho only as rho * rho: each negative event is
    # a positive one of the mirrored sweep, negated bit for bit
    negated = [(-value, labels) for value, labels in found[::-1] if value < 0.0]
    if negated:
        assert negated == [event for event in _coalescence_values(-stop, -start) if event[0] > 0.0]
    positive = [event for event in found if event[0] > 0.0]
    # locate_coalescence returns the rho > 0 event where both lie in range
    if found:
        assert locate_coalescence(FLIPPED, 1, start, stop).value == next(
            value for value, labels in (positive or found) if labels == DOUBLET_1
        )


def test_coalescence_probes_build_no_parameters_or_blocks(monkeypatch):
    exact = doublet_coalescence_rho(FLIPPED, 1)
    replaced, blocks = [], []
    replace, block = dataclasses.replace, qjc.closedform.doublet_block
    monkeypatch.setattr(dataclasses, "replace", lambda *a, **k: replaced.append(1) or replace(*a, **k))
    monkeypatch.setattr(qjc.closedform, "doublet_block", lambda *a: blocks.append(1) or block(*a))
    monkeypatch.setattr(qjc.flow, "doublet_block", lambda *a: blocks.append(1) or block(*a))
    event = locate_coalescence(FLIPPED, 1, 0.0, 1.0)
    assert abs(event.value - exact) <= 1e-8
    assert (len(replaced), len(blocks)) == (2, 1)  # the checks of lo and hi; one block
    for bounds in ((0.0, math.inf), (math.nan, 1.0)):  # ModelParams' own error, as before
        with pytest.raises(ValidationError, match="rho must be finite"):
            locate_coalescence(FLIPPED, 1, *bounds)


def test_theta_sweep_rho_zero_linear_branches():
    """At rho=0, N=1 the trajectories are two constants and four lines."""
    result = qes_theta_sweep(theta_spec(0.0, points=16))
    root_two = np.sqrt(2.0)
    worst = 0.0
    for g, theta in enumerate(result.grid):
        expected = [
            -0.5,
            2.5,
            (3.0 + 4.0 * theta) / 6.0,
            (3.0 - 4.0 * theta) / 6.0,
            (9.0 + 2.0 * root_two * theta) / 6.0,
            (9.0 - 2.0 * root_two * theta) / 6.0,
        ]
        worst = max(worst, spectrum_mismatch(result.tracks[:, g], expected))
    assert worst < 1e-12


def test_theta_sweep_constant_line_is_exact():
    # |0, down> stays decoupled for every theta, so one row sits at -eps/2
    # without even roundoff wobble
    for rho in (0.0, 1.0, 2.0):
        result = qes_theta_sweep(theta_spec(rho))
        constant = [
            row for row in result.tracks if np.max(np.abs(row - (-0.5))) == 0.0
        ]
        assert len(constant) == 1


def test_theta_sweep_finds_the_crossing_at_three_halves():
    # at rho = 1 the dressed model has a second level meeting E = -1/2, and
    # the localized parameter value is 3/2 (exactly, by the rational route)
    result = qes_theta_sweep(theta_spec(1.0, points=21))
    crossings = [e for e in result.events if abs(e.energy + 0.5) < 1e-6]
    assert len(crossings) == 1
    assert abs(crossings[0].value - 1.5) <= 1e-7
    assert 1.4 <= crossings[0].value <= 1.6


def test_theta_sweep_halves_an_ambiguous_step_and_tracks_both_halves(monkeypatch):
    depths = []

    def counted(*args):
        depths.append(args[-1])
        return _advance(*args)

    monkeypatch.setattr(qjc.flow, "_advance", counted)
    result = qes_theta_sweep(theta_spec(0.25, points=11))
    assert depths.count(1) == 2  # one halving: the step's first and second half
    # the tracks through the halved step are those of a grid twice as fine
    finer = qes_theta_sweep(theta_spec(0.25, points=21))
    npt.assert_allclose(result.tracks, finer.tracks[:, ::2], rtol=0, atol=1e-12)


def test_theta_sweep_weak_dependence_at_large_rho():
    # "weak dependence" is qualitative; assert the monotone comparison
    # rather than pinning a threshold
    def max_theta_slope(result):
        # largest |dE/dtheta| over all tracks, by forward differences
        return np.max(np.abs(np.diff(result.tracks.real, axis=1)) / np.diff(result.grid))

    slope_small = max_theta_slope(qes_theta_sweep(theta_spec(0.0)))
    slope_large = max_theta_slope(qes_theta_sweep(theta_spec(2.0)))
    npt.assert_allclose(slope_small, 2.0 / 3.0, atol=1e-6)
    assert slope_large < 0.5 * slope_small


def test_refining_the_grid_preserves_the_pairing():
    coarse = qes_theta_sweep(theta_spec(1.0, points=11))
    fine = qes_theta_sweep(theta_spec(1.0, points=21))
    npt.assert_allclose(fine.tracks[:, ::2], coarse.tracks, atol=1e-12)


def test_degenerate_start_is_tracked_deterministically():
    # rho=0, theta=0 starts from coincident pairs (1/2, 1/2) and (3/2, 3/2);
    # the emerging branches are interchangeable, so tracking must pick a
    # convention instead of failing
    result = qes_theta_sweep(theta_spec(0.0, points=7))
    again = qes_theta_sweep(theta_spec(0.0, points=7))
    npt.assert_array_equal(result.tracks, again.tracks)


def test_unresolvable_ambiguity_raises_after_refinement():
    # two candidates equidistant from a lone prediction, unchanged by step
    # halving: the tracker must give up with the dedicated error
    def values_at(_):
        return np.array([4.0 + 0j, 6.0 + 0j])

    with pytest.raises(TrackingAmbiguityError, match="refinements"):
        _advance(values_at, None, None, 0.0, np.array([0.0 + 0j, 10.0 + 0j]), 1.0, 0)


def test_a_step_of_one_float_is_not_halved():
    # no float lies between t and its successor: the tracker gives up at once
    def values_at(_):
        return np.array([4.0 + 0j, 6.0 + 0j])

    with pytest.raises(TrackingAmbiguityError, match="after 0 refinements"):
        _advance(values_at, None, None, 1.0, np.array([0.0 + 0j, 10.0 + 0j]), np.nextafter(1.0, 2.0), 0)


def test_prediction_over_subnormal_steps_does_not_overflow():
    # (1e-3 - 0) / 5e-324 overflows; the ratio of two equal steps is 1
    def values_at(_):
        return np.array([2e-3 + 0j, 1.0 + 0j])

    tiny = 5e-324
    values, _ = _advance(
        values_at, 0.0, np.array([0.0 + 0j, 1.0 + 0j]), tiny, np.array([1e-3 + 0j, 1.0 + 0j]), 2 * tiny, 0
    )
    npt.assert_array_equal(values, [2e-3, 1.0])


@pytest.mark.parametrize(
    "start, stop, points",
    [(0.0, 5e-324, 11), (1e16, 1e16 + 4.0, 11), (-1.7e308, 1.7e308, 3)],
)
def test_a_grid_of_repeated_or_overflowing_points_is_refused(start, stop, points):
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=start, stop=stop, points=points)
    with pytest.raises(ValidationError, match="repeat or overflow"):
        spec.grid()


def test_conjugate_birth_is_assigned_without_raising():
    # two real levels collapsing onto a conjugate pair: equidistant forever,
    # so halving cannot help; the tracker must settle it by convention
    def values_at(_):
        return np.array([1.1 + 0.4j, 1.1 - 0.4j])

    predictions = np.array([1.0 + 0j, 1.2 + 0j])
    values, _ = _advance(values_at, None, None, 0.0, predictions, 1.0, 0)
    assert sorted(values, key=lambda z: z.imag) == [1.1 - 0.4j, 1.1 + 0.4j]
    repeat, _ = _advance(values_at, None, None, 0.0, predictions, 1.0, 0)
    npt.assert_array_equal(values, repeat)


def _assign_by_sorting_every_round(predictions, candidates):
    """`_assign_tracks` as it was: each round sorts every free candidate's
    distance from every unassigned track, in Python complex arithmetic."""
    n = len(predictions)
    assignment = np.full(n, -1, dtype=int)
    unassigned = list(range(n))
    available = list(range(n))
    scale = max(1.0, float(np.max(np.abs(candidates))))
    predictions, candidates = predictions.tolist(), candidates.tolist()
    while unassigned:
        best = None
        for track in unassigned:
            dists = sorted((abs(candidates[c] - predictions[track]), c) for c in available)
            d1, c1 = dists[0]
            d2, c2 = dists[1] if len(dists) > 1 else (math.inf, -1)
            if best is None or d1 < best[0]:
                best = (d1, track, c1, d2, c2)
        d1, track, c1, d2, c2 = best
        if d2 < math.inf:
            gap = abs(candidates[c1] - candidates[c2])
            twin = min(
                (abs(predictions[o] - predictions[track]) for o in unassigned if o != track),
                default=math.inf,
            )
            if gap <= REALNESS_TOL * scale or twin <= REALNESS_TOL * scale:
                pass
            elif d1 > 0.35 * gap:
                conj = abs(candidates[c1] - candidates[c2].conjugate())
                if conj <= REALNESS_TOL * scale and abs(predictions[track].imag) <= REALNESS_TOL * scale:
                    c1 = c1 if candidates[c1].imag >= candidates[c2].imag else c2
                else:
                    return None
        assignment[track] = c1
        unassigned.remove(track)
        available.remove(c1)
    return assignment


def _same_assignment(predictions, candidates):
    new = _assign_tracks(predictions, candidates)
    old = _assign_by_sorting_every_round(predictions, candidates)
    assert (new is None and old is None) or np.array_equal(new, old), (new, old)
    return new


# a few exact values, so that distances tie, candidates repeat, pairs are
# conjugate and predictions coincide; and arbitrary ones
POINTS = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 2 + 0j, 0.5 + 0.5j, 0.5 - 0.5j, 2j, -2j, 1 + 1e-11j]),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    st.builds(complex, st.floats(-3, 3), st.just(0.0)),
)


@st.composite
def tracking_steps(draw):
    n = draw(st.integers(1, 10))
    candidates = draw(st.lists(POINTS, min_size=n, max_size=n))
    if draw(st.booleans()):  # conjugate pairs: each odd candidate mirrors the one before
        candidates = [candidates[i - 1].conjugate() if i % 2 else c for i, c in enumerate(candidates)]
    near = st.sampled_from(candidates)
    predictions = draw(st.lists(
        st.one_of(
            POINTS,
            near,  # on a candidate, and coincident when drawn twice
            st.tuples(near, near).map(lambda pair: 0.5 * (pair[0] + pair[1])),  # a tie
            st.tuples(near, st.floats(-0.2, 0.2)).map(lambda pair: pair[0] + pair[1]),
        ),
        min_size=n, max_size=n,
    ))
    return np.array(predictions, dtype=complex), np.array(candidates, dtype=complex)


@given(tracking_steps())
@example((  # np.abs gives ...683 for |c0 - p5|, where Python's abs and np.hypot give ...684
    np.array([0, 0, 0, 0, 0, 0.9375 + 0.749995j]),
    np.array([1.375 + 0.99999j, 0, 0, 0.5 + 0.5j, 0, 0.5 + 0.5j]),
))
@settings(max_examples=500, deadline=None)
def test_ranking_once_assigns_as_sorting_every_round(step):
    _same_assignment(*step)


def test_ranking_once_assigns_as_sorting_every_round_on_theta_sweeps(monkeypatch):
    calls = []
    monkeypatch.setattr(qjc.flow, "_assign_tracks", lambda *args: calls.append(args) or _same_assignment(*args))
    gave_up = 0
    for rho in (0.0, 0.253, 0.3, 1.0, 2.0):
        for phi in (1, -1):
            try:
                qes_theta_sweep(theta_spec(rho, phi=phi))
            except TrackingAmbiguityError:  # each step that gave up was compared too
                gave_up += 1
    assert len(calls) > 300 and gave_up > 0


def test_track_lookup_by_label():
    spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=1.0, points=3)
    result = sweep(spec)
    npt.assert_array_equal(result.track("singlet:0"), result.tracks[0])
    with pytest.raises(ValidationError, match="no tracked level"):
        result.track("doublet:9:I")


def test_rho_sweep_rejects_theta_parameter_mixup():
    spec = theta_spec(1.0)
    with pytest.raises(ValidationError, match="qes_theta_sweep"):
        sweep(spec)
    rho_spec = SweepSpec(params=TWO_PHOTON, parameter="rho", start=0.0, stop=1.0, points=3)
    with pytest.raises(ValidationError, match="drives theta"):
        qes_theta_sweep(rho_spec)
    with pytest.raises(ValidationError, match="n_qes"):
        qes_theta_sweep(
            SweepSpec(params=TWO_PHOTON, parameter="theta", start=0.0, stop=1.0, points=3)
        )


def test_event_fields():
    event = FlowEvent(
        kind="crossing",
        value=1.0,
        energy=-0.5 + 0j,
        labels=("a", "b"),
        tolerance=1e-8,
    )
    assert event.kind == "crossing"
    assert event.labels == ("a", "b")


# ---------------------------------------------------------------------------
# the stacked grid passes against the per-point routes they replaced

# explicit couplings: c only, c_hat only, both (theta then enters nowhere)
OVERRIDES = ({}, {"c": 0.4}, {"c_hat": -0.3}, {"c": 0.4, "c_hat": 0.0})


def _bits(values):
    """The multiset of values by their exact bits (signed zeros included)."""
    return sorted(repr(z) for z in np.asarray(values).tolist())


@pytest.mark.parametrize("big_n", range(9))
def test_theta_grid_is_solved_bit_for_bit_as_point_by_point(big_n):
    for phi, rho, override in itertools.product((1, -1), (0.0, 0.3, 1.7), OVERRIDES):
        params = ModelParams(rho=rho, phi=phi, n_qes=big_n + 2, **override)
        spec = SweepSpec(params=params, parameter="theta", start=0.0, stop=3.0, points=11)
        stack = restriction_matrix(params, spec.grid())
        w, v = eig_checked(stack)
        try:
            tracks = qes_theta_sweep(spec).tracks
        except TrackingAmbiguityError as exc:
            tracks = exc.partial.tracks
        for g, value in enumerate(spec.grid()):
            single = restriction_matrix(spec.at(value))
            assert stack[g].tobytes() == single.tobytes()
            one_w, one_v = eig_checked(single)
            assert (w[g].tobytes(), v[g].tobytes()) == (one_w.tobytes(), one_v.astype(v.dtype).tobytes())
            if g < tracks.shape[1]:
                # each sweep column is the per-point spectrum, reordered only
                assert _bits(tracks[:, g]) == _bits(algebraic_eigenvalues(spec.at(value)))


def test_only_midpoints_and_probes_solve_point_by_point(monkeypatch):
    probes = []

    def spy(params):
        probes.append(params.theta)
        return algebraic_eigenvalues(params)

    monkeypatch.setattr(qjc.flow, "algebraic_eigenvalues", spy)
    spec = theta_spec(0.25, points=11)  # one halved step, and crossings to bisect
    result = qes_theta_sweep(spec)
    assert probes and result.events
    assert not set(probes) & set(spec.grid().tolist())


def _per_point_deviation(spec, space):
    """`numeric_deviation` as a loop over grid points, one block solve each."""
    result = sweep(spec)
    worst = 0.0
    for g, value in enumerate(result.grid):
        numeric = eigvals_checked(build_extended(spec.at(value), space).matrix)
        for row in result.tracks[:, g]:
            worst = max(worst, float(np.min(np.abs(numeric - row))))
    return worst


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("phi", [1, -1])
@pytest.mark.parametrize("stop", [0.45, 1.3, 2.0])
def test_numeric_deviation_matches_the_per_point_loop(k, phi, stop):
    # every grid starts at rho = 0, whose blocks are finer than the rest
    spec = SweepSpec(
        params=ModelParams(k=k, phi=phi), parameter="rho", start=0.0, stop=stop, points=21
    )
    space = TruncatedFockSpace(32, 8)
    assert abs(numeric_deviation(spec, space) - _per_point_deviation(spec, space)) <= 1e-12


def _first_error(func, *args):
    try:
        func(*args)
    except NumericalError as exc:
        return str(exc)
    raise AssertionError("no gate failed")


@pytest.mark.parametrize("failing", [1, 4, 10])
def test_numeric_deviation_gate_names_the_failing_grid_point(monkeypatch, failing):
    spec = SweepSpec(params=FLIPPED, parameter="rho", start=0.0, stop=1.5, points=11)
    space = TruncatedFockSpace(32, 8)
    matrices = [build_extended(spec.at(value), space).matrix for value in spec.grid()]
    # entries that only the failing point's matrix holds mark its blocks
    others = np.concatenate([m.ravel() for g, m in enumerate(matrices) if g != failing])
    marks = np.setdiff1d(matrices[failing], np.append(others, 0.0))
    real_eig = np.linalg.eig

    def shifted(blocks):
        w, v = real_eig(blocks)
        hit = np.isin(blocks, marks).any(axis=(-2, -1))
        return w + np.where(hit[..., np.newaxis], 1e-6, 0.0), v

    monkeypatch.setattr(np.linalg, "eig", shifted)
    expected = _first_error(_per_point_deviation, spec, space)
    assert _first_error(numeric_deviation, spec, space) == expected
    # the error names this point's own scale, max(1, ||H||_F)
    assert f"{np.linalg.norm(matrices[failing]):.3e}" in expected


def _fail_theta_point(monkeypatch, spec, failing):
    """Fake scipy.linalg.eig so that the restriction at grid[failing] fails its gate."""
    n_up = spec.params.big_n + 1
    # <0, up|H|1, down> = c (1 - n): theta's own entry
    mark = restriction_matrix(spec.at(spec.grid()[failing]))[0, n_up + 1]

    def shifted(matrix):
        w, v = REAL_EIG(matrix)
        hit = matrix[..., 0, n_up + 1] == mark
        return w + np.where(hit[..., np.newaxis], 1e-6, 0.0), v

    monkeypatch.setattr(scipy.linalg, "eig", shifted)


def _per_point_theta_error(spec):
    for value in spec.grid():
        algebraic_eigenvalues(spec.at(value))


@pytest.mark.parametrize("failing", [0, 3, 10])
def test_theta_gate_failure_raises_when_the_sweep_reaches_it(monkeypatch, failing):
    spec = theta_spec(1.0, points=11)
    steps = []
    assign = qjc.flow._assign_tracks
    monkeypatch.setattr(
        qjc.flow, "_assign_tracks", lambda *args: steps.append(1) or assign(*args)
    )
    _fail_theta_point(monkeypatch, spec, failing)
    expected = _first_error(_per_point_theta_error, spec)
    assert _first_error(qes_theta_sweep, spec) == expected
    assert len(steps) == max(failing - 1, 0)  # raised before matching grid[failing]


def test_an_earlier_tracking_error_wins_over_a_later_gate_failure(monkeypatch):
    # this sweep gives up matching between grid points 4 and 5 (see test_cli)
    params = ModelParams(rho=0.253, phi=-1, n_qes=3)
    spec = SweepSpec(params=params, parameter="theta", start=0.0, stop=3.0, points=11)
    with pytest.raises(TrackingAmbiguityError) as plain:
        qes_theta_sweep(spec)
    _fail_theta_point(monkeypatch, spec, 8)
    with pytest.raises(TrackingAmbiguityError) as faked:
        qes_theta_sweep(spec)
    assert str(faked.value) == str(plain.value)
    npt.assert_array_equal(faked.value.partial.tracks, plain.value.partial.tracks)
    # the step's own end point is read before any matching: its gate wins there
    _fail_theta_point(monkeypatch, spec, 5)
    assert _first_error(qes_theta_sweep, spec) == _first_error(_per_point_theta_error, spec)
