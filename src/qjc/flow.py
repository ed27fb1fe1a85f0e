"""Eigenvalue trajectories under coupling sweeps.

Two sweep routes with different labeling power:

* `sweep` drives the k-photon exchange family through rho.  Every level
  there carries an intrinsic label (a spin-down singlet, or one branch of a
  two-state ladder block), so trajectories never need matching: each label
  is an explicit function of rho, continuous through exceptional points
  because the square root of the discriminant is taken in the complex
  plane.  The whole grid comes from one `closedform.closed_form_tracks`
  call, equal bit for bit to evaluating `doublet_block` and
  `doublet_eigenvalues` at every grid point; the bisection and coalescence
  probes between grid points evaluate only the blocks they read.

* `qes_theta_sweep` drives the dressed mixed-exchange model through theta.
  Its restriction eigenvalues come unlabeled out of the solver, so
  trajectories are continued by greedy nearest-neighbor matching against a
  linear extrapolation of each track, with automatic step halving (up to
  `MAX_REFINEMENTS`) whenever two candidates are comparably close.  The
  grid's restrictions are solved in one stacked call, each with the bits it
  gets alone; halving midpoints and bisection probes are solved one by one,
  and so is every grid point when the stack fails its gate, so that the
  failing point raises only once the sweep reaches it.

Events -- real-level crossings, and branch coalescences for the
sign-flipped coupling -- are localized by bisection to `PARAM_TOL`.  A sweep
whose energies are all below 1 (|eps|, |hw| and the ends of its range:
`_energy_scale`) measures its realness floor and its events' width in that
scale; at unit scale both are the absolute ones.
`_events` locates the crossings of both sweeps: it finds with array
operations the grid steps where two real rows' difference changes sign,
visits only those, in the (row, row, step) order of a nested loop, and
bisects each on the two levels that the sweep's `pair` gives at a probe.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import eig_checked, stream_eigvals
from .closedform import closed_form_tracks, doublet_block, doublet_eigenvalues, level_keys
from .errors import NumericalError, TrackingAmbiguityError, ValidationError
from .fock import TruncatedFockSpace
from .models import ModelParams, build_extended
from .qes import algebraic_eigenvalues, restriction_matrix
from .symmetry import REALNESS_TOL, real_mask

PARAM_TOL = 1e-8
MAX_REFINEMENTS = 10


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: which knob, over what grid, for which model."""

    params: ModelParams
    parameter: str
    start: float
    stop: float
    points: int
    doublets: int = 2

    def __post_init__(self):
        if self.parameter not in ("rho", "theta"):
            raise ValidationError(
                f"swept parameter must be 'rho' or 'theta', got {self.parameter!r}"
            )
        if self.points < 2:
            raise ValidationError(f"need at least 2 grid points, got {self.points}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError("sweep range must be finite")
        if self.start >= self.stop:
            raise ValidationError("sweep range must have start < stop")
        if self.doublets < 0:
            raise ValidationError("doublets must be >= 0")

    def grid(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows is refused
            grid = np.linspace(self.start, self.stop, self.points)
            if not np.all(np.diff(grid) > 0.0):  # as are repeated points
                raise ValidationError(
                    f"the {self.points} grid points on [{self.start}, {self.stop}] repeat or overflow"
                )
        return grid

    def at(self, value: float) -> ModelParams:
        return dataclasses.replace(self.params, **{self.parameter: float(value)})


@dataclass(frozen=True)
class FlowEvent:
    """A localized spectral event along a sweep."""

    kind: str  # "crossing" | "coalescence"
    value: float
    energy: complex
    labels: tuple[str, str]
    tolerance: float


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray
    labels: tuple[str, ...]
    tracks: np.ndarray  # shape (len(labels), len(grid))
    events: tuple[FlowEvent, ...]

    def track(self, label: str) -> np.ndarray:
        try:
            return self.tracks[self.labels.index(label)]
        except ValueError:
            raise ValidationError(f"no tracked level labeled {label!r}") from None


def sweep(spec: SweepSpec) -> SweepResult:
    """Trajectories of labeled closed-form levels over the grid.

    Singlet rows are exactly constant by construction; doublet branches
    follow the +/- square-root branches of their block and continue through
    a coalescence as complex-conjugate values.
    """
    grid, tracks = _closed_form_grid(spec)
    k = spec.params.k
    labels = tuple(label for label, _, _ in level_keys(k, spec.doublets))

    def pair(i, j, g, value):
        # rows follow level_keys: k constant singlets, then each doublet's
        # branches I and II; only the rows read have their blocks built
        params = spec.at(value)
        return (
            complex(tracks[row, 0]) if row < k
            else doublet_eigenvalues(doublet_block(params, (row - k) // 2))[(row - k) % 2]
            for row in (i, j)
        )

    # coalescences: the discriminant zeros of each tracked block
    coalescences = [
        event for t in range(spec.doublets) for event in _coalescences(spec.params, t, spec.start, spec.stop)
    ]
    events = _events(spec, grid, labels, tracks, pair, coalescences)
    return SweepResult(grid=grid, labels=labels, tracks=tracks, events=events)


def _closed_form_grid(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """The rho grid of `spec` and its closed-form tracks, in `level_keys` order."""
    if spec.parameter != "rho":
        raise ValidationError("closed-form sweeps drive rho; use qes_theta_sweep")
    grid = spec.grid()
    return grid, closed_form_tracks(spec.params, spec.doublets, grid)


def _energy_scale(params: ModelParams, lo: float, hi: float) -> float:
    """The energy unit of a rho or theta sweep on [lo, hi]: the largest of
    |eps|, |hw|, |lo| and |hi|, capped at 1, so that only a sweep below unit
    scale has one."""
    return min(1.0, max(abs(params.epsilon), abs(params.hbar_omega), abs(lo), abs(hi)))


def _bisect(func, lo: float, hi: float, width: float = PARAM_TOL) -> float:
    """A sign change of `func` in [lo, hi], from func(lo) != 0, narrowed to `width`.

    Raises NumericalError when 200 halvings do not get there, as happens
    where floats lie farther apart than `width` (|lo| above about 6.7e7 for
    PARAM_TOL).
    """
    f_lo = func(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= width:
            return mid
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0.0) == (f_mid > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise NumericalError(
        f"bisection stalled at [{lo!r}, {hi!r}] after 200 halvings: width "
        f"{hi - lo:.3e} stays above {width:.0e}, PARAM_TOL in the sweep's energy scale"
    )


def _events(spec, grid, labels, tracks, pair, extra=()) -> tuple[FlowEvent, ...]:
    """Crossings of every pair of real rows plus `extra`, sorted by value.

    `pair(i, j, g, value)` yields rows i and j at a value between grid
    points g and g + 1, lazily.  A strict sign change of the difference of
    two rows over that step is bisected on Re of pair's difference, and the
    event's energy is row i at the root, read alone.  Signs are compared,
    not multiplied, so that no product over- or underflows.  A difference
    that is exactly zero on an interior grid point (the rho = 1 degeneracies
    land there) is already localized; endpoint zeros are boundary
    degeneracies, not events.  A row is real where `real_mask` holds at
    every grid point, and crossings are narrowed to PARAM_TOL, both in the
    sweep's `_energy_scale`.
    """
    events = []
    real = tracks.real
    scale = _energy_scale(spec.params, spec.start, spec.stop)
    rows = np.flatnonzero(np.all(real_mask(tracks, scale), axis=1))
    for index, i in enumerate(rows.tolist()):
        # row i against every later real row j at once: diff[j, g] is
        # tracks[i, g].real - tracks[j, g].real, and np.nonzero visits the
        # hits in the (j, g) order of the nested loops it replaces
        later = rows[index + 1 :]
        diff = real[i] - real[later]
        zero = diff[:, 1:] == 0.0
        zero[:, -1] = False  # a zero at the last grid point is no event
        sign = np.sign(diff)
        hits = zero | (sign[:, :-1] * sign[:, 1:] < 0.0)
        for row, g in zip(*(axis.tolist() for axis in np.nonzero(hits))):
            j = int(later[row])
            if zero[row, g]:
                value, energy = float(grid[g + 1]), complex(tracks[i, g + 1])
                tolerance = 0.0
            else:
                tolerance = PARAM_TOL * scale
                value = _bisect(lambda x: np.subtract(*pair(i, j, g, x)).real, grid[g], grid[g + 1], tolerance)
                energy = next(pair(i, j, g, value))
            events.append(FlowEvent("crossing", value, energy, (labels[i], labels[j]), tolerance))
    events.extend(extra)
    events.sort(key=lambda e: e.value)
    return tuple(events)


def numeric_deviation(spec: SweepSpec, space: TruncatedFockSpace) -> float:
    """Worst |closed-form - nearest full-matrix eigenvalue| over the sweep.

    The independent route: eigenvalues of the truncated matrix at every
    grid point, solved on their blocks in one call per block size.
    """
    grid, tracks = _closed_form_grid(spec)
    numeric = stream_eigvals(build_extended(spec.at(value), space).matrix for value in grid)
    gaps = np.abs(numeric[:, np.newaxis, :] - tracks.T[:, :, np.newaxis])
    return float(np.max(np.min(gaps, axis=2)))


# ---------------------------------------------------------------------------
# unlabeled trajectories: the theta sweep of the dressed model


def _assign_tracks(predictions: np.ndarray, candidates: np.ndarray):
    """Greedy nearest-candidate assignment, most confident track first.

    Returns an index array (track -> candidate) or None when some track
    faces two candidates it cannot tell apart: nearer than 35% of their own
    separation means halving the step is needed to sharpen the prediction.
    Three situations cannot be sharpened by halving and are resolved
    deterministically instead: a degenerate candidate pair, a
    complex-conjugate split straddling a real prediction (+imag goes to the
    first claiming track), and two tracks whose predictions coincide (a
    level pair emerging from a degeneracy: the swapped assignment would be
    an equivalent labeling, so the lower candidate index wins).

    The distances are computed once, and each track's candidates ranked
    once, nearest first and a tie to the lower index; each round reads the
    first two of its ranking still free, the two a full sort would give.
    """
    assignment = [-1] * len(predictions)
    tol = REALNESS_TOL * max(1.0, float(np.abs(candidates).max()))
    # one distance matrix, each row ranked once: the stable sort breaks a tie
    # by candidate index; np.hypot rounds as Python's complex abs, np.abs may not
    offsets = candidates[np.newaxis, :] - predictions[:, np.newaxis]
    distances = np.hypot(offsets.real, offsets.imag)
    ranked = dict(enumerate(np.argsort(distances, axis=1, kind="stable").tolist()))
    distances = distances.tolist()
    predictions, candidates = predictions.tolist(), candidates.tolist()
    while ranked:  # unassigned track -> its free candidates, nearest first
        track = min(ranked, key=lambda t: distances[t][ranked[t][0]])  # the first of equals
        c1, c2 = (ranked.pop(track) + [-1])[:2]
        if c2 >= 0 and distances[track][c2] < math.inf:
            gap = abs(candidates[c1] - candidates[c2])
            # too near both, unless the candidates or two predictions are degenerate
            if distances[track][c1] > 0.35 * gap and not gap <= tol and not min(
                (abs(predictions[other] - predictions[track]) for other in ranked), default=math.inf
            ) <= tol:
                conj = abs(candidates[c1] - candidates[c2].conjugate())
                if conj <= tol and abs(predictions[track].imag) <= tol:
                    # conjugate pair born from a real level: pick +imag first
                    c1 = c1 if candidates[c1].imag >= candidates[c2].imag else c2
                else:
                    return None
        assignment[track] = c1
        for row in ranked.values():
            row.remove(c1)
    return np.array(assignment)


def _advance(values_at, t_prev2, v_prev2, t_prev, v_prev, t_next, depth: int):
    """One tracked step t_prev -> t_next, halving on ambiguity."""
    if v_prev2 is None:
        predictions = v_prev
    else:  # the ratio of the steps, not a slope, which overflows on tiny steps
        predictions = v_prev + (v_prev - v_prev2) * ((t_next - t_prev) / (t_prev - t_prev2))
    candidates = values_at(t_next)
    assignment = _assign_tracks(predictions, candidates)
    if assignment is not None:
        return candidates[assignment], (t_prev, v_prev)
    t_mid = 0.5 * (t_prev + t_next)
    if depth >= MAX_REFINEMENTS or not t_prev < t_mid < t_next:  # no float to halve at
        raise TrackingAmbiguityError(
            f"level matching still ambiguous at step {t_prev}..{t_next} "
            f"after {depth} refinements"
        )
    v_mid, history = _advance(values_at, t_prev2, v_prev2, t_prev, v_prev, t_mid, depth + 1)
    return _advance(values_at, history[0], history[1], t_mid, v_mid, t_next, depth + 1)


def qes_theta_sweep(spec: SweepSpec) -> SweepResult:
    """Restriction-spectrum trajectories of the dressed model over theta.

    Levels carry no intrinsic labels here, so rows are named track:0 ..
    track:2n-1 in the (Re, Im) order of the first grid point and continued
    by matching.  The theta-independent level -eps/2 shows up as an exactly
    constant row.
    """
    if spec.parameter != "theta":
        raise ValidationError("the dressed-model sweep drives theta")
    grid = spec.grid()
    try:
        w, _ = eig_checked(restriction_matrix(spec.params, grid))
    except NumericalError:  # each point alone: the failing one raises once reached
        on_grid = {}
    else:
        w = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)
        on_grid = dict(zip(grid.tolist(), w))

    def values_at(value: float) -> np.ndarray:
        values = on_grid.get(value)  # None: a midpoint, a probe or a failed stack
        return algebraic_eigenvalues(spec.at(value)) if values is None else values

    columns = [values_at(grid[0])]
    labels = tuple(f"track:{i}" for i in range(len(columns[0])))
    t_prev2, v_prev2 = None, None
    t_prev, v_prev = grid[0], columns[0]
    for t_next in grid[1:]:
        try:
            v_next, (t_prev2, v_prev2) = _advance(
                values_at, t_prev2, v_prev2, t_prev, v_prev, t_next, 0
            )
        except TrackingAmbiguityError as exc:
            # let callers salvage the trajectory prefix (partial CSV output)
            tracks = np.array(columns, dtype=complex).T
            exc.partial = SweepResult(grid=grid[: len(columns)], labels=labels, tracks=tracks, events=())
            raise
        columns.append(v_next)
        t_prev, v_prev = t_next, v_next
    tracks = np.array(columns, dtype=complex).T

    def pair(i, j, g, value):
        # interpolate both rows' tracks to the probe, then read off the
        # nearest actual eigenvalues
        w = values_at(value)
        frac = (value - grid[g]) / (grid[g + 1] - grid[g])
        guesses = ((1 - frac) * tracks[row, g] + frac * tracks[row, g + 1] for row in (i, j))
        return (w[np.argmin(np.abs(w - guess))] for guess in guesses)

    events = _events(spec, grid, labels, tracks, pair)
    return SweepResult(grid=grid, labels=labels, tracks=tracks, events=events)


def _coalescences(params: ModelParams, doublet: int, lo: float, hi: float) -> list[FlowEvent]:
    """Every coalescence of one ladder doublet on [lo, hi], rho > 0 first.

    The discriminant reads rho only as rho * rho, so its zeros are +-r bit
    for bit.  r is bisected on [lo, hi] if the discriminant is positive at
    lo, else on [max(lo, 0), hi]; -r is r found so on [-hi, -lo], negated.
    Each is narrowed to PARAM_TOL in the sweep's `_energy_scale`, on the
    prescaled discriminant: the same signs, kept where the square underflows.
    """
    block = doublet_block(params, doublet)  # rho enters only the discriminant
    mean = 0.5 * (block.matrix[0, 0] + block.matrix[1, 1])
    width = PARAM_TOL * _energy_scale(params, lo, hi)

    def discriminant(rho):
        return block.scaled_discriminant(rho)[0]

    events = []
    for sign, a, b in ((1.0, lo, hi), (-1.0, -hi, -lo)):
        if not discriminant(a) > 0.0:
            a = max(a, 0.0)
        if a < b and discriminant(a) > 0.0 > discriminant(b):
            events.append(
                FlowEvent(
                    kind="coalescence",
                    value=sign * _bisect(discriminant, a, b, width),
                    energy=complex(mean),
                    labels=(f"doublet:{doublet}:I", f"doublet:{doublet}:II"),
                    tolerance=width,
                )
            )
    return events


def locate_coalescence(
    params: ModelParams, doublet: int, lo: float, hi: float
) -> FlowEvent:
    """Bisection on the exact block discriminant for one ladder doublet."""
    if params.phi != -1:
        raise ValidationError("only the sign-flipped coupling coalesces at real rho")
    for bound in (lo, hi):  # ModelParams' own check of a coupling
        dataclasses.replace(params, rho=bound)
    events = _coalescences(params, doublet, lo, hi)
    if not events:
        raise ValidationError(f"discriminant of doublet {doublet} does not change sign on [{lo}, {hi}]")
    return events[0]
