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
  gets alone, and a grid point's gate error is raised only once the sweep
  reaches it; halving midpoints and bisection probes are solved one by one.

Events -- real-level crossings, and branch coalescences for the
sign-flipped coupling -- are localized by bisection to `PARAM_TOL`.  The
grid steps where a pair of real rows crosses are found with array
operations, and only those steps are visited, in the (row, row, step) order
of a nested loop.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import eig_gated, stream_eigvals
from .closedform import closed_form_tracks, doublet_block, doublet_eigenvalues, level_keys
from .errors import NumericalError, TrackingAmbiguityError, ValidationError
from .fock import TruncatedFockSpace
from .models import ModelParams, build_extended
from .qes import algebraic_eigenvalues, restriction_matrix

PARAM_TOL = 1e-8
MAX_REFINEMENTS = 10
REAL_TOL = 1e-10


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
        return np.linspace(self.start, self.stop, self.points)

    def at(self, value: float) -> ModelParams:
        return dataclasses.replace(self.params, **{self.parameter: float(value)})


@dataclass(frozen=True)
class FlowEvent:
    """A localized spectral event along a sweep."""

    kind: str  # "crossing" | "coalescence"
    parameter: str
    value: float
    energy: complex
    labels: tuple[str, str]
    tolerance: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
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
    if spec.parameter != "rho":
        raise ValidationError("closed-form sweeps drive rho; use qes_theta_sweep")
    grid = spec.grid()
    tracks = closed_form_tracks(spec.params, spec.doublets, grid)
    labels = tuple(label for label, _, _ in level_keys(spec.params.k, spec.doublets))

    def energy(row, value):
        # rows follow level_keys: k constant singlets, then each doublet's
        # branches I and II; only this row's block is built
        if row < spec.params.k:
            return complex(tracks[row, 0])
        doublet, branch = divmod(row - spec.params.k, 2)
        return doublet_eigenvalues(doublet_block(spec.at(value), doublet))[branch]

    def locate(i, j, g):
        # localized on the exact closed-form difference
        def gap(value):
            return energy(i, value).real - energy(j, value).real

        root = _bisect(gap, grid[g], grid[g + 1])
        return root, energy(i, root)

    # coalescences: discriminant zero of each tracked block (phi = -1 only)
    coalescences = []
    if spec.params.phi == -1:
        for t in range(spec.doublets):
            event = _coalescence(spec.params, t, spec.start, spec.stop)
            if event is not None:
                coalescences.append(event)
    events = _events(spec, grid, labels, tracks, locate, coalescences)
    return SweepResult(spec=spec, grid=grid, labels=labels, tracks=tracks, events=events)


def _bisect(func, lo: float, hi: float) -> float:
    """A sign change of `func` in [lo, hi], narrowed to PARAM_TOL.

    Raises NumericalError when 200 halvings do not get there, as happens
    where floats lie farther apart than PARAM_TOL (|lo| above about 6.7e7).
    """
    f_lo = func(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= PARAM_TOL:
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
        f"{hi - lo:.3e} stays above PARAM_TOL = {PARAM_TOL:.0e}"
    )


def _real_rows(tracks: np.ndarray) -> np.ndarray:
    scale = np.maximum(1.0, np.abs(tracks))
    return np.all(np.abs(tracks.imag) <= REAL_TOL * scale, axis=1)


def _events(spec, grid, labels, tracks, locate, extra=()) -> tuple[FlowEvent, ...]:
    """Crossings of every pair of real rows plus `extra`, sorted by value.

    A sign change of the difference between grid points g and g + 1 is
    handed to `locate(i, j, g)`, which returns (value, energy).  A
    difference that is exactly zero on an interior grid point (the rho = 1
    degeneracies land there) is already localized; endpoint zeros are
    boundary degeneracies, not events.
    """
    events = []
    real = tracks.real
    rows = np.flatnonzero(_real_rows(tracks))
    for index, i in enumerate(rows.tolist()):
        # row i against every later real row j at once: diff[j, g] is
        # tracks[i, g].real - tracks[j, g].real, and np.nonzero visits the
        # hits in the (j, g) order of the nested loops it replaces
        later = rows[index + 1 :]
        diff = real[i] - real[later]
        zero = diff[:, 1:] == 0.0
        zero[:, -1] = False  # a zero at the last grid point is no event
        hits = zero | (diff[:, :-1] * diff[:, 1:] < 0.0)
        for row, g in zip(*(axis.tolist() for axis in np.nonzero(hits))):
            j = int(later[row])
            if zero[row, g]:
                value, energy = float(grid[g + 1]), complex(tracks[i, g + 1])
                tolerance = 0.0
            else:
                value, energy = locate(i, j, g)
                tolerance = PARAM_TOL
            events.append(
                FlowEvent(
                    kind="crossing",
                    parameter=spec.parameter,
                    value=value,
                    energy=energy,
                    labels=(labels[i], labels[j]),
                    tolerance=tolerance,
                )
            )
    events.extend(extra)
    events.sort(key=lambda e: e.value)
    return tuple(events)


def numeric_deviation(spec: SweepSpec, space: TruncatedFockSpace) -> float:
    """Worst |closed-form - nearest full-matrix eigenvalue| over the sweep.

    The independent route: eigenvalues of the truncated matrix at every
    grid point, solved on their blocks in one call per block size.
    """
    result = sweep(spec)
    numeric = stream_eigvals(build_extended(spec.at(value), space).matrix for value in result.grid)
    gaps = np.abs(numeric[:, np.newaxis, :] - result.tracks.T[:, :, np.newaxis])
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
    """
    n = len(predictions)
    assignment = np.full(n, -1, dtype=int)
    unassigned = list(range(n))
    available = list(range(n))
    scale = max(1.0, float(np.max(np.abs(candidates))))
    # Python complex - and abs round as the numpy scalars do, in less time
    predictions, candidates = predictions.tolist(), candidates.tolist()
    while unassigned:
        best = None  # (distance, track, candidate, runner_up_distance, runner_up)
        for track in unassigned:
            dists = sorted(
                (abs(candidates[c] - predictions[track]), c) for c in available
            )
            d1, c1 = dists[0]
            d2, c2 = dists[1] if len(dists) > 1 else (math.inf, -1)
            if best is None or d1 < best[0]:
                best = (d1, track, c1, d2, c2)
        d1, track, c1, d2, c2 = best
        if d2 < math.inf:
            gap = abs(candidates[c1] - candidates[c2])
            twin = min(
                (abs(predictions[other] - predictions[track]) for other in unassigned if other != track),
                default=math.inf,
            )
            if gap <= REAL_TOL * scale or twin <= REAL_TOL * scale:
                pass  # degenerate candidates or degenerate predictions
            elif d1 > 0.35 * gap:
                conj = abs(candidates[c1] - candidates[c2].conjugate())
                if conj <= REAL_TOL * scale and abs(predictions[track].imag) <= REAL_TOL * scale:
                    # conjugate pair born from a real level: pick +imag first
                    c1 = c1 if candidates[c1].imag >= candidates[c2].imag else c2
                else:
                    return None
        assignment[track] = c1
        unassigned.remove(track)
        available.remove(c1)
    return assignment


def _advance(values_at, t_prev2, v_prev2, t_prev, v_prev, t_next, depth: int):
    """One tracked step t_prev -> t_next, halving on ambiguity."""
    if v_prev2 is None:
        predictions = v_prev
    else:
        slope = (v_prev - v_prev2) / (t_prev - t_prev2)
        predictions = v_prev + slope * (t_next - t_prev)
    candidates = values_at(t_next)
    assignment = _assign_tracks(predictions, candidates)
    if assignment is not None:
        return candidates[assignment], (t_prev, v_prev)
    if depth >= MAX_REFINEMENTS:
        raise TrackingAmbiguityError(
            f"level matching still ambiguous at step {t_prev}..{t_next} "
            f"after {MAX_REFINEMENTS} refinements"
        )
    t_mid = 0.5 * (t_prev + t_next)
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
    w, _, errors = eig_gated(restriction_matrix(spec.params, grid))
    w = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)
    on_grid = dict(zip(grid.tolist(), zip(w, errors)))

    def values_at(value: float) -> np.ndarray:
        values, error = on_grid.get(value, (None, None))  # None: a midpoint or a probe
        if error is not None:
            raise error
        return algebraic_eigenvalues(spec.at(value)) if values is None else values

    columns = [values_at(grid[0])]
    t_prev2, v_prev2 = None, None
    t_prev, v_prev = grid[0], columns[0]
    for t_next in grid[1:]:
        try:
            v_next, (t_prev2, v_prev2) = _advance(
                values_at, t_prev2, v_prev2, t_prev, v_prev, t_next, 0
            )
        except TrackingAmbiguityError as exc:
            # let callers salvage the trajectory prefix (partial CSV output)
            exc.partial_grid = grid[: len(columns)]
            exc.partial_tracks = np.array(columns, dtype=complex).T
            raise
        columns.append(v_next)
        t_prev, v_prev = t_next, v_next
    tracks = np.array(columns, dtype=complex).T
    labels = tuple(f"track:{i}" for i in range(tracks.shape[0]))

    def locate(i, j, g):
        def nearest(value):
            # interpolate both endpoint tracks to the probe point, then read
            # off the nearest actual eigenvalues
            w = values_at(value)
            frac = (value - grid[g]) / (grid[g + 1] - grid[g])
            out = []
            for row in (i, j):
                guess = (1 - frac) * tracks[row, g] + frac * tracks[row, g + 1]
                out.append(w[np.argmin(np.abs(w - guess))])
            return out

        def gap(value):
            e_i, e_j = nearest(value)
            return e_i.real - e_j.real

        root = _bisect(gap, grid[g], grid[g + 1])
        return root, nearest(root)[0]

    events = _events(spec, grid, labels, tracks, locate)
    return SweepResult(spec=spec, grid=grid, labels=labels, tracks=tracks, events=events)


def _coalescence(
    params: ModelParams, doublet: int, lo: float, hi: float
) -> FlowEvent | None:
    """Coalescence event of one ladder doublet on [lo, hi], or None.

    Bisection on the exact block discriminant, which must go from positive
    at lo to negative at hi.
    """

    def disc(value):
        return doublet_block(
            dataclasses.replace(params, rho=value), doublet
        ).discriminant()

    if not disc(lo) > 0.0 > disc(hi):
        return None
    root = _bisect(disc, lo, hi)
    block = doublet_block(dataclasses.replace(params, rho=root), doublet)
    mean = 0.5 * (block.matrix[0, 0] + block.matrix[1, 1])
    return FlowEvent(
        kind="coalescence",
        parameter="rho",
        value=root,
        energy=complex(mean),
        labels=(f"doublet:{doublet}:I", f"doublet:{doublet}:II"),
        tolerance=PARAM_TOL,
    )


def locate_coalescence(
    params: ModelParams, doublet: int, lo: float, hi: float
) -> FlowEvent:
    """Bisection on the exact block discriminant for one ladder doublet."""
    if params.phi != -1:
        raise ValidationError("only the sign-flipped coupling coalesces at real rho")
    event = _coalescence(params, doublet, lo, hi)
    if event is None:
        raise ValidationError(
            f"discriminant of doublet {doublet} does not change sign on "
            f"[{lo}, {hi}]"
        )
    return event
