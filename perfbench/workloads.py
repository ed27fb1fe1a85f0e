"""Workload definitions, job execution and output checking.

A workload is a list of *cells*, each naming one command (or library call)
at one size.  Every cell owns a pool of `variants` parameter sets drawn once
from a fixed per-cell generator; the seed program's output for every pool
job is stored under ``reference/``.  A *sweep* runs every pool job once, in
an order drawn from the run's seed, so the same seed always gives the same
job list.  A run makes the workload's fixed number of `sweeps` and times
each job by its fastest repeat.  The count is fixed rather than set by a
time budget: a run that stopped on the clock would take the minimum over
more repeats when the host happened to be fast.  `calibration_eig` is the
size of the eigensolve in the host-speed kernel that brackets each job
(run.HostSpeed): large for the workloads whose cost is large solves and
exact arithmetic, small for the one made of many small calls.

Why a fixed pool and not a fresh sample per seed: job costs swing with the
parameters (complex versus real dense spectra, exact Newton iteration
counts), so a run that sampled the pool measured its sample as much as the
program.  Why the fastest repeat: the host alternates between a fast and a
1.4x slower state for seconds at a time, and repeats that are a sweep apart
rarely both land in the slow state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# modules, not functions: the tracer swaps module attributes, and calls made
# through the module see the wrappers
import qjc.cli
from qjc import _linalg, flow, polyrep, qes, recurrence
from qjc.errors import NumericalError
from qjc.fock import TruncatedFockSpace
from qjc.models import ModelParams, build_ht

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# parameter ranges shared by every workload
RHO_RANGE = (0.0, 2.0)
THETA_RANGE = (0.0, 3.0)

# comparison tolerances for library jobs, from tests/test_acceptance.py:
# route agreement <= 1e-9 (criteria 2, 10), root distance <= 1e-8 (criterion 9),
# reconstruction residual gate 1e-9 (recurrence.reconstruct_eigenvector)
SPECTRUM_TOL = 1e-9
ROOT_TOL = 1e-8
RESIDUAL_TOL = 1e-9


def _cell(command, model=None, D=64, phi=None, **extra):
    cell = {"command": command, "model": model, "D": D, "phi": phi, **extra}
    parts = [command]
    if model:
        parts.append(model)
    for key in ("k", "N", "which"):
        if key in extra:
            parts.append(f"{key}{extra[key]}")
    parts.append(f"D{D}")
    if phi is not None:
        parts.append("phi" + ("+" if phi > 0 else "-"))
    if "fixed" in extra:
        parts.append("rho{rho}:theta{theta}".format(**extra["fixed"]))
    cell["name"] = ":".join(parts)
    return cell


# critical_roots returns wrong roots at weak coupling from N = 8 on, and
# its exact Newton polish then takes 2-16 s per call with a cost that swings
# fivefold between neighbouring rho.  Drawing ht-exact's N >= 8 jobs from
# that region would make every timing depend on the draw, so those cells
# draw rho from STRONG_RHO, and one fixed weak-coupling cell keeps the
# defect (wrong roots, 1.5 s polish) in every sweep at a seed-independent cost.
STRONG_RHO = (0.8, 2.0)
WEAK_CELL = {"N": 10, "phi": -1, "fixed": {"rho": 0.05, "theta": 0.4}}


LARGE_POLY = "0,0,0.001"

WORKLOADS = {
    # few large problems: dense eigen work and symmetry conjugations
    "large-cutoff": {
        "variants": 2,
        "calibration_eig": 256,
        "sweeps": 2,
        "tail_percentile": 65,
        "cells": [
            _cell("spectrum", "h2", 512, 1),
            _cell("spectrum", "jcm", 384),
            _cell("spectrum", "pseudo-jcm", 256),
            _cell("spectrum", "h12", 256, -1),
            _cell("spectrum", "extended", 128, -1, k=3, poly=LARGE_POLY),
            _cell("check", "h2", 256, -1),
            _cell("check", "pseudo-jcm", 128),
            _cell("check", "h12", 384, 1),
            _cell("check", "extended", 128, 1, k=3, poly=LARGE_POLY),
        ]
        + [
            _cell("qes", "ht", D, 1 if N % 2 else -1, N=N)
            for N, D in zip(range(6, 13), (128, 256, 384, 512, 128, 256, 384))
        ],
    },
    # many default-size jobs: per-call Python cost
    "scan": {
        "variants": 3,
        "calibration_eig": 64,
        "sweeps": 5,
        "tail_percentile": 88,
        "cells": [
            _cell("spectrum", "h2", 64, 1),
            _cell("spectrum", "h2", 64, -1),
            _cell("spectrum", "jcm"),
            _cell("spectrum", "pseudo-jcm"),
            _cell("spectrum", "h12", 64, -1),
            _cell("spectrum", "extended", 64, 1, k=3),
            _cell("check", "h2", 64, -1),
            _cell("check", "jcm"),
            _cell("check", "pseudo-jcm"),
            _cell("check", "h12", 64, 1),
            _cell("check", "extended", 64, -1, k=3),
        ]
        + [_cell("qes", "ht", 64, 1 if N % 2 else -1, N=N) for N in range(1, 7)]
        + [_cell("polyrep-check", "ht", 64, -1 if N % 2 else 1, N=N) for N in range(1, 7)]
        + [
            _cell("sweep", "h2", 64, 1),
            _cell("sweep", "h2", 64, -1),
            _cell("sweep", "jcm"),
            _cell("sweep", "pseudo-jcm"),
            _cell("sweep", "extended", 64, -1, k=3),
        ]
        + [_cell("figures", which=w) for w in (1, 2, 3)]
        + [_cell("deviation", "h2", 64, -1, points=41)],
    },
    # the dressed model through the three exact routes
    "ht-exact": {
        "variants": 2,
        "calibration_eig": 256,
        "sweeps": 2,
        "tail_percentile": 55,
        "cells": [
            _cell("ht-routes", "ht", 64, 1 if N % 2 else -1, N=N, rho_range=STRONG_RHO)
            if N >= 8
            else _cell("ht-routes", "ht", 64, 1 if N % 2 else -1, N=N)
            for N in range(2, 13)
        ]
        + [_cell("ht-routes", "ht", 64, **WEAK_CELL)],
    },
}


# ---------------------------------------------------------------------------
# pools and job lists


def _draw_variant(cell: dict, rng: random.Random) -> dict:
    """Parameters for one pool entry, drawn from the documented ranges."""
    if "fixed" in cell or cell["command"] == "figures":
        return dict(cell.get("fixed", {}))
    if cell["command"] in ("sweep", "deviation"):
        # rho sweeps start at 0 and run to a drawn end point
        return {"stop": round(rng.uniform(1.0, RHO_RANGE[1]), 4)}
    variant = {"rho": round(rng.uniform(*cell.get("rho_range", RHO_RANGE)), 4)}
    if cell["model"] in ("h12", "ht"):
        variant["theta"] = round(rng.uniform(*THETA_RANGE), 4)
    return variant


def pool(workload: str) -> list[tuple[dict, list[dict]]]:
    """Every cell with its fixed list of parameter variants."""
    spec = WORKLOADS[workload]
    out = []
    for cell in spec["cells"]:
        rng = random.Random(f"pool:{workload}:{cell['name']}")
        count = 1 if cell["command"] == "figures" or "fixed" in cell else spec["variants"]
        out.append((cell, [_draw_variant(cell, rng) for _ in range(count)]))
    return out


@dataclass(frozen=True)
class Job:
    id: str
    cell: dict
    params: dict

    @property
    def command(self) -> str:
        return self.cell["command"]


def all_jobs(workload: str) -> list[Job]:
    return [
        Job(f"{cell['name']}#{i}", cell, params)
        for cell, variants in pool(workload)
        for i, params in enumerate(variants)
    ]


def sweep_jobs(workload: str, seed: int, sweep: int) -> list[Job]:
    """Every pool job once, in an order drawn from the seed."""
    jobs = all_jobs(workload)
    random.Random(f"{workload}:{seed}:{sweep}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# execution


def cli_argv(job: Job, output: str | None = None) -> list[str]:
    cell, params = job.cell, job.params
    if cell["command"] == "figures":
        argv = ["figures", "--which", str(cell["which"])]
        return argv + ["--output", output] if output else argv
    argv = [cell["command"], "--model", cell["model"]]
    if "k" in cell:
        argv += ["--k", str(cell["k"])]
    if "poly" in cell:
        argv += ["--poly", cell["poly"]]
    if "N" in cell:
        argv += ["--N", str(cell["N"])]
    if cell["phi"] is not None:
        argv += [f"--phi={cell['phi']}"]
    if cell["command"] == "sweep":
        argv += ["--param", "rho", "--start", "0", "--stop", str(params["stop"]), "--points", "201"]
    else:
        argv += ["--rho", str(params["rho"])]
    if "theta" in params:
        argv += ["--theta", str(params["theta"])]
    if cell["D"] != 64:
        argv += ["--D", str(cell["D"])]
    return argv


@dataclass
class Outcome:
    seconds: float
    failed: bool
    reason: str = ""
    payload: dict | None = None  # None when the job produced no output
    root_failures: int = 0
    roots: int = 0
    extra: dict = field(default_factory=dict)


class Runner:
    """Executes jobs against the imported `qjc` package.

    Only the program's own calls sit inside the timed region; digests and
    checks happen afterwards.  Files that `figures --which 3` must write go
    to a private directory under `scratch_parent` that `close()` removes.
    """

    def __init__(self, scratch_parent: Path):
        scratch_parent.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="figures-", dir=scratch_parent))

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def run(self, job: Job) -> Outcome:
        execute = {"ht-routes": self._ht_routes, "deviation": self._deviation}.get(
            job.command, self._cli
        )
        start = time.perf_counter()
        try:
            return execute(job)
        except Exception as exc:  # a gate failure or a crash fails the job, not the run
            return Outcome(time.perf_counter() - start, True, f"raised {exc!r}")

    def _cli(self, job: Job) -> Outcome:
        target = None
        if job.command == "figures" and job.cell["which"] == 3:
            target = self.scratch / "fig3.csv"
        argv = cli_argv(job, str(target) if target else None)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qjc.cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(seconds, True, f"exit {code}: {err.getvalue().strip()[:200]}")
        data = out.getvalue().encode()
        if target is not None:
            for rho in (0, 1, 2):
                path = target.with_name(f"fig3_rho{rho}.csv")
                data += path.read_bytes()
                path.unlink()
        payload = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        return Outcome(seconds, False, payload=payload)

    def _deviation(self, job: Job) -> Outcome:
        cell = job.cell
        start = time.perf_counter()
        spec = flow.SweepSpec(
            params=ModelParams(k=2, phi=cell["phi"]),
            parameter="rho",
            start=0.0,
            stop=job.params["stop"],
            points=cell["points"],
            doublets=2,
        )
        worst = flow.numeric_deviation(spec, TruncatedFockSpace(cell["D"], 8))
        return Outcome(time.perf_counter() - start, False, payload={"deviation": worst})

    def _ht_routes(self, job: Job) -> Outcome:
        """QES, recurrence and polynomial routes, then the cross-check.

        A reconstruction that fails its gate is recorded per root and the
        job goes on; the job still counts as failed.
        """
        cell, p = job.cell, job.params
        params = ModelParams(rho=p["rho"], theta=p["theta"], phi=cell["phi"], n_qes=cell["N"] + 2)
        space = TruncatedFockSpace(cell["D"], 8)
        start = time.perf_counter()
        sub = qes.build_subspace(params, space)
        pairs = qes.algebraic_spectrum(sub, params)
        roots = recurrence.critical_roots(params)
        vectors, failures = [], 0
        for root in roots:
            try:
                vectors.append(recurrence.reconstruct_eigenvector(params, root, space))
            except NumericalError:
                vectors.append(None)
                failures += 1
        op = polyrep.gauge_transform_ht(params)
        poly_spectrum = polyrep.restriction_spectrum(op)
        energies = np.array([pair.energy for pair in pairs])
        poly_vs_qes = _linalg.spectrum_mismatch(poly_spectrum, energies)
        # the roots are the QES levels less the decoupled -eps/2 level
        seeded = int(np.argmin(np.abs(energies + 0.5 * params.epsilon)))
        roots_vs_qes = _linalg.spectrum_mismatch(roots, np.delete(energies, seeded))
        seconds = time.perf_counter() - start
        payload = {
            "qes": energies,
            "roots": np.asarray(roots, dtype=complex),
            "polyrep": np.asarray(poly_spectrum, dtype=complex),
            "poly_vs_qes": float(poly_vs_qes),
            "roots_vs_qes": float(roots_vs_qes),
        }
        reasons = []
        if failures:
            reasons.append(f"{failures}/{len(roots)} reconstructions failed their gate")
        if roots_vs_qes > ROOT_TOL:
            reasons.append(f"recurrence roots differ from QES levels by {roots_vs_qes:.3e}")
        if poly_vs_qes > SPECTRUM_TOL:
            reasons.append(f"polynomial route differs from QES levels by {poly_vs_qes:.3e}")
        return Outcome(
            seconds,
            bool(reasons),
            "; ".join(reasons),
            payload=payload,
            root_failures=failures,
            roots=len(roots),
            extra={"params": params, "space": space, "vectors": vectors},
        )


# ---------------------------------------------------------------------------
# references and checks


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def _complex_list(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def reference_entry(outcome: Outcome) -> dict:
    """What the reference file stores for one job."""
    entry = {"failed": outcome.reason} if outcome.failed else {}
    for key, value in (outcome.payload or {}).items():
        entry[key] = _complex_list(value) if isinstance(value, np.ndarray) else value
    if outcome.roots:
        entry["root_failures"] = outcome.root_failures
    return entry


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())["jobs"]


def _paired_distance(got, expected) -> float:
    """Largest |difference| under greedy nearest-value pairing."""
    got = [complex(v) for v in got]
    remaining = [complex(v) for v in expected]
    if len(got) != len(remaining):
        return float("inf")
    worst = 0.0
    for value in got:
        best = min(range(len(remaining)), key=lambda i: abs(value - remaining[i]))
        worst = max(worst, abs(value - remaining.pop(best)))
    return worst


def check(job: Job, outcome: Outcome, expected: dict) -> str | None:
    """None when the job did what the seed program did, else what differs.

    A job that fails where the reference completed, or that loses more
    reconstructions to the gate than the reference did, differs too: a
    program that gives up early must not read as correct and faster.
    """
    if outcome.failed and "failed" not in expected:
        return f"failed ({outcome.reason}) where the reference completed"
    if outcome.root_failures > expected.get("root_failures", 0):
        return (f"{outcome.root_failures} reconstructions failed their gate, "
                f"reference {expected.get('root_failures', 0)}")
    got = outcome.payload
    has_output = bool({"sha256", "deviation", "qes"} & expected.keys())
    if got is None:
        return "produced no output where the reference did" if has_output else None
    if not has_output:
        return f"reference job produced no output ({expected['failed']}); cannot compare"
    if "sha256" in expected:
        if got["sha256"] != expected["sha256"]:
            return f"output bytes differ ({got['bytes']} vs {expected['bytes']} bytes)"
        return None
    if "deviation" in expected:
        if got["deviation"] > SPECTRUM_TOL:
            return f"closed-form vs numeric deviation {got['deviation']:.3e} > {SPECTRUM_TOL}"
        return None
    problems = []
    for key, tol in (("qes", SPECTRUM_TOL), ("roots", ROOT_TOL), ("polyrep", SPECTRUM_TOL)):
        ref = [complex(re, im) for re, im in expected[key]]
        distance = _paired_distance(got[key], ref)
        # roots that now agree with the QES levels are a fix, not a mismatch
        if distance > tol and not (key == "roots" and got["roots_vs_qes"] <= ROOT_TOL):
            problems.append(f"{key} differs from reference by {distance:.3e}")
    problems += _check_vectors(job, outcome)
    return "; ".join(problems) or None


def _check_vectors(job: Job, outcome: Outcome) -> list[str]:
    """Every reconstructed vector is a unit eigenvector of the full matrix."""
    extra = outcome.extra
    matrix = build_ht(extra["params"], extra["space"]).matrix
    problems = []
    for root, vec in zip(outcome.payload["roots"], extra["vectors"]):
        if vec is None:
            continue
        residual = float(np.linalg.norm(matrix @ vec - root * vec))
        if residual > RESIDUAL_TOL or abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            problems.append(f"vector at E={root:.6g} has residual {residual:.3e}")
    return problems
