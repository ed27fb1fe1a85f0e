"""qjc benchmark: one closed-loop client driving the package in-process.

    python3 perfbench/run.py --workload large-cutoff --seed 1 --seconds 20 --trace 0

Runs the workload's fixed number of sweeps (see workloads.py), checks every
job's output against the stored reference and prints one JSON object as the
last line of stdout.  Each job is timed by its fastest repeat, scaled to a
reference host speed by a calibration kernel timed around it (HostSpeed);
the measured times are recorded next to the result.  `--seconds`
is accepted because the benchmark's command line includes it, and recorded,
but sets nothing: the sweep count is fixed per workload.  With `--trace 0` it
reports the end-to-end metrics of the unpatched program; with `--trace 1`
every sweep runs untraced and then traced, and it reports the per-layer
metrics (tracing.py) and the tracing overhead.  The line before the result
records the environment, the tail percentile, the failure and mismatch
ratios and the seed program's failure ratio on the same jobs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 5
# fresh interpreter to ready: import the CLI, build the parser, run one job.
# Then, outside the set-up time, it times the host-speed kernel on its own
# processor and prints that time and how long the kernel part took.
SETUP_CODE = (
    "import sys, io, contextlib\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qjc.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = qjc.cli.main(['spectrum', '--model', 'h2'])\n"
    "import time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import HostSpeed\n"
    "host = HostSpeed(64)\n"
    "kernel = min(host.sample() for _ in range(3))\n"
    "print(kernel, time.perf_counter() - start)\n"
    "sys.exit(code)\n"
)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the calibration kernel's time, by the size of its eigensolve, on a 2-vCPU
# x86-64 host (Python 3.11, one BLAS thread) in that host's fast state; the
# reported job times are in the same terms (see HostSpeed)
CALIBRATION_REFERENCE_S = {64: 0.007, 256: 0.055}


def pin_blas_threads():
    """One BLAS thread; must run before numpy loads.

    Dense eigenvectors differ in the last digits between BLAS thread counts
    (at D >= 256 a third of the large-cutoff outputs change), so the
    byte-for-byte reference holds only at a fixed count, and one thread is
    the count every host has.
    """
    for name in BLAS_VARIABLES:
        os.environ[name] = "1"


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports (numpy's and scipy's copies)."""
    import ctypes

    found = {}
    for package in ("numpy", "scipy"):
        libs = Path(sys.modules[package].__file__).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getattr(lib, symbol).restype = ctypes.c_int
                    found[package] = getattr(lib, symbol)()
                    break
    return found


class HostSpeed:
    """Times a fixed kernel that does not touch qjc, around every timed job.

    The host this benchmark was tuned on switches between a fast state and
    states up to 1.9x slower, each lasting from seconds to minutes, as other
    tenants load the machine.  CPU time slows with wall time, so the
    processor itself runs slower, and a slow phase as long as a run survives
    any minimum over repeats.  So each job's time is divided by the mean of
    the kernel's times just before and just after it, and multiplied by the
    kernel's reference time: a job that ran in a slow state reads about as
    in the fast one.

    The kernel is exact-rational and dict-bound Python, like the recurrence
    and the CLI, plus one dense eigensolve of size `eig_size`.  The size is
    the workload's: interpreted code and small solves slow by more than
    large solves do, so a kernel tracks a workload only when its mix
    resembles the workload's.  It runs with the garbage collector off, so
    objects the program leaves on the heap cannot slow it.
    """

    def __init__(self, eig_size: int):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((eig_size, eig_size))
        self.reference = CALIBRATION_REFERENCE_S[eig_size]
        self._kernel()  # imports and first-call costs stay out of the samples
        self.samples: list[float] = []

    def _kernel(self):
        from fractions import Fraction

        import scipy.linalg

        x, total = Fraction(1, 3), Fraction(0)
        for i in range(1, 200):
            total += x * Fraction(i, i + 7)
            x = x * Fraction(3, 4) + Fraction(1, i)
        counts = {}
        for i in range(10000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        scipy.linalg.eig(self.matrix)

    def sample(self) -> float:
        """The kernel's wall time now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            seconds = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def reference_seconds(self, seconds: float) -> float:
        """A job that has just taken `seconds`, at reference speed.

        The kernel's last sample, taken just before the job, and a new one
        taken now bracket it.
        """
        before = self.samples[-1]
        after = self.sample()
        return seconds * self.reference / (0.5 * (before + after))


def setup_seconds() -> list[tuple[float, float]]:
    """Measured and reference-speed seconds of each fresh interpreter.

    The kernel that scales set-up time runs in the set-up interpreter itself,
    after it is ready: this host's slow states are per processor, and the
    child need not run on the benchmark's own.  The kernel's part is taken
    out of the measured time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        # blocking reads: wait(timeout=...) polls in steps of up to 50 ms,
        # which would round every set-up time up to the next step
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}")
        kernel, kernel_part = map(float, out.split())
        seconds = wall - kernel_part
        times.append((seconds, seconds * CALIBRATION_REFERENCE_S[64] / kernel))
    return times


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics.

    With a few dozen jobs whose costs sit at discrete levels, a single order
    statistic jumps between neighbouring levels when noise swaps two jobs;
    this estimate moves smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    q = pct / 100.0
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def warm_up(workload: str, runner):
    """One untimed job per command, from its smallest cell."""
    from workloads import Job, pool

    smallest = {}
    for cell, variants in pool(workload):
        size = (cell["D"], cell.get("N", 0))
        if cell["command"] not in smallest or size < smallest[cell["command"]][0]:
            smallest[cell["command"]] = (size, Job(f"{cell['name']}#0", cell, variants[0]))
    for _, job in smallest.values():
        runner.run(job)


def run_sweeps(workload, seed, runner, host, tracer=None):
    """The workload's fixed number of sweeps.

    Returns the untraced (job, outcome) records, each untraced job's time at
    reference speed, the traced records, the wall time and the number of
    sweeps.
    """
    from workloads import WORKLOADS, sweep_jobs

    sweeps = WORKLOADS[workload]["sweeps"]
    untraced, reference_seconds, traced = [], [], []
    start = time.perf_counter()
    for sweep in range(sweeps):
        jobs = sweep_jobs(workload, seed, sweep)
        host.sample()
        for job in jobs:
            outcome = runner.run(job)
            untraced.append((job, outcome))
            reference_seconds.append(host.reference_seconds(outcome.seconds))
        if tracer is not None:
            tracer.install()
            try:
                for job in jobs:
                    tracer.job_id = len(traced)
                    traced.append((job, runner.run(job)))
            finally:
                tracer.restore()
    return untraced, reference_seconds, traced, time.perf_counter() - start, sweeps


def fastest(timed) -> dict[str, float]:
    """Each job's fastest repeat, from (job, seconds) pairs."""
    best = {}
    for job, seconds in timed:
        best[job.id] = min(seconds, best.get(job.id, float("inf")))
    return best


def measured(records):
    """(job, measured seconds) pairs of (job, outcome) records."""
    return [(job, outcome.seconds) for job, outcome in records]


def summarize(records, reference):
    """Failure and mismatch counts over (job, outcome) records."""
    from workloads import check

    failed = [(job.id, o.reason) for job, o in records if o.failed]
    completed = [(job, o) for job, o in records if o.payload is not None]
    # every record is checked: a job that fails where the seed program
    # completed is a mismatch even though it has no output to compare
    mismatched = []
    for job, outcome in records:
        problem = check(job, outcome, reference[job.id])
        if problem:
            mismatched.append((job.id, problem))
    baseline = sum(1 for job, _ in records if "failed" in reference[job.id])
    return {
        "attempted": len(records),
        "completed": len(completed),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "mismatch_ratio": len(mismatched) / len(records),
        "baseline_failed_ratio": baseline / len(records),
        "root_failures": sum(o.root_failures for _, o in records),
        "roots": sum(o.roots for _, o in records),
        "failures": failed[:5],
        "mismatches": mismatched[:5],
        "n_mismatched": len(mismatched),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup, untraced, reference_seconds, peak_rss_mb, tail_pct) -> dict:
    """The metrics; job times are at reference speed (see HostSpeed)."""
    timed = [(job, s) for (job, _), s in zip(untraced, reference_seconds)]
    times = list(fastest(timed).values())
    # throughput over the jobs that ran to the end, each at its fastest repeat
    completed = fastest(
        (job, s) for (job, o), s in zip(untraced, reference_seconds) if o.payload is not None
    )
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "job_s.p50": metric(percentile(times, 50), "s"),
        "job_s.tail": metric(percentile(times, tail_pct), "s"),
        "jobs_per_s": metric(len(completed) / sum(completed.values()), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer_metrics(tracer, untraced, traced) -> dict:
    from tracing import UNITS, SpanTable, layer_metrics

    values = layer_metrics(SpanTable(tracer.names, tracer.spans()), len(traced))
    values["trace.overhead_s"] = percentile(
        list(fastest(measured(traced)).values()), 50
    ) - percentile(list(fastest(measured(untraced)).values()), 50)
    return {name: metric(values[name], unit) for name, unit in UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qjc" / "__init__.py").is_file():
        print(f"error: the qjc sources are missing under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    qjc_threads = os.environ.pop("QJC_THREADS", None)
    sys.path[:0] = [str(HERE), str(SRC)]

    import numpy
    import scipy

    import qjc
    from tracing import Tracer
    from workloads import WORKLOADS, Runner, load_reference

    if Path(qjc.__file__).resolve().parent != (SRC / "qjc").resolve():
        print(f"error: imported qjc from {qjc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = load_reference(args.workload)
    tail_pct = WORKLOADS[args.workload]["tail_percentile"]

    setup = [] if args.trace else setup_seconds()
    host = HostSpeed(WORKLOADS[args.workload]["calibration_eig"])
    runner = Runner(OUT)
    tracer = Tracer(qjc) if args.trace else None
    try:
        warm_up(args.workload, runner)
        untraced, reference_seconds, traced, wall, sweeps = run_sweeps(
            args.workload, args.seed, runner, host, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = summarize(untraced + traced, reference)
    finally:
        runner.close()

    times = list(fastest(zip((job for job, _ in untraced), reference_seconds)).values())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sweeps": sweeps,
        "wall_s": wall,
        "executions": len(untraced),
        "samples": len(times),
        "tail_percentile": tail_pct,
        "beyond_tail": sum(t > percentile(times, tail_pct) for t in times),
        **{k: summary[k] for k in summary if k != "n_mismatched"},
        # measured times; the end-to-end metrics are at reference speed
        "setup_runs_s": [seconds for seconds, _ in setup],
        "measured_job_s.p50": percentile(list(fastest(measured(untraced)).values()), 50),
        "calibration_s": {"median": statistics.median(host.samples),
                          "reference": host.reference, "samples": len(host.samples)},
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "QJC_THREADS": qjc_threads or "unset",  # removed for the run either way
        },
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, untraced, traced)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_file)
        info["traced_jobs"] = len(traced)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(
            [scaled for _, scaled in setup], untraced, reference_seconds, peak_rss_mb, tail_pct
        )
    print(json.dumps({"info": info}))
    result = {
        "correct": summary["n_mismatched"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
