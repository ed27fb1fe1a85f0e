"""Record the current program's output for every pool job of every workload.

    python3 perfbench/make_reference.py [workload ...]

Writes reference/<workload>.json.  CLI jobs are stored as the SHA-256 and
length of their output bytes; library jobs as their spectra and checks.
Jobs whose routes fail a gate are recorded with their failure counts --
that is the baseline a fix must beat, not something to drop.  Rerun only
when a change to the program is meant to change its output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import pin_blas_threads  # noqa: E402

pin_blas_threads()

from workloads import WORKLOADS, Runner, all_jobs, reference_entry, reference_path  # noqa: E402


def record(workload: str, runner: Runner) -> dict:
    jobs, failed_jobs, root_failures, roots = {}, 0, 0, 0
    for job in all_jobs(workload):
        outcome = runner.run(job)
        jobs[job.id] = reference_entry(outcome)
        failed_jobs += outcome.failed
        root_failures += outcome.root_failures
        roots += outcome.roots
        if outcome.failed:
            print(f"{workload}: {job.id}: {outcome.reason}", file=sys.stderr)
    return {
        "workload": workload,
        "summary": {
            "jobs": len(jobs),
            "failed_jobs": failed_jobs,
            "root_failures": root_failures,
            "roots": roots,
        },
        "jobs": jobs,
    }


def main(names: list[str]) -> int:
    runner = Runner(HERE.parent / ".perfbench-out")
    try:
        for workload in names or list(WORKLOADS):
            document = record(workload, runner)
            lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in document["jobs"].items()]
            head = json.dumps({k: document[k] for k in ("workload", "summary")})[:-1]
            reference_path(workload).parent.mkdir(exist_ok=True)
            reference_path(workload).write_text(
                head + ', "jobs": {\n' + ",\n".join(lines) + "\n}}\n"
            )
            print(workload, json.dumps(document["summary"]))
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
