"""Byte-for-byte golden outputs of the `qjc` command.

Each case runs one command in a fresh interpreter and compares its stdout
with the file recorded under `tests/golden/`.  BLAS is pinned to one thread
because dense eigenvectors differ in their last digits between thread
counts.  The cases cover the README commands plus the JSON, SVG and
`--config` paths.

Re-record (only when an output change is intended) with

    python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "spectrum": ("spectrum", "--model", "extended", "--k", "2", "--phi", "1", "--rho", "0.5"),
    "check": ("check", "--model", "pseudo-jcm", "--rho", "0.4"),
    "qes": ("qes", "--model", "ht", "--N", "2", "--theta", "1.5"),
    "recur": ("recur", "--model", "ht", "--N", "1", "--rho", "1", "--theta", "1.5"),
    "sweep": (
        "sweep", "--model", "h2", "--phi", "-1", "--param", "rho",
        "--start", "0", "--stop", "2", "--points", "201",
    ),
    "figures": ("figures", "--which", "1", "--format", "svg"),
    "polyrep-check": ("polyrep-check", "--model", "ht", "--N", "2", "--rho", "0.7", "--theta", "1.2"),
    "spectrum-json": ("spectrum", "--model", "extended", "--k", "2", "--phi", "1", "--rho", "0.5", "--format", "json"),
    "qes-json": ("qes", "--model", "ht", "--N", "2", "--theta", "1.5", "--format", "json"),
    "recur-json": ("recur", "--model", "ht", "--N", "1", "--rho", "1", "--theta", "1.5", "--format", "json"),
    "spectrum-config": ("spectrum", "--config", str(GOLDEN / "ht.conf")),
    "figures-csv": ("figures", "--which", "1"),
    "sweep-theta": (
        "sweep", "--model", "ht", "--N", "1", "--rho", "1", "--param", "theta",
        "--start", "0", "--stop", "3", "--points", "13",
    ),
    "polyrep-check-pseudo": ("polyrep-check", "--model", "pseudo-jcm", "--N", "4", "--rho", "0.3"),
    "recur-rho-zero": ("recur", "--model", "ht", "--N", "2", "--theta", "1.5"),
    "recur-chat-zero": ("recur", "--model", "ht", "--N", "3", "--rho", "0.8"),
    "recur-both-limits": ("recur", "--model", "ht", "--N", "2"),
    "qes-defective": (
        "qes", "--model", "ht", "--N", "1", "--rho", "0.35355339059327373",
        "--theta", "0", "--phi", "-1",
    ),
    "spectrum-ht": ("spectrum", "--model", "ht", "--N", "3", "--rho", "0.7", "--theta", "1.2", "--phi", "-1"),
    "check-h12": ("check", "--model", "h12", "--phi", "-1", "--rho", "0.9", "--theta", "1.2", "--D", "96"),
}


def run_qjc(argv) -> bytes:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "qjc.cli", *argv],
        env=env,
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert run_qjc(CASES[name]) == expected


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run_qjc(argv))
        print(f"recorded {name}")
