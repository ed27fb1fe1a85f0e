"""Byte-for-byte golden outputs of the `qjc` command and the exact recurrence.

Each CLI case runs one command in a fresh interpreter and compares its
stdout with the file recorded under `tests/golden/`.  BLAS is pinned to one
thread because dense eigenvectors differ in their last digits between
thread counts.  The cases cover the README commands plus the JSON, SVG and
`--config` paths, and the help text of `qjc` and of each command.

`recurrence-exact.json` pins the exact recurrence route bit for bit: per
case, the critical polynomial's coefficients as "num/den" strings, each
polished root as `float.hex` pairs, each root's reconstruction-gate verdict
("pass" or the error it raised) and the SHA-256 of each certified vector's
bytes.

Re-record (only when an output change is intended) with

    python tests/test_golden.py
"""

import hashlib
import json
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
    # closed-form rho sweep with polynomial singlets: nine crossings bisected on closed-form gaps
    "sweep-extended-poly": (
        "sweep", "--model", "extended", "--k", "3", "--poly", "0,0,0.05", "--phi", "1",
        "--param", "rho", "--start", "0", "--stop", "2", "--points", "101", "--doublets", "3",
    ),
    # high doublets: 100 crossings bisected among ten tracked doublets
    "sweep-h2-doublets": (
        "sweep", "--model", "h2", "--param", "rho", "--start", "0", "--stop", "2",
        "--points", "51", "--doublets", "10",
    ),
    # sign-flipped coupling with a polynomial diagonal: complex tracks plus coalescences
    "sweep-extended-poly-pseudo": (
        "sweep", "--model", "extended", "--k", "3", "--poly", "0,0,0.05", "--phi", "-1",
        "--param", "rho", "--start", "0", "--stop", "2", "--points", "201", "--doublets", "4",
    ),
    # SVG of a sign-flipped sweep: eps != hw opens the gap, so two coalescence markers
    "sweep-pseudo-jcm-svg": (
        "sweep", "--model", "pseudo-jcm", "--eps", "0.5", "--param", "rho", "--start", "0",
        "--stop", "1.5", "--points", "101", "--format", "svg",
    ),
    "spectrum-extended-poly": (
        "spectrum", "--model", "extended", "--k", "3", "--poly", "0,0,0.001",
        "--phi", "-1", "--rho", "0.3", "--D", "32",
    ),
    # photon transfer k >= 4, where numpy's matrix_power switches to binary squaring
    "spectrum-extended-k4": ("spectrum", "--model", "extended", "--k", "4", "--phi", "-1", "--rho", "0.3"),
    "spectrum-extended-k5-poly": (
        "spectrum", "--model", "extended", "--k", "5", "--phi", "1", "--rho", "0.2", "--poly", "0,0,0.01",
    ),
    "check-extended-k4": ("check", "--model", "extended", "--k", "4", "--phi", "-1", "--rho", "0.3"),
    # the block outside ht's invariant subspace is so ill-conditioned here that the
    # block and dense eigenvalues differ by 1e-2; the spectrum class must not
    "check-ht": (
        "check", "--model", "ht", "--phi", "-1", "--rho", "0.3", "--theta", "0.7", "--N", "2", "--D", "64",
    ),
    # hermitian (phi = +1, c = c_hat) eigenvalue-only problems
    "check-h12-hermitian": (
        "check", "--model", "h12", "--phi", "1", "--rho", "0.5", "--theta", "0.3", "--D", "128",
    ),
    # weak coupling: the long hermitian path's levels cluster (smallest gap 3e-4)
    "check-h12-weak-d384": (
        "check", "--model", "h12", "--phi", "1", "--rho", "0.1213", "--theta", "0.0271", "--D", "384",
    ),
    "check-ht-hermitian": (
        "check", "--model", "ht", "--phi", "1", "--N", "4", "--rho", "0.5", "--theta", "1.2", "--D", "128",
    ),
    "qes-ht-d256": (
        "qes", "--model", "ht", "--N", "8", "--phi", "-1", "--rho", "0.9", "--theta", "1.2", "--D", "256",
    ),
    # certification residuals at large cutoffs: complex (zgemv) and real (dgemv)
    # vectors, and a lower tower that starts off a multiple of four rows
    "qes-ht-d384-complex": (
        "qes", "--model", "ht", "--N", "12", "--phi", "-1", "--rho", "1.0213", "--theta", "2.7864",
        "--D", "384",
    ),
    "qes-ht-d512-real": (
        "qes", "--model", "ht", "--N", "9", "--phi", "1", "--rho", "0.8732", "--theta", "1.0155",
        "--D", "512",
    ),
    # the slab route at scale: certification and reconstruction residuals at 2D = 4096 and 2048
    "qes-ht-d2048": ("qes", "--model", "ht", "--N", "9", "--D", "2048", "--rho", "0.9", "--theta", "1.2"),
    # the Jordan pair of qes-defective, its cluster certified at 2D = 4096
    "qes-defective-d2048": (
        "qes", "--model", "ht", "--N", "1", "--rho", "0.35355339059327373",
        "--theta", "0", "--phi", "-1", "--D", "2048",
    ),
    "recur-ht-d1024": ("recur", "--model", "ht", "--N", "4", "--D", "1024", "--rho", "0.7", "--theta", "1.2"),
    "qes-ht-d130": ("qes", "--model", "ht", "--N", "5", "--phi", "-1", "--rho", "0.6", "--theta", "2.1", "--D", "130"),
    # reconstruction residuals on an odd cutoff (2D = 2 mod 4), generic and rho = 0 chains
    "recur-ht-d129": ("recur", "--model", "ht", "--N", "3", "--rho", "0.7", "--theta", "1.2", "--D", "129"),
    "recur-rho-zero-d129": ("recur", "--model", "ht", "--N", "2", "--theta", "1.5", "--D", "129"),
    "spectrum-ht-d97": ("spectrum", "--model", "ht", "--N", "2", "--rho", "0.7", "--theta", "1.2", "--D", "97"),
    # argparse help: the top level and each command's flags
    "help": ("-h",),
    **{
        f"help-{command}": (command, "-h")
        for command in ("spectrum", "check", "qes", "recur", "sweep", "figures", "polyrep-check")
    },
}


# name -> (N, phi, rho, theta, hbar_omega, epsilon); n_qes = N + 2, as in `qjc --N`
RECURRENCE_CASES = {
    f"N{big_n}:phi{'+' if phi > 0 else '-'}:rho{rho}:theta{theta}": (big_n, phi, rho, theta, 1.0, 1.0)
    for big_n in range(2, 13)
    for phi in (1, -1)
    for rho, theta in ((0.7, 1.2), (1.6, 0.5))
}
RECURRENCE_CASES.update(
    {
        "weak-coupling": (10, -1, 0.05, 0.4, 1.0, 1.0),
        "rho-zero": (3, -1, 0.0, 1.5, 1.0, 1.0),
        "chat-zero": (3, 1, 0.8, 0.0, 1.0, 1.0),
        "both-limits": (2, -1, 0.0, 0.0, 1.0, 1.0),
        "N16": (16, 1, 0.7, 1.2, 1.0, 1.0),
    }
)
# off the default hbar_omega = epsilon = 1, where the two enter the exact couplings separately
RECURRENCE_CASES.update(
    {
        f"hw0.75:eps1.3:N{big_n}:phi{'+' if phi > 0 else '-'}": (big_n, phi, 0.7, 1.2, 0.75, 1.3)
        for big_n in (3, 7)
        for phi in (1, -1)
    }
)
RECURRENCE_CASES.update(
    {
        "hw0.75:eps1.3:rho-zero": (3, -1, 0.0, 1.5, 0.75, 1.3),
        "hw0.75:eps1.3:chat-zero": (3, 1, 0.8, 0.0, 0.75, 1.3),
    }
)
RECURRENCE_GOLDEN = GOLDEN / "recurrence-exact.json"


def recurrence_record(case) -> dict:
    """Exact coefficients, root bits, gate verdicts and vector hashes of one case."""
    # imported here: `python tests/test_golden.py` puts src on the path first
    from qjc.errors import NumericalError, ValidationError
    from qjc.fock import TruncatedFockSpace
    from qjc.models import ModelParams
    from qjc.recurrence import critical_polynomial, critical_roots, reconstruct_eigenvector

    big_n, phi, rho, theta, hbar_omega, epsilon = case
    params = ModelParams(
        epsilon=epsilon, hbar_omega=hbar_omega, rho=rho, theta=theta, phi=phi, n_qes=big_n + 2
    )
    space = TruncatedFockSpace(64, 8)
    roots = []
    for root in critical_roots(params):
        try:
            psi = reconstruct_eigenvector(params, root, space)
        except (NumericalError, ValidationError) as err:
            gate, digest = type(err).__name__, None
        else:
            gate, digest = "pass", hashlib.sha256(psi.tobytes()).hexdigest()
        roots.append(
            {"root": [float(root.real).hex(), float(root.imag).hex()], "gate": gate, "sha256": digest}
        )
    return {
        "critical": [f"{c.numerator}/{c.denominator}" for c in critical_polynomial(params).coefficients],
        "roots": roots,
    }


def pinned_env() -> dict:
    """Environment of a fresh interpreter whose output bits are pinned:
    BLAS on one thread, help text 80 columns wide, `src` importable."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # argparse wraps help text to the terminal width it reads from COLUMNS
    env["COLUMNS"] = "80"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_qjc(argv) -> bytes:
    done = subprocess.run(
        [sys.executable, "-m", "qjc.cli", *argv],
        env=pinned_env(),
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert run_qjc(CASES[name]) == expected


@pytest.mark.parametrize("name", list(RECURRENCE_CASES))
def test_recurrence_matches_golden(name):
    expected = json.loads(RECURRENCE_GOLDEN.read_text())[name]
    assert recurrence_record(RECURRENCE_CASES[name]) == expected


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run_qjc(argv))
        print(f"recorded {name}")
    records = {name: recurrence_record(case) for name, case in RECURRENCE_CASES.items()}
    RECURRENCE_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {RECURRENCE_GOLDEN.name}")
