"""The exit-code contract over the whole input domain.

Every `qjc` run either exits 0 with nothing on stderr, or exits 2 (invalid
input) or 3 (numerical failure) with exactly one stderr line that starts
`error:`.  Warnings are errors under pytest, so an overflow that numpy only
warns about fails here too.  The commands below once escaped the contract;
the seeded draw then walks every command, model and flag, float-range edges
and SVG output included.
"""

import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from qjc.cli import _COMMANDS, _CONFIG_KEYS, _MODELS, _PARAMS, main
from qjc.flow import PARAM_TOL
from csv_reader import read_csv

OVERFLOW_SWEEP = (
    "sweep", "--model", "pseudo-jcm", "--eps", "0.7", "--hw", "1e154",
    "--param", "rho", "--start=-1", "--stop", "2", "--points", "21",
)
UNDERFLOW_SWEEP = (
    "sweep", "--model", "h2", "--eps", "1e-160", "--hw", "1e-160",
    "--param", "rho", "--start", "0", "--stop", "2e-160", "--points", "201",
)
ESCAPES = [  # (argv, exit code, what stderr names)
    (OVERFLOW_SWEEP, 0, ""),
    (UNDERFLOW_SWEEP, 0, ""),
    # a flat plot whose y range lo + 1.0 cannot widen
    (("sweep", "--model", "pseudo-jcm", "--eps", "1e200", "--param", "rho", "--start=-1",
      "--stop", "1", "--points", "21", "--doublets", "0", "--format", "svg"), 0, ""),
    # LAPACK cannot reorder the Schur form of a defective cluster
    (("qes", "--model", "ht", "--phi=-1", "--rho", "3e-162", "--theta", "2", "--c", "1e80",
      "--c-hat", "1e-160", "--N", "1", "--eps", "0.7", "--D", "64"), 3, "Schur reordering"),
    (("spectrum", "--model", "ht", "--rho", "1.178679644097219", "--c-hat", "1e80",
      "--N", "5", "--eps", "1e-300", "--hw", "1e-300"), 3, "Schur reordering"),
    (("spectrum", "--model", "ht", "--N=-1"), 2, "--N must be >= 0"),
    # a theta grid of repeated floats: the tracker divided by a zero step
    (("sweep", "--model", "ht", "--N", "2", "--param", "theta", "--start", "0",
      "--stop", "5e-324", "--points", "11"), 2, "repeat or overflow"),
]


def _outcome(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _keeps_the_contract(code, err) -> bool:
    if code == 0:
        return err == ""
    lines = err.splitlines()
    return code in (2, 3) and len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv, expected, named", ESCAPES)
def test_inputs_that_once_escaped_exit_by_their_codes(capsys, argv, expected, named):
    code, _, err = _outcome(capsys, argv)
    assert code == expected
    assert _keeps_the_contract(code, err), err
    assert named in err


def _events_of(out, kind):
    """(value, labels) of each event comment of one kind in a sweep's CSV."""
    events = []
    for comment in read_csv(out).comments:
        _, found, value, _, labels = comment.split(",")
        if found == kind:
            events.append((float(value), labels))
    return events


def _crossings(out):
    return _events_of(out, "crossing")


def test_a_rescaled_sweep_finds_the_crossings_of_figure_one(capsys):
    # figure 1 with every energy and coupling scaled by 1e-160: the level
    # differences underflow when multiplied, but their signs do not
    code, out, _ = _outcome(capsys, ("sweep", "--model", "h2", "--param", "rho",
                                     "--start", "0", "--stop", "2", "--points", "201"))
    assert code == 0
    plain = _crossings(out)
    code, out, _ = _outcome(capsys, UNDERFLOW_SWEEP)
    assert code == 0
    scaled = _crossings(out)
    assert len(plain) == 4
    for value, labels in plain:  # within one grid step, 1e-162
        assert any(
            other == labels and abs(found - 1e-160 * value) <= 1e-162 for found, other in scaled
        ), (value, labels)


def test_a_rescaled_sweep_prints_only_the_crossings_of_figure_one(capsys):
    # the closed form prescales its subnormal squares, so no rounding splits
    # the rho = 0 degeneracies and the rho = 1 crossings land on grid point 100
    code, out, _ = _outcome(capsys, ("sweep", "--model", "h2", "--param", "rho",
                                     "--start", "0", "--stop", "2", "--points", "201"))
    assert code == 0
    plain = _crossings(out)
    code, out, _ = _outcome(capsys, UNDERFLOW_SWEEP)
    assert code == 0
    grid = np.linspace(0.0, 2e-160, 201)
    (first, labels), *rest = _crossings(out)
    assert labels == plain[0][1]
    # narrowed to PARAM_TOL in the sweep's energy scale 2e-160, not within a step
    assert abs(first - 1e-160 * plain[0][0]) <= 2e-160 * PARAM_TOL
    assert rest == [(grid[100], labels) for _, labels in plain[1:]]
    assert [value for value, _ in plain] == [0.5773502683639525, 1.0, 1.0, 1.0]


def test_a_rescaled_sign_flipped_sweep_finds_the_coalescences_of_the_unit_sweep(capsys):
    # past each coalescence a complex pair's |Im| is about 1e-161, and an
    # absolute realness floor of 1e-10 took such pairs for real, crossing
    # rows; the floor and the coalescences' width scale with the sweep
    flipped = ("--model", "h2", "--phi=-1", "--param", "rho", "--start", "0", "--points", "201")
    code, out, _ = _outcome(capsys, ("sweep", *flipped, "--stop", "2"))
    assert code == 0
    plain = _events_of(out, "coalescence")
    code, out, _ = _outcome(capsys, ("sweep", *flipped, "--stop", "2e-160", "--eps", "1e-160", "--hw", "1e-160"))
    assert code == 0
    assert _crossings(out) == []
    scaled = _events_of(out, "coalescence")
    assert [labels for _, labels in scaled] == [labels for _, labels in plain] != []
    # the unit value within PARAM_TOL of the root, the rescaled one within
    # PARAM_TOL times the scale 2e-160
    for (found, _), (value, _) in zip(scaled, plain):
        assert abs(found - 1e-160 * value) <= 1e-160 * PARAM_TOL + 2e-160 * PARAM_TOL


TINY = ("--eps", "1e-160", "--hw", "1e-160", "--rho", "1e-160")


def test_a_rescaled_theta_sweep_narrows_its_crossing(capsys):
    # the unit sweep's crossing lies on its grid point 1.5; rescaled by 1e-160
    # it falls inside a grid step and is narrowed to PARAM_TOL in the sweep's
    # energy scale 3e-160, not left at the step's middle 1.55e-160.  Its labels
    # stay track:1;track:2, not the unit sweep's track:0;track:2: the
    # tracker's degeneracy tolerance is still absolute below unit scale
    theta = ("sweep", "--model", "ht", "--N", "1", "--param", "theta", "--start", "0", "--points", "31")
    code, out, _ = _outcome(capsys, (*theta, "--stop", "3", "--eps", "1", "--hw", "1", "--rho", "1"))
    assert code == 0
    assert _crossings(out) == [(1.5, "track:0;track:2")]
    code, out, _ = _outcome(capsys, (*theta, "--stop", "3e-160", *TINY))
    assert code == 0
    [(found, labels)] = _crossings(out)
    assert labels == "track:1;track:2"
    assert abs(found - 1.5e-160) <= 3e-160 * PARAM_TOL


def _levels(out, source):
    """re_energy of each row from one source, in order."""
    table = read_csv(out)
    at = table.columns.index("re_energy"), table.columns.index("source")
    return np.array([float(row[at[0]]) for row in table.rows if row[at[1]] == source])


@pytest.mark.parametrize(
    "argv, unit, tiny, source",
    [
        (("spectrum", "--model", "h2", "--D", "16"), (), (), "numeric"),
        (("qes", "--model", "ht", "--N", "1"), ("--theta", "3"), ("--theta", "3e-160"), "qes"),
    ],
    ids=["spectrum", "qes"],
)
def test_the_dense_levels_of_a_rescaled_model_are_the_unit_levels_rescaled(capsys, argv, unit, tiny, source):
    # xGEEV in some LAPACK builds returns the eigenvalues of its own rescaled
    # copy of a matrix this small, 1e21 times too large
    code, out, _ = _outcome(capsys, (*argv, *unit, "--eps", "1", "--hw", "1", "--rho", "1"))
    assert code == 0
    plain = _levels(out, source)
    code, out, _ = _outcome(capsys, (*argv, *tiny, *TINY))
    assert code == 0
    scaled = _levels(out, source)
    assert len(plain) == len(scaled) > 0
    np.testing.assert_allclose(scaled, 1e-160 * plain, rtol=1e-14, atol=0.0)


def test_the_polynomial_check_of_a_rescaled_model_sees_the_rescaled_levels(capsys):
    code, out, _ = _outcome(capsys, ("polyrep-check", "--model", "ht", "--N", "1", "--theta", "3e-160", *TINY))
    assert code == 0
    assert json.loads(out)["max_spectrum_deviation"] < 1e-170


def test_a_spectrum_far_above_unit_scale_passes_the_gate(capsys):
    code, out, err = _outcome(capsys, ("spectrum", "--model", "h2", "--rho", "1e140", "--D", "16"))
    assert (code, err) == (0, "")
    assert len(_levels(out, "numeric")) == 32


# README's "Known limits", each command as listed there.  A change that mends a
# limit edits its case here and its README line together.
CLASS_BY_CUTOFF = (
    "check", "--model", "extended", "--k", "1", "--phi", "-1", "--hw", "1.3", "--rho", "0.02",
)
KNOWN_LIMITS = [  # (argv, exit code, what stdout or stderr holds)
    (("spectrum", "--model", "ht", "--N", "6", "--rho", "0.7", "--theta", "1.2"), 3,
     "residual 4.053e-09 exceeds"),
    (("recur", "--model", "ht", "--N", "10", "--phi=-1", "--rho", "0.05", "--theta", "0.4"), 3,
     "residual 1.038e+01 exceeds"),
    (("recur", "--model", "ht", "--N", "6", "--rho", "0.7", "--c", "0", "--c-hat", "0.125"), 3,
     "residual 5.096e-09 exceeds 1.0e-09; largest leak on the lower |8> component"),
    (("sweep", "--model", "ht", "--N", "0", "--phi", "-1", "--rho", "0.25", "--param", "theta",
      "--start", "0", "--stop", "3", "--points", "11"), 3, "level matching still ambiguous"),
    # the spectrum class depends on the cutoff; both verdicts take the closure rule
    ((*CLASS_BY_CUTOFF, "--D", "40"), 0, '"spectrum_class": "all-real"'),
    ((*CLASS_BY_CUTOFF, "--D", "80"), 0, '"spectrum_class": "mixed"'),
]


def test_the_readme_known_limits_hold_as_listed(capsys):
    for argv, expected, shown in KNOWN_LIMITS:
        code, out, err = _outcome(capsys, argv)
        assert code == expected and _keeps_the_contract(code, err), (argv, err)
        assert shown in out + err, (argv, out, err)
    # the README lists these commands, the last without its cutoff, and no other
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Known limits")[1].split("\n## ")[0]
    listed = [" ".join(span.split()) for span in re.findall(r"`(qjc [^`]+)`", section)]
    commands = [argv for argv, _, _ in KNOWN_LIMITS[:4]] + [CLASS_BY_CUTOFF]
    assert listed == [" ".join(("qjc", *argv)) for argv in commands]


EDGES = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e154, -1e154, 1e300, -1e300)
LADDERS = tuple(name for name, model in _MODELS.items() if model.ladder)
# the models each command (a sweep by its parameter) takes
FITTING = {
    "spectrum": tuple(_MODELS),
    "check": tuple(_MODELS),
    "qes": ("ht",),
    "recur": ("ht",),
    "rho": LADDERS,
    "theta": ("ht",),
    "polyrep-check": ("pseudo-jcm", "ht"),
}
INTS = {
    "k": (-1, 0, 1, 2, 3),
    "phi": (1, -1, 1, -1, 1, -1, 0, 2),
    "N": (-1, 0, 1, 1, 2, 2, 3, 5, 7),
    "D": (-1, 0, 8, 16, 16, 24, 24, 32),
    "guard": (-1, 0, 3, 4, 8, 8),
}
POLY = ("0", "0,0.05", "0.1,-0.02,0.003", "1e300,1e300", "0,", ",", "5e-324,-1e154", "0,,1")


def _float(rng: random.Random) -> float:
    pick = rng.random()
    if pick < 0.15:
        return rng.choice(EDGES)
    if pick < 0.85:
        return round(rng.uniform(-3.0, 3.0), rng.choice((0, 1, 3, 17)))
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)


def _value(rng: random.Random, key: str) -> str:
    if key in INTS:
        return str(rng.choice(INTS[key]))
    if key == "poly":
        return rng.choice(POLY)
    return repr(_float(rng))


def draw_argv(rng: random.Random, tmp) -> list[str]:
    """One command line that argparse accepts, mostly a model the command
    takes with that model's flags; values as --flag=value, so that a
    negative number is never read as a flag."""
    command = rng.choice(tuple(_COMMANDS))
    argv = [command]
    if command == "sweep":
        param = rng.choice(("rho", "theta"))
        bounds = [_float(rng), _float(rng)]
        if rng.random() < 0.85:
            bounds.sort()
        argv += [
            f"--param={param}",
            f"--start={bounds[0]!r}",
            f"--stop={bounds[1]!r}",
            f"--points={rng.choice((-1, 0, 1, 2, 3, 5, 11, 11, 21, 21))}",
        ]
        if rng.random() < 0.5:
            argv.append(f"--doublets={rng.choice((-1, 0, 1, 2, 4))}")
    if command == "figures":
        argv.append(f"--which={rng.choices((1, 2, 3), (10, 10, 1))[0]}")
        flags = {"D", "guard"}
    else:
        fitting = FITTING[param if command == "sweep" else command]
        model = rng.choice(fitting if rng.random() < 0.9 else tuple(_MODELS))
        if rng.random() < 0.98:
            argv.append(f"--model={model}")
        flags = _MODELS[model].flags | {"D", "guard"}
    for key in _PARAMS:
        if rng.random() < (0.01 if key not in flags else 0.9 if key == "N" else 0.5):
            argv.append(f"--{key.replace('_', '-')}={_value(rng, key)}")
    if rng.random() < 0.4:
        formats = _COMMANDS[command][1] if rng.random() < 0.8 else ("csv", "json", "svg")
        argv.append(f"--format={rng.choice(formats)}")
    if rng.random() < (0.8 if "--which=3" in argv else 0.2):
        argv.append(f"--output={tmp}/out.{rng.choice(('csv', 'svg'))}")
    if rng.random() < 0.05:
        config = tmp / "run.conf"
        key = rng.choice(_CONFIG_KEYS)
        other = rng.choice(tuple(_MODELS) if key == "model" else ("csv", "json", "svg"))
        config.write_text(f"{key} = {_value(rng, key) if key in _PARAMS else other}\n")
        argv.append(f"--config={config}")
    return argv


def test_every_drawn_command_exits_by_a_documented_code(capsys, tmp_path):
    # 2,000 fixed draws, about 3 s on a 2-vCPU host
    rng = random.Random(23)
    broken = []
    for _ in range(2000):
        argv = draw_argv(rng, tmp_path)
        try:
            code, _, err = _outcome(capsys, argv)
        except (Exception, SystemExit) as exc:  # an escape is what this test reports
            broken.append((argv, repr(exc)))
            capsys.readouterr()
            continue
        if not _keeps_the_contract(code, err):
            broken.append((argv, code, err))
    assert not broken, broken[:5]
