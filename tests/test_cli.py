"""End-to-end checks of the command-line interface.

Everything goes through main(argv) so the exit-code contract (0 ok,
2 bad input, 3 numerical failure) is exercised exactly as a shell would
see it.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qjc.cli
import qjc.errors
import qjc.flow
import qjc.models
import qjc.output
import qjc.qes
import qjc.recurrence
from qjc.cli import main
from qjc.errors import TrackingAmbiguityError
from csv_reader import read_csv

XML_CONFIG = Path(__file__).parent / "golden" / "format-xml.conf"
NAN_CONFIG = Path(__file__).parent / "golden" / "rho-nan.conf"
BOGUS_MODEL_CONFIG = Path(__file__).parent / "golden" / "model-bogus.conf"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def csv_rows(text, source=None):
    table = read_csv(text)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    if source is not None:
        rows = [r for r in rows if r.get("source") == source]
    return table, rows


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_two_photon_lowest_levels(capsys):
    code, out = run(
        capsys,
        "spectrum", "--model", "extended", "--k", "2", "--phi", "1",
        "--rho", "0", "--D", "16", "--guard", "4",
    )
    assert code == 0
    _, rows = csv_rows(out, source="closed-form")
    energies = sorted(float(r["re_energy"]) for r in rows)[:6]
    np.testing.assert_allclose(energies, [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5], atol=1e-12)
    assert all(float(r["residual"]) < 1e-9 for r in rows)
    assert all(float(r["im_energy"]) == 0.0 for r in rows)


def test_spectrum_dressed_example_values(capsys):
    code, out = run(
        capsys,
        "spectrum", "--model", "ht", "--N", "1", "--rho", "0", "--theta", "1",
        "--D", "32", "--guard", "4",
    )
    assert code == 0
    _, qes = csv_rows(out, source="qes")
    got = sorted(float(r["re_energy"]) for r in qes)
    root2 = np.sqrt(2.0)
    expected = sorted(
        [-0.5, -1 / 6, 7 / 6, (9 - 2 * root2) / 6, (9 + 2 * root2) / 6, 2.5]
    )
    np.testing.assert_allclose(got, expected, atol=1e-12)
    _, recur = csv_rows(out, source="recurrence")
    assert len(recur) == 5  # every level except the constant -eps/2 one
    assert all(float(r["residual"]) < 1e-10 for r in recur)


def test_spectrum_h2_alias_matches_extended(capsys):
    code_a, out_a = run(
        capsys, "spectrum", "--model", "h2", "--rho", "0.3", "--D", "16", "--guard", "4"
    )
    code_b, out_b = run(
        capsys,
        "spectrum", "--model", "extended", "--k", "2", "--rho", "0.3",
        "--D", "16", "--guard", "4",
    )
    assert code_a == code_b == 0
    # same physics, different model tag in the trailing comment
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(out_a) == strip(out_b)


def test_spectrum_writes_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out = run(
        capsys,
        "spectrum", "--model", "jcm", "--rho", "0.2", "--D", "16", "--guard", "4",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("label,n,branch,re_energy,im_energy")


def test_spectrum_json_format(capsys):
    code, out = run(
        capsys,
        "spectrum", "--model", "jcm", "--D", "16", "--guard", "4",
        "--format", "json",
    )
    assert code == 0
    document = json.loads(out)
    assert list(document)[0] == "schema_version"
    assert document["rows"][0]["label"] == "singlet:0"


# ---------------------------------------------------------------------------
# input validation -> exit 2


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("spectrum", "--model", "jcm", "--theta", "1"), "--theta"),
        (("spectrum", "--model", "jcm", "--k", "2"), "--k"),
        (("spectrum", "--model", "extended", "--N", "1"), "--N"),
        (("spectrum", "--model", "ht", "--theta", "1"), "--N"),
        (("spectrum",), "--model"),
        (("qes", "--model", "jcm"), "ht"),
        (("recur", "--model", "h12"), "ht"),
        (("sweep", "--model", "ht", "--N", "0", "--param", "rho",
          "--start", "0", "--stop", "1", "--points", "5"), "ladder"),
        (("sweep", "--model", "jcm", "--param", "theta",
          "--start", "0", "--stop", "1", "--points", "5"), "ht"),
        (("sweep", "--model", "jcm", "--param", "rho",
          "--start", "0", "--stop", "1", "--points", "1"), "grid"),
        (("figures", "--which", "3"), "--output"),
        (("polyrep-check", "--model", "extended"), "polyrep"),
        # builder preconditions on the Fock space
        (("spectrum", "--model", "h2", "--guard", "3"), "guard"),
        (("spectrum", "--model", "h2", "--D", "10"), "cutoff"),
        (("recur", "--model", "ht", "--N", "1", "--guard", "2"), "guard"),
        # flags the pseudo-jcm polynomial check does not take
        (("polyrep-check", "--model", "pseudo-jcm", "--theta", "1"), "--theta"),
        (("polyrep-check", "--model", "pseudo-jcm", "--phi", "-1"), "--phi"),
        (("polyrep-check", "--model", "pseudo-jcm", "--k", "3"), "--k"),
        (("polyrep-check", "--model", "pseudo-jcm", "--poly", "0,0,1"), "--poly"),
        # a format the command cannot write, from a flag or a config file
        (("qes", "--model", "ht", "--N", "1", "--format", "svg"), "svg"),
        (("spectrum", "--model", "jcm", "--format", "svg"), "svg"),
        (("recur", "--model", "ht", "--N", "1", "--format", "svg"), "svg"),
        (("sweep", "--model", "h2", "--param", "rho", "--start", "0", "--stop", "1",
          "--points", "5", "--format", "json"), "json"),
        (("figures", "--which", "1", "--format", "json"), "json"),
        (("spectrum", "--model", "jcm", "--D", "8", "--guard", "3",
          "--config", str(XML_CONFIG)), "xml"),
        (("check", "--model", "jcm", "--config", str(XML_CONFIG)), "xml"),
        # non-finite parameters, from a flag or a config file
        (("spectrum", "--model", "h2", "--rho", "nan"), "rho must be finite"),
        (("spectrum", "--model", "h2", "--rho", "inf"), "rho must be finite"),
        (("check", "--model", "jcm", "--hw", "nan"), "hbar_omega must be finite"),
        (("polyrep-check", "--model", "ht", "--N", "1", "--rho", "nan"), "rho must be finite"),
        (("recur", "--model", "ht", "--N", "1", "--theta", "nan"), "theta must be finite"),
        (("spectrum", "--model", "h2", "--config", str(NAN_CONFIG)), "rho must be finite"),
        (("spectrum", "--model", "extended", "--k", "3", "--poly", "0,0,nan"),
         "poly coefficients must be finite"),
        # a model name only a config file can carry past argparse's choices
        (("spectrum", "--config", str(BOGUS_MODEL_CONFIG)), "unknown model 'bogus'"),
        (("polyrep-check", "--model", "pseudo-jcm", "--N", "0"), "--N must be >= 1"),
        # phi's sign is checked by ModelParams, which every command but figures builds
        (("spectrum", "--model", "h2", "--phi", "2"), "phi must be +1 or -1, got 2"),
        (("check", "--model", "h12", "--phi", "2"), "phi must be +1 or -1, got 2"),
        (("qes", "--model", "ht", "--N", "1", "--phi", "2"), "phi must be +1 or -1, got 2"),
        (("recur", "--model", "ht", "--N", "1", "--phi", "2"), "phi must be +1 or -1, got 2"),
        (("sweep", "--model", "h2", "--phi", "2", "--param", "rho", "--start", "0",
          "--stop", "1", "--points", "5"), "phi must be +1 or -1, got 2"),
        (("polyrep-check", "--model", "ht", "--N", "1", "--phi", "2"),
         "phi must be +1 or -1, got 2"),
    ],
)
def test_invalid_input_exits_2(capsys, argv, fragment):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert fragment in err


def test_unknown_flag_exits_2_via_argparse():
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--bogus", "1"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# check


def test_check_pseudo_jcm_truth_table(capsys):
    code, out = run(
        capsys, "check", "--model", "pseudo-jcm", "--rho", "0.4", "--D", "32"
    )
    assert code == 0
    document = json.loads(out)
    assert document["hermitian"]["ok"] is False
    assert document["pseudo"]["sigma3"]["ok"] is True
    assert document["pseudo"]["parity"]["ok"] is True
    assert document["tolerances"]["structure"] == 1e-12


def test_check_jcm_is_hermitian(capsys):
    code, out = run(capsys, "check", "--model", "jcm", "--rho", "0.4", "--D", "32")
    document = json.loads(out)
    assert code == 0
    assert document["hermitian"]["ok"] is True
    assert document["spectrum_class"] == "all-real"


def test_check_two_photon_flipped_loses_parity(capsys):
    code, out = run(
        capsys,
        "check", "--model", "extended", "--k", "2", "--phi", "-1",
        "--rho", "0.4", "--D", "32",
    )
    document = json.loads(out)
    assert code == 0
    assert document["pseudo"]["sigma3"]["ok"] is True
    assert document["pseudo"]["parity"]["ok"] is False


# ---------------------------------------------------------------------------
# qes / recur


def test_qes_certificate(capsys):
    code, out = run(
        capsys,
        "qes", "--model", "ht", "--N", "2", "--theta", "1.5", "--rho", "0.5",
        "--format", "json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["subspace_dim"] == 8
    assert document["invariance_defect"] == 0.0
    assert len(document["eigenvalues"]) == 8
    assert all(e["residual"] < 1e-10 for e in document["eigenvalues"])


def test_recur_roots_live_inside_qes_spectrum(capsys):
    code, out = run(
        capsys,
        "recur", "--model", "ht", "--N", "1", "--rho", "1", "--theta", "0.5",
    )
    assert code == 0
    table, rows = csv_rows(out)
    assert len(rows) == 5
    assert all(float(r["distance_to_algebraic"]) < 1e-8 for r in rows)
    assert all(float(r["reconstruction_residual"]) < 1e-10 for r in rows)
    assert any("degree 5" in c for c in table.comments)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rho_csv_contract(capsys):
    code, out = run(
        capsys,
        "sweep", "--model", "h2", "--phi", "-1", "--param", "rho",
        "--start", "0", "--stop", "0.5", "--points", "11",
        "--D", "32", "--guard", "8",
    )
    assert code == 0
    table, rows = csv_rows(out)
    assert table.columns == ("param_value", "level_label", "re_energy", "im_energy")
    assert len(rows) == 11 * 6  # two singlets + two tracked doublets
    events = [c for c in table.comments if c.startswith("event,coalescence")]
    assert len(events) == 2
    values = sorted(float(e.split(",")[2]) for e in events)
    np.testing.assert_allclose(
        values, [1 / (2 * np.sqrt(6)), 1 / (2 * np.sqrt(2))], atol=1e-6
    )


def test_sweep_theta_reports_crossing(capsys):
    code, out = run(
        capsys,
        "sweep", "--model", "ht", "--N", "1", "--rho", "1", "--param", "theta",
        "--start", "0", "--stop", "3", "--points", "13",
        "--D", "32", "--guard", "4",
    )
    assert code == 0
    table, _ = csv_rows(out)
    crossings = [c for c in table.comments if c.startswith("event,crossing")]
    assert crossings, table.comments
    theta_star = float(crossings[0].split(",")[2])
    assert abs(theta_star - 1.5) < 1e-6
    assert "-0.5" in crossings[0].split(",")[3]


def test_sweep_round_trips_through_reader(capsys):
    code, out = run(
        capsys,
        "sweep", "--model", "jcm", "--param", "rho",
        "--start", "0", "--stop", "1", "--points", "5",
        "--D", "16", "--guard", "4",
    )
    assert code == 0
    from qjc.output import write_csv

    assert write_csv(read_csv(out)) == out


def test_sweep_svg_output(capsys):
    code, out = run(
        capsys,
        "sweep", "--model", "jcm", "--param", "rho",
        "--start", "0", "--stop", "1", "--points", "9",
        "--D", "16", "--guard", "4", "--format", "svg",
    )
    assert code == 0
    assert out.startswith("<svg")
    assert "polyline" in out


def test_real_tracking_failure_salvages_the_tracked_prefix(capsys):
    code, out = run(
        capsys,
        "sweep", "--model", "ht", "--N", "0", "--phi", "-1", "--rho", "0.25",
        "--param", "theta", "--start", "0", "--stop", "3", "--points", "11",
    )
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 42  # header, ten grid points of four tracks, the marker
    assert lines[-1].startswith("# INCOMPLETE level matching still ambiguous")


def test_tracking_failure_emits_partial_csv_and_exit_3(capsys, monkeypatch):
    def explode(spec):
        exc = TrackingAmbiguityError("could not disambiguate tracks")
        exc.partial_grid = np.array([0.0, 0.25])
        exc.partial_tracks = np.array([[1.0, 1.1], [2.0, 1.9]], dtype=complex)
        raise exc

    monkeypatch.setattr("qjc.cli.qes_theta_sweep", explode)
    code, out = run(
        capsys,
        "sweep", "--model", "ht", "--N", "1", "--param", "theta",
        "--start", "0", "--stop", "3", "--points", "7",
    )
    assert code == 3
    assert "# INCOMPLETE" in out
    _, rows = csv_rows(out)
    assert len(rows) == 4  # two grid points, two salvaged tracks


def _outcome(capsys, tmp_path, argv):
    """Exit code, stdout, stderr and the files a command wrote."""
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
    for path in tmp_path.iterdir():
        path.unlink()
    return code, captured.out, captured.err, files


THETA_AMBIGUOUS = (
    "sweep", "--model", "ht", "--N", "1", "--phi=-1", "--rho", "0.253",
    "--param", "theta", "--start", "0", "--stop", "3", "--points", "11",
)
THETA_OVERFLOW = (
    "sweep", "--model", "ht", "--N", "2", "--phi=-1", "--rho", "0.5",
    "--param", "theta", "--start", "0", "--stop", "1e300", "--points", "11",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("figures", "--which", "1"),
        ("figures", "--which", "2"),
        ("figures", "--which", "3", "--output", "{tmp}/fig.csv"),
        ("figures", "--which", "3", "--format", "svg", "--output", "{tmp}/fig.svg"),
        THETA_AMBIGUOUS,
        THETA_OVERFLOW,
    ],
)
def test_sweeps_print_the_bytes_of_the_per_point_route(capsys, monkeypatch, tmp_path, argv):
    stacked = _outcome(capsys, tmp_path, argv)
    # an empty stacked pass: every theta grid point is solved alone, as it once was
    monkeypatch.setattr(
        qjc.flow, "eig_gated", lambda stack: (np.zeros((0, stack.shape[-1]), complex), None, [])
    )
    assert _outcome(capsys, tmp_path, argv) == stacked


def test_theta_sweep_failures_keep_their_exit_code_and_message(capsys, tmp_path):
    code, out, err, _ = _outcome(capsys, tmp_path, THETA_AMBIGUOUS)
    assert code == 3
    assert err == (
        "error: level matching still ambiguous at step 1.3028320312500001..1.303125 "
        "after 10 refinements\n"
    )
    assert len(out.splitlines()) == 32  # header, five grid points of six tracks, the marker
    code, out, err, _ = _outcome(capsys, tmp_path, THETA_OVERFLOW)
    assert (code, out) == (3, "")
    assert err == (
        "error: eigensolver residual gate cannot be checked outside the float range "
        "(1.8e308): ||H||_F = inf, worst residual inf\n"
    )


def per_cell_sweep_csv(grid, labels, tracks):
    """The sweep CSV cell by cell, as `_sweep_table` once built it, or its error."""
    table = qjc.output.Table(columns=("param_value", "level_label", "re_energy", "im_energy"))
    for g, value in enumerate(grid):
        for row, label in enumerate(labels):
            energy = tracks[row, g]
            table.add(float(value), label, energy.real, energy.imag)
    try:
        return qjc.output.write_csv(table)
    except qjc.errors.ValidationError as err:
        return str(err)


FINITE_TRACKS = np.array([[1 / 3 - 0.0j, -0.0 + 2.5j, 1e-300], [7.0, -1e300 - 1j, 0.1]])


@pytest.mark.parametrize(
    "grid, tracks",
    [
        (np.array([0.0, 0.5, 1.7]), FINITE_TRACKS),
        ([0, 1, 2], FINITE_TRACKS.real),  # an int grid and real tracks
        (np.array([0.0, 0.5, 1.7]), FINITE_TRACKS + np.array([[0, 0, 0], [0, complex(0, np.nan), 0]])),
        (np.array([0.0, 0.5, 1.7]), FINITE_TRACKS + np.array([[0, 0, np.inf], [np.nan, 0, 0]])),
        (np.array([0.0, np.inf, 1.7]), FINITE_TRACKS),
        (np.array([]), np.zeros((0, 0))),
    ],
)
def test_sweep_table_writes_the_per_cell_bytes(grid, tracks):
    # same bytes, or the same error text naming the same (numpy) value
    labels = tuple(f"track:{i}" for i in range(tracks.shape[0]))
    table = qjc.cli._sweep_table(grid, labels, tracks, ())
    try:
        got = qjc.output.write_csv(table)
    except qjc.errors.ValidationError as err:
        got = str(err)
    assert got == per_cell_sweep_csv(grid, labels, tracks)


def test_recur_builds_the_series_once(capsys):
    qjc.recurrence.run_to_critical.cache_clear()
    code, _ = run(capsys, "recur", "--model", "ht", "--N", "3", "--rho", "0.7", "--theta", "1.2")
    assert code == 0
    assert qjc.recurrence.run_to_critical.cache_info().misses == 1


def test_recur_computes_each_reconstruction_residual_once(capsys, monkeypatch):
    # the printed residual is the one the gate read, not a second product
    calls = []
    residual_on_rows = qjc.recurrence.residual_on_rows

    def counted(*args):
        calls.append(args[2])
        return residual_on_rows(*args)

    monkeypatch.setattr(qjc.recurrence, "residual_on_rows", counted)
    code, out = run(capsys, "recur", "--model", "ht", "--N", "3", "--rho", "0.7", "--theta", "1.2")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 9 and len(calls) == 9


def test_recur_builds_the_matrix_once(capsys, monkeypatch):
    builds = []

    build_ht = qjc.models.build_ht

    def counted(*args):
        builds.append(args)
        return build_ht(*args)

    for module in (qjc.cli, qjc.models):
        monkeypatch.setattr(module, "build_ht", counted)
    qjc.recurrence.gate_subspace.cache_clear()
    code, _ = run(capsys, "recur", "--model", "ht", "--N", "2", "--rho", "0.7", "--theta", "1.2")
    assert code == 0
    assert len(builds) == 1


def test_spectrum_ht_builds_the_matrix_twice(capsys, monkeypatch):
    # once for the subspace, whose matrix the dense route reads, and once
    # for the recurrence gate's own cache
    builds = []

    build_ht = qjc.models.build_ht

    def counted(*args):
        builds.append(args)
        return build_ht(*args)

    for module in (qjc.cli, qjc.models):
        monkeypatch.setattr(module, "build_ht", counted)
    monkeypatch.setitem(qjc.cli._BUILDERS, "ht", counted)
    qjc.recurrence.gate_subspace.cache_clear()
    code, _ = run(
        capsys, "spectrum", "--model", "ht", "--N", "3", "--rho", "0.7", "--theta", "1.2",
        "--phi", "-1",
    )
    assert code == 0
    assert len(builds) == 2


def test_eigensolver_gate_refuses_an_inaccurate_eigenpair(capsys, monkeypatch):
    exact_eig = scipy.linalg.eig

    def shifted(matrix):
        w, v = exact_eig(matrix)
        return w + 1e-6, v

    monkeypatch.setattr(scipy.linalg, "eig", shifted)
    code = main(["spectrum", "--model", "jcm", "--D", "16", "--guard", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "eigensolver residual" in captured.err and "exceeds" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", ["1e300", "1e100"])
def test_float_range_overflow_in_recur_exits_3(capsys, rho):
    # 1e300: an exact coefficient passes the float range; 1e100: the
    # coefficients fit but the companion matrix's ratios do not
    code = main(["recur", "--model", "ht", "--N", "2", "--rho", rho, "--theta", "1"])
    assert code == 3
    assert "float range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "big_n, rho", [("2", "1e-100"), ("1", "1e-100"), ("1", "1e-140")]
)
def test_reconstruction_norm_overflow_in_recur_exits_3(capsys, big_n, rho):
    # the series vector's norm overflows: no roots with a 0.0 residual
    code = main(["recur", "--model", "ht", "--N", big_n, "--rho", rho, "--theta", "1.2", "--phi", "-1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "reconstruction gate" in captured.err and "float range" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--model", "h2", "--rho", "1e300"),
        ("spectrum", "--model", "jcm", "--rho", "1e200"),
        ("qes", "--model", "ht", "--N", "2", "--rho", "1e300", "--theta", "1"),
        ("check", "--model", "h2", "--rho", "1e300"),
    ],
)
def test_matrix_norm_overflow_exits_3_at_the_eigensolver_gate(capsys, argv):
    # ||H||_F overflows, so the residual gate cannot be checked
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "eigensolver residual gate" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--model", "pseudo-jcm", "--hw", "1e155", "--param", "rho",
         "--start", "0", "--stop", "1", "--points", "3"),
        ("polyrep-check", "--model", "pseudo-jcm", "--hw", "1e300", "--rho", "0.1"),
        # rho^2 (n+1)...(n+k) leaves it while the gap stays finite
        ("sweep", "--model", "pseudo-jcm", "--param", "rho",
         "--start", "0", "--stop", "1e160", "--points", "3"),
        ("sweep", "--model", "extended", "--k", "2", "--phi", "1", "--param", "rho",
         "--start", "1e160", "--stop", "1e161", "--points", "3"),
    ],
)
def test_doublet_discriminant_overflow_exits_3(capsys, argv):
    # the closed-form discriminant leaves the float range
    code = main(list(argv))
    assert code == 3
    assert "doublet discriminant" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# figures


def test_figure_one_svg(tmp_path, capsys):
    target = tmp_path / "fig1.svg"
    code, _ = run(
        capsys,
        "figures", "--which", "1", "--format", "svg", "--output", str(target),
        "--D", "32", "--guard", "8",
    )
    assert code == 0
    text = target.read_text()
    assert text.count("<polyline") == 6  # two singlets + two doublet pairs


def test_figure_two_has_coalescence_events(tmp_path, capsys):
    target = tmp_path / "fig2.csv"
    code, _ = run(
        capsys,
        "figures", "--which", "2", "--output", str(target),
        "--D", "32", "--guard", "8",
    )
    assert code == 0
    table = read_csv(target.read_text())
    events = [c for c in table.comments if c.startswith("event,coalescence")]
    assert len(events) == 2


def test_figure_three_writes_one_file_per_rho(tmp_path, capsys):
    target = tmp_path / "fig3.csv"
    code, _ = run(
        capsys,
        "figures", "--which", "3", "--output", str(target),
        "--D", "32", "--guard", "4",
    )
    assert code == 0
    for rho in (0, 1, 2):
        path = tmp_path / f"fig3_rho{rho}.csv"
        assert path.exists(), path
        table = read_csv(path.read_text())
        constant = [
            float(r[2]) for r in table.rows if abs(float(r[2]) + 0.5) < 1e-9
        ]
        assert constant  # the -1/2 line shows up at every rho


# ---------------------------------------------------------------------------
# polyrep-check


@pytest.mark.parametrize(
    "argv",
    [
        ("polyrep-check", "--model", "pseudo-jcm", "--N", "4", "--rho", "0.3"),
        ("polyrep-check", "--model", "ht", "--N", "2", "--rho", "0.7", "--theta", "1.2"),
    ],
)
def test_polyrep_check_passes(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    document = json.loads(out)
    assert code == 0
    assert document["ok"] is True
    assert document["leak"] == 0.0
    assert document["max_spectrum_deviation"] < 1e-9


def test_polyrep_route_disagreement_exits_3(capsys, monkeypatch):
    exact = qjc.cli.restriction_spectrum
    monkeypatch.setattr(qjc.cli, "restriction_spectrum", lambda op: exact(op) + 1e-6)
    code = main(["polyrep-check", "--model", "ht", "--N", "2", "--rho", "0.7", "--theta", "1.2"])
    captured = capsys.readouterr()
    assert code == 3
    document = json.loads(captured.out)
    assert document["ok"] is False
    assert document["max_spectrum_deviation"] > 1e-9
    assert "polynomial-space route deviates" in captured.err


# ---------------------------------------------------------------------------
# configuration files


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("model = ht\nN = 1\nrho = 1.0\ntheta = 1.5 # flag wins\n")
    code, out = run(
        capsys,
        "recur", "--config", str(config), "--theta", "0.5", "--format", "json",
    )
    assert code == 0
    document = json.loads(out)
    assert document["N"] == 1
    # theta = 0.5 has no root at -1/2; theta = 1.5 does (exact crossing)
    assert all(abs(r["re"] + 0.5) > 1e-3 for r in document["roots"])


def test_config_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("flux = 7\n")
    code = main(["spectrum", "--config", str(config), "--model", "jcm"])
    assert code == 2
    assert "flux" in capsys.readouterr().err


def test_config_bad_syntax_exits_2(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("just some words\n")
    code = main(["spectrum", "--config", str(config), "--model", "jcm"])
    assert code == 2
    assert "key = value" in capsys.readouterr().err


def test_config_bad_number_exits_2(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("rho = fast\n")
    code = main(["spectrum", "--config", str(config), "--model", "jcm"])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    code = main(["spectrum", "--model", "jcm", "--config", "/nonexistent/x.conf"])
    assert code == 2


# one value per key of the CLI parameter table, with a command and model
# that accept it; small spaces keep each case fast
_CONFIG_CASES = {
    "k": (("spectrum", "--model", "extended", "--D", "12", "--guard", "5"), "3"),
    "phi": (("spectrum", "--model", "h2", "--rho", "0.3", "--D", "12", "--guard", "4"), "-1"),
    "eps": (("spectrum", "--model", "jcm", "--D", "12", "--guard", "4"), "0.75"),
    "hw": (("spectrum", "--model", "jcm", "--D", "12", "--guard", "4"), "1.25"),
    "rho": (("spectrum", "--model", "pseudo-jcm", "--D", "12", "--guard", "4"), "0.3"),
    "theta": (("spectrum", "--model", "h12", "--D", "12", "--guard", "4"), "0.4"),
    "N": (("qes", "--model", "ht", "--theta", "1"), "2"),
    "c": (("qes", "--model", "ht", "--N", "1"), "0.2"),
    "c_hat": (("qes", "--model", "ht", "--N", "1"), "-0.3"),
    "rho1": (("spectrum", "--model", "h12", "--D", "12", "--guard", "4"), "0.2"),
    "rho1_hat": (("spectrum", "--model", "h12", "--D", "12", "--guard", "4"), "0.1"),
    "poly": (("spectrum", "--model", "extended", "--D", "12", "--guard", "4"), "0,0,0.01"),
    "D": (("spectrum", "--model", "jcm", "--guard", "4"), "14"),
    "guard": (("spectrum", "--model", "jcm", "--D", "12"), "3"),
}


def test_config_cases_cover_the_parameter_table():
    from qjc.cli import _PARAMS

    assert set(_CONFIG_CASES) == set(_PARAMS)


@pytest.mark.parametrize("key", sorted(_CONFIG_CASES))
def test_config_value_equals_flag(tmp_path, capsys, key):
    argv, value = _CONFIG_CASES[key]
    flag = "--" + key.replace("_", "-")
    code_flag, by_flag = run(capsys, *argv, flag, value)
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {value}\n")
    code_config, by_config = run(capsys, *argv, "--config", str(config))
    assert code_flag == code_config == 0
    assert by_config == by_flag
    # the value does reach the output
    assert by_flag != run(capsys, *argv)[1]


@pytest.mark.parametrize("key", sorted(_CONFIG_CASES))
def test_config_bad_value_exits_2_naming_the_key(tmp_path, capsys, key):
    argv, _ = _CONFIG_CASES[key]
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = not-a-number\n")
    code = main([*argv, "--config", str(config)])
    assert code == 2
    assert re.search(rf"(for |--){key}\b", capsys.readouterr().err)


# every model flag or config key; each figure fixes all of them
_FIGURE_FIXED = {
    "model": "ht",
    **{key: value for key, (_, value) in _CONFIG_CASES.items() if key not in ("D", "guard")},
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(_FIGURE_FIXED))
def test_figures_rejects_every_model_parameter(tmp_path, capsys, key, via):
    flag = "--" + key.replace("_", "-")
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {_FIGURE_FIXED[key]}\n")
    given = [flag, _FIGURE_FIXED[key]] if via == "flag" else ["--config", str(config)]
    code = main(["figures", "--which", "1", *given])
    assert code == 2
    assert f"{flag} is not a parameter of figures" in capsys.readouterr().err
