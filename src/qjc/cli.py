"""Command-line front end.

Commands: spectrum, check, qes, recur, sweep, figures, polyrep-check.
Configuration precedence is flags > `--config` key=value file > defaults
(hbar omega = 1, eps = 1, D = 64, guard = 8).  Exit codes: 0 success,
2 invalid input, 3 numerical failure.  Data goes to --output when given,
else to stdout; human messages go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Collection, NamedTuple

import numpy as np

from ._linalg import eig_checked, spectrum_mismatch
from .closedform import closed_form_levels, full_algebraic_spectrum
from .errors import NumericalError, TrackingAmbiguityError, ValidationError
from .flow import FlowEvent, SweepSpec, qes_theta_sweep, sweep
from .fock import TruncatedFockSpace
from .models import ModelParams, build_extended, build_h12, build_ht, build_jcm, build_pseudo_jcm
from .output import Table, format_number, svg_line_plot, write_csv, write_json
from .polyrep import gauge_transform_ht, gauge_transform_pseudo_jcm, restriction_spectrum
from .qes import algebraic_eigenvalues, algebraic_spectrum, build_subspace
from .recurrence import _certified_reconstruction, critical_polynomial, critical_roots
from .symmetry import REALNESS_TOL, STRUCTURE_TOL, symmetry_report

SPECTRUM_COLUMNS = ("label", "n", "branch", "re_energy", "im_energy", "source", "residual")


class _Model(NamedTuple):
    """One model name: its builder, the ModelParams-facing flags it accepts
    (anything else set by the user is rejected by name), the k and phi the
    name fixes, and whether it is a k-photon ladder with a closed form.
    """

    build: Callable
    flags: set[str]
    fixed: dict[str, int]
    ladder: bool


_MODELS = {
    "extended": _Model(build_extended, {"k", "phi", "rho", "eps", "hw", "poly"}, {}, True),
    "h2": _Model(build_extended, {"phi", "rho", "eps", "hw"}, {"k": 2}, True),
    "jcm": _Model(build_jcm, {"rho", "eps", "hw"}, {"k": 1, "phi": 1}, True),
    "pseudo-jcm": _Model(build_pseudo_jcm, {"rho", "eps", "hw"}, {"k": 1, "phi": -1}, True),
    "h12": _Model(build_h12, {"phi", "rho", "theta", "rho1", "rho1_hat", "eps", "hw"}, {}, False),
    "ht": _Model(build_ht, {"phi", "rho", "theta", "c", "c_hat", "N", "eps", "hw"}, {}, False),
}
# the builder column as a flat dict: perfbench's tracer patches the functions
# it finds in module-level dicts, so commands build through this one
_BUILDERS = {name: model.build for name, model in _MODELS.items()}


def _parse_poly(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ValidationError(
            f"--poly expects comma-separated coefficients, got {raw!r}"
        ) from None


# every value flag that a --config file may also set: dest -> (type, help);
# argparse, the config reader and the per-model check all read this table;
# phi parses as a plain int, and ModelParams is its one +1/-1 check
_PARAMS = {
    "k": (int, "photon transfer order (extended)"),
    "phi": (int, "+1 or -1 coupling sign"),
    "eps": (float, "level splitting"),
    "hw": (float, "oscillator quantum"),
    "rho": (float, "k-photon coupling"),
    "theta": (float, "mixed-coupling strength"),
    "N": (int, "invariant subspace label (ht)"),
    "c": (float, "explicit dressing coupling"),
    "c_hat": (float, None),
    "rho1": (float, "bare one-photon strength (h12)"),
    "rho1_hat": (float, None),
    "poly": (_parse_poly, "diagonal P coefficients, ascending"),
    "D": (int, "Fock cutoff (default 64)"),
    "guard": (int, "guard band (default 8)"),
}
_FOCK_KEYS = ("D", "guard")
_CONFIG_KEYS = ("model", *_PARAMS, "format")
_DEFAULTS = {"D": 64, "guard": 8, "format": "csv"}
_FORMATS = ("csv", "json", "svg")

# ModelParams field behind a flag, where the names differ
_FIELDS = {"eps": "epsilon", "hw": "hbar_omega"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config(path: str) -> dict[str, str]:
    """key = value lines; '#' comments; keys restricted to parameter names."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


def _config_value(key: str, raw: str):
    if key not in _PARAMS:
        return raw
    cast = _PARAMS[key][0]
    try:
        return cast(raw)
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(
            f"config value for {key} must be {cast.__name__}, got {raw!r}"
        ) from None


def _merged(args: argparse.Namespace) -> dict:
    """Apply precedence: explicit flags, then config file, then defaults."""
    config = _read_config(args.config) if args.config else {}
    merged: dict = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key)
        if value is None and key in config:
            value = _config_value(key, config[key])
        merged[key] = _DEFAULTS.get(key) if value is None else value
    return merged


def _reject_unused(merged: dict, allowed: Collection[str], owner: str):
    """Refuse by name a model flag or config key that `owner` does not take."""
    for key in ("model", *_PARAMS):
        if merged[key] is not None and key not in allowed:
            raise ValidationError(f"{_flag(key)} is not a parameter of {owner}")


def _request(
    merged: dict,
    models: tuple[str, ...] = tuple(_MODELS),
    need: str = "",
    extra: tuple[str, ...] = (),
    fock: bool = True,
) -> tuple[str, ModelParams, TruncatedFockSpace | None]:
    """Resolve (model, params, space) for one command.

    The model must be one of `models` (else `need` is the error).  A flag
    the model does not accept, apart from the command's own `extra` flags,
    is rejected by name.  The parameters carry the k and phi that the model
    name fixes.  Commands that use no Fock space pass fock=False and get
    space None, without --D and --guard being checked.
    """
    model = merged["model"]
    if model is None:
        raise ValidationError("--model is required")
    if model not in _MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {sorted(_MODELS)}")
    if model not in models:
        raise ValidationError(need)
    flags, fixed = _MODELS[model].flags, _MODELS[model].fixed
    _reject_unused(merged, flags.union(extra, _FOCK_KEYS, ("model",)), f"model {model!r}")
    kwargs = {
        _FIELDS.get(key, key): merged[key]
        for key in flags - {"N"}
        if merged[key] is not None
    }
    if model == "ht":
        if merged["N"] is None:
            raise ValidationError("model 'ht' requires --N (invariant-subspace label)")
        kwargs["n_qes"] = merged["N"] + 2
    params = ModelParams(**kwargs, **fixed)
    space = TruncatedFockSpace(merged["D"], merged["guard"]) if fock else None
    return model, params, space


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _complex_str(value: complex) -> str:
    value = complex(value)
    sign = "+" if value.imag >= 0 else "-"
    return f"{format_number(value.real)}{sign}{format_number(abs(value.imag))}j"


def _write(merged: dict, args, table: Table, document: dict) -> int:
    """Emit `document` as JSON under --format json, else `table` as CSV."""
    json_out = merged["format"] == "json"
    _emit(write_json(document) if json_out else write_csv(table), args.output)
    return 0


def _add_route(table: Table, source: str, rows):
    """Append one route's (label, n, branch, energy, residual) rows."""
    for label, n, branch, energy, residual in rows:
        table.add(label, n, branch, energy.real, energy.imag, source, residual)


def _qes_rows(pairs, big_n: int):
    return (
        (f"qes:{index}", big_n, "defective" if pair.defective else "", pair.energy, pair.residual)
        for index, pair in enumerate(pairs)
    )


def _reconstructions(params, space) -> list[tuple[complex, float]]:
    """Truncation-polynomial roots with their reconstruction residuals.

    Each residual is ||H v - E v|| of the reconstructed eigenvector v on
    the full matrix, the one the reconstruction gate read.
    """
    return [
        (complex(root), _certified_reconstruction(params, root, space)[1])
        for root in critical_roots(params)
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(merged: dict, args) -> int:
    """labeled eigenvalue table by every applicable route"""
    model, params, space = _request(merged)
    # for ht the dense route reads the full matrix the subspace was certified on
    sub = build_subspace(params, space) if model == "ht" else None
    h_matrix = sub.matrix if sub else _BUILDERS[model](params, space).matrix
    numeric, vectors = eig_checked(h_matrix)
    table = Table(columns=SPECTRUM_COLUMNS)
    if _MODELS[model].ladder:
        levels = full_algebraic_spectrum(params, space)
        _add_route(table, "closed-form", (
            (level.label, level.n, level.branch or "", level.energy,
             float(np.min(np.abs(numeric - level.energy))))
            for level in levels
        ))
    if model == "ht":
        _add_route(table, "qes", _qes_rows(algebraic_spectrum(sub, params), params.big_n))
        roots = _reconstructions(params, space)
        _add_route(table, "recurrence", (
            (f"recurrence:{index}", params.big_n, "", root, residual)
            for index, (root, residual) in enumerate(roots)
        ))
    # dense route rows for every model (the only route for h12)
    order = np.lexsort((numeric.imag, numeric.real))
    # cast once: a real matrix times a complex column would recast it per column
    cast = h_matrix.astype(vectors.dtype, copy=False)
    energies = numeric.tolist()  # Python floats, so write_csv takes whole columns by repr
    _add_route(table, "numeric", (
        (f"numeric:{rank}", "", "", energies[index], float(
            np.linalg.norm(cast @ vectors[:, index] - numeric[index] * vectors[:, index])
        ))
        for rank, index in enumerate(order)
    ))
    table.comments.append(f"model {model}, D {space.cutoff}, guard {space.guard}")
    document = {
        "command": "spectrum",
        "model": model,
        "rows": [dict(zip(SPECTRUM_COLUMNS, row)) for row in table.rows],
    }
    return _write(merged, args, table, document)


def cmd_check(merged: dict, args) -> int:
    """hermiticity / pseudo-hermiticity report as JSON"""
    model, params, space = _request(merged)
    report = symmetry_report(_BUILDERS[model](params, space))
    pseudo = {
        name: {"ok": ok, "dev": dev}
        for name, (ok, dev) in report.pseudo_hermitian.items()
    }
    document = {
        "command": "check",
        "model": model,
        "hermitian": {"ok": report.hermitian, "dev": report.hermitian_deviation},
        "pt": {"ok": report.pt_symmetric, "dev": report.pt_deviation},
        "pseudo": pseudo,
        "parity_sigma3_commutant": report.parity_sigma3_commutant,
        "spectrum_class": report.spectrum_class,
        "tolerances": {"structure": STRUCTURE_TOL, "realness": REALNESS_TOL},
    }
    _emit(write_json(document), args.output)
    return 0


def cmd_qes(merged: dict, args) -> int:
    """invariant-subspace certificate and algebraic spectrum"""
    _, params, space = _request(merged, ("ht",), "qes requires --model ht")
    sub = build_subspace(params, space)
    pairs = algebraic_spectrum(sub, params)
    document = {
        "command": "qes",
        "N": params.big_n,
        "subspace_dim": sub.dim,
        "invariance_defect": sub.defect,
        "eigenvalues": [
            {
                "re": pair.energy.real,
                "im": pair.energy.imag,
                "residual": pair.residual,
                "defective": pair.defective,
            }
            for pair in pairs
        ],
    }
    table = Table(columns=SPECTRUM_COLUMNS)
    _add_route(table, "qes", _qes_rows(pairs, params.big_n))
    table.comments.append(f"subspace dim {sub.dim}")
    table.comments.append(f"invariance defect {format_number(sub.defect)}")
    return _write(merged, args, table, document)


def cmd_recur(merged: dict, args) -> int:
    """series-truncation roots with reconstruction residuals"""
    _, params, space = _request(merged, ("ht",), "recur requires --model ht")
    poly = critical_polynomial(params)
    algebraic = algebraic_eigenvalues(params)
    table = Table(
        columns=("index", "re_energy", "im_energy", "reconstruction_residual", "distance_to_algebraic")
    )
    for index, (root, residual) in enumerate(_reconstructions(params, space)):
        table.add(index, root.real, root.imag, residual, float(np.min(np.abs(algebraic - root))))
    # the JSON roots are the table rows less the index, under their own keys
    keys = ("re", "im", "reconstruction_residual", "distance_to_algebraic")
    table.comments.append(f"critical polynomial degree {int(poly.degree)}")
    document = {
        "command": "recur",
        "N": params.big_n,
        "degree": int(poly.degree),
        "coefficients": [float(c) for c in poly.float_coefficients()],
        "roots": [dict(zip(keys, row[1:])) for row in table.rows],
    }
    return _write(merged, args, table, document)


def _event_comment(event: FlowEvent) -> str:
    labels = ";".join(event.labels)
    return (
        f"event,{event.kind},{format_number(event.value)},"
        f"{_complex_str(event.energy)},{labels}"
    )


def _sweep_table(grid, labels, tracks, events) -> Table:
    table = Table(columns=("param_value", "level_label", "re_energy", "im_energy"))
    energies = tracks.T.ravel()  # in row order: grid point by grid point
    re, im = energies.real, energies.imag
    if np.isfinite(energies).all():  # else numpy scalars, which a non-finite cell's error names
        re, im = re.tolist(), im.tolist()
    values = np.repeat(np.asarray(grid, dtype=float), len(labels)).tolist()
    table.rows = list(zip(values, labels * len(grid), re, im))
    table.comments += map(_event_comment, events)
    return table


def _sweep_svg(result, title: str, x_label: str) -> str:
    series = [
        (label, list(result.tracks[row].real))
        for row, label in enumerate(result.labels)
    ]
    markers = [(e.value, e.energy.real) for e in result.events]
    return svg_line_plot(result.grid, series, title, x_label, "Re E", markers)


def _run_sweep(spec: SweepSpec, merged: dict, output: str | None, title: str) -> int:
    runner = sweep if spec.parameter == "rho" else qes_theta_sweep
    try:
        result = runner(spec)
    except TrackingAmbiguityError as exc:
        grid = getattr(exc, "partial_grid", np.array([]))
        tracks = getattr(exc, "partial_tracks", np.zeros((0, 0)))
        labels = tuple(f"track:{i}" for i in range(tracks.shape[0]))
        table = _sweep_table(grid, labels, tracks, ())
        table.comments.append(f"INCOMPLETE {exc}")
        _emit(write_csv(table), output)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if merged["format"] == "svg":
        _emit(_sweep_svg(result, title, spec.parameter), output)
        return 0
    table = _sweep_table(result.grid, result.labels, result.tracks, result.events)
    _emit(write_csv(table), output)
    return 0


# models a sweep of each parameter drives, and the error otherwise
_SWEPT_MODELS = {
    "rho": (
        tuple(name for name, model in _MODELS.items() if model.ladder),
        "rho sweeps need a ladder model (extended/h2/jcm/pseudo-jcm)",
    ),
    "theta": (("ht",), "theta sweeps need --model ht"),
}


def cmd_sweep(merged: dict, args) -> int:
    """eigenvalue trajectories over rho or theta"""
    model, params, _ = _request(merged, *_SWEPT_MODELS[args.param], fock=False)
    spec = SweepSpec(
        params=params,
        parameter=args.param,
        start=args.start,
        stop=args.stop,
        points=args.points,
        doublets=args.doublets,
    )
    return _run_sweep(spec, merged, args.output, f"{model} {args.param} sweep")


def _figure_spec(which: int, rho: float | None = None) -> SweepSpec:
    if which in (1, 2):
        params = ModelParams(epsilon=1.0, k=2, phi=1 if which == 1 else -1)
        return SweepSpec(
            params=params, parameter="rho", start=0.0, stop=2.0, points=201, doublets=2
        )
    params = ModelParams(epsilon=1.0, rho=rho, n_qes=3, phi=1)
    return SweepSpec(params=params, parameter="theta", start=0.0, stop=3.0, points=151)


def cmd_figures(merged: dict, args) -> int:
    """CSV/SVG data behind the three figures"""
    # each figure fixes its model; --D and --guard are accepted and unused
    _reject_unused(merged, _FOCK_KEYS, "figures")
    output = args.output
    if args.which in (1, 2):
        spec = _figure_spec(args.which)
        return _run_sweep(spec, merged, output, f"levels vs rho (phi = {spec.params.phi:+d})")
    if output is None:
        raise ValidationError("figures --which 3 writes one file per rho; --output is required")
    stem = Path(output)
    code = 0
    for rho in (0.0, 1.0, 2.0):
        spec = _figure_spec(3, rho)
        target = stem.with_name(f"{stem.stem}_rho{int(rho)}{stem.suffix}")
        code = max(
            code,
            _run_sweep(spec, merged, str(target), f"dressed levels vs theta (rho = {rho})"),
        )
    return code


def cmd_polyrep_check(merged: dict, args) -> int:
    """polynomial-space route cross-check"""
    model, params, _ = _request(
        merged,
        ("pseudo-jcm", "ht"),
        "polyrep-check supports --model pseudo-jcm or ht",
        extra=("N",),
        fock=False,
    )
    if model == "ht":
        op = gauge_transform_ht(params)
        reference = algebraic_eigenvalues(params)
    else:
        n = merged["N"] if merged["N"] is not None else 5
        if n < 1:
            raise ValidationError("--N must be >= 1 for polyrep-check")
        op = gauge_transform_pseudo_jcm(params, n)
        reference = np.array([level.energy for level in closed_form_levels(params, n)])
    deviation = float(spectrum_mismatch(restriction_spectrum(op), reference))
    ok = bool(op.leak == 0.0 and deviation <= 1e-9)
    document = {
        "command": "polyrep-check",
        "model": model,
        "caps": list(op.caps),
        "dim": op.dim,
        "leak": op.leak,
        "max_spectrum_deviation": deviation,
        "ok": ok,
    }
    _emit(write_json(document), args.output)
    if not ok:
        print(
            f"error: polynomial-space route deviates by {deviation:.3e} "
            f"(leak {op.leak:.3e})",
            file=sys.stderr,
        )
        return 3
    return 0


# each command with the --format values it writes; check and polyrep-check
# always write JSON, whichever value is given
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("csv", "json")),
    "check": (cmd_check, _FORMATS),
    "qes": (cmd_qes, ("csv", "json")),
    "recur": (cmd_recur, ("csv", "json")),
    "sweep": (cmd_sweep, ("csv", "svg")),
    "figures": (cmd_figures, ("csv", "svg")),
    "polyrep-check": (cmd_polyrep_check, _FORMATS),
}


# ---------------------------------------------------------------------------
# argument parsing


# built once per process; argparse reads COLUMNS only when it formats help
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", choices=sorted(_MODELS), default=None)
    for key, (kind, help_text) in _PARAMS.items():
        shared.add_argument(_flag(key), dest=key, type=kind, default=None, help=help_text)
    shared.add_argument("--output", default=None, help="write here instead of stdout")
    shared.add_argument("--format", choices=_FORMATS, default=None)
    shared.add_argument("--config", default=None, help="key = value parameter file")

    parser = argparse.ArgumentParser(
        prog="qjc",
        description="Spectra of extended Jaynes-Cummings models, three ways.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {
        name: commands.add_parser(name, help=command.__doc__, parents=[shared])
        for name, (command, _) in _COMMANDS.items()
    }

    sub = subs["sweep"]
    sub.add_argument("--param", choices=("rho", "theta"), required=True)
    sub.add_argument("--start", type=float, required=True)
    sub.add_argument("--stop", type=float, required=True)
    sub.add_argument("--points", type=int, required=True)
    sub.add_argument("--doublets", type=int, default=2)
    subs["figures"].add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, formats = _COMMANDS[args.command]
    try:
        merged = _merged(args)
        if merged["format"] not in formats:
            raise ValidationError(f"{args.command} cannot write format {merged['format']!r}")
        return command(merged, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
