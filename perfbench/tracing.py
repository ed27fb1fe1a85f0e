"""Outside-in tracing of the `qjc` package.

`Tracer.install()` replaces every public function of every `qjc` module by a
wrapper that records one span per call: name, start, end, parent span and
job id, plus a size for the few functions whose arguments or result carry
one (matrix dimension, grid points, bytes written).  The wrapper goes
wherever the original is reachable by name -- the defining module, every
module that imported it, and module-level dicts such as the CLI's builder
table -- and `scipy.linalg.eig` is wrapped only as `qjc._linalg` reaches
it.  `restore()` puts every original back.

Spans live in flat arrays in memory; `write()` saves them once the run is
over and `layer_metrics()` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAPACK = "linalg.lapack_eig"


def _layer(module_name: str) -> str:
    """`qjc._linalg` -> `linalg`, `qjc.models` -> `models`, `qjc` -> `qjc`."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _matrix_dim(args, result):
    return np.shape(args[0])[0]


def _space_dim(args, result):
    return args[1].dim


def _sweep_points(args, result):
    return args[0].points


def _text_bytes(args, result):
    return len(result.encode())


# what a span's `size` holds, for the functions that have one
SIZE_PROBES = {
    "linalg.eig_checked": _matrix_dim,
    "models.build_extended": _space_dim,
    "models.build_jcm": _space_dim,
    "models.build_pseudo_jcm": _space_dim,
    "models.build_h12": _space_dim,
    "models.build_ht": _space_dim,
    "flow.qes_theta_sweep": _sweep_points,
    "output.write_csv": _text_bytes,
    "output.write_json": _text_bytes,
    "output.svg_line_plot": _text_bytes,
}


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def qjc_modules(package) -> list[types.ModuleType]:
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


class Tracer:
    def __init__(self, package):
        self.modules = qjc_modules(package)
        self.names: list[str] = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.size = array("d")
        self.error = array("b")
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers = {}
        for module in self.modules:
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    self._wrappers[obj] = self._wrap(obj, f"{_layer(module.__name__)}.{attr}")
        self._linalg = importlib.import_module(f"{package.__name__}._linalg")
        self._lapack = self._wrap(self._linalg.scipy.linalg.eig, LAPACK)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, func, name: str):
        name_id = len(self.names)
        self.names.append(name)
        probe = SIZE_PROBES.get(name)
        stack = self._stack
        spans = (self.name, self.start, self.end, self.parent, self.job, self.size, self.error)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.start)
            for column, value in zip(
                spans, (name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.job_id, 0.0, 1)
            ):
                column.append(value)
            stack.append(index)
            tracer.start[index] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end[index] = time.perf_counter()
                stack.pop()
            tracer.error[index] = 0
            if probe is not None:
                tracer.size[index] = probe(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__doc__ = func.__doc__
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(module, attr, obj, self._wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in self._wrappers:
                            self._patch(obj, key, value, self._wrappers[value])
        proxy = types.SimpleNamespace(linalg=types.SimpleNamespace(eig=self._lapack))
        self._patch(self._linalg, "scipy", self._linalg.scipy, proxy)

    def _patch(self, owner, key, original, replacement):
        self._patches.append((owner, key, original))
        _assign(owner, key, replacement)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            _assign(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
            "size": np.array(self.size, dtype=float),
            "error": np.array(self.error, dtype=bool),
        }

    def write(self, path: Path):
        """Save every span as a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanTable:
    """Span arrays plus the derived quantities the metrics need."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        self.s = spans
        self.duration = spans["end"] - spans["start"]
        child = np.zeros(len(self.duration))
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self._ids = {name: i for i, name in enumerate(names)}

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.s["name"], [self._ids[n] for n in names if n in self._ids])

    def layer(self, layer: str) -> np.ndarray:
        return self.mask(*(n for n in self.names if n.split(".", 1)[0] == layer))

    def under(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans that have some span of `ancestor` above them."""
        parent = self.s["parent"]
        has_parent = parent >= 0
        below = np.zeros(len(parent), dtype=bool)
        while True:
            step = np.zeros_like(below)
            step[has_parent] = ancestor[parent[has_parent]] | below[parent[has_parent]]
            if np.array_equal(step, below):
                return below
            below = step

    def outermost(self, group: np.ndarray) -> np.ndarray:
        return group & ~self.under(group)

    def time(self, *names: str) -> float:
        group = self.mask(*names)
        return float(self.duration[self.outermost(group)].sum())

    def count(self, *names: str) -> int:
        return int(self.outermost(self.mask(*names)).sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


BUILDERS = tuple(
    f"models.{b}" for b in ("build_extended", "build_jcm", "build_pseudo_jcm", "build_h12", "build_ht")
)
WRITERS = ("output.write_csv", "output.write_json", "output.svg_line_plot")

# name -> unit for every per-layer metric `layer_metrics` reports
UNITS = {
    "linalg.eig_s": "s/job",
    "linalg.lapack_s": "s/job",
    "linalg.eig_calls": "1/job",
    "linalg.eig_n3": "1/job",
    "linalg.eig_dim_max": "count",
    "linalg.eigvals_calls": "1/job",
    "linalg.mismatch_s": "s/job",
    "symmetry.report_s": "s/job",
    "symmetry.pseudo_s": "s/job",
    "symmetry.classify_s": "s/job",
    "models.build_s": "s/job",
    "models.build_calls": "1/job",
    "models.build_ht_calls": "1/job",
    "models.bytes_built": "B/job",
    "qes.subspace_s": "s/job",
    "qes.algebraic_s": "s/job",
    "qes.certify_s": "s/job",
    "qes.certify_calls": "1/job",
    "qes.eigenvalues_calls": "1/job",
    "recurrence.poly_s": "s/job",
    "recurrence.poly_calls": "1/job",
    "recurrence.roots_s": "s/job",
    "recurrence.reconstruct_s": "s/job",
    "recurrence.reconstruct_calls": "1/job",
    "recurrence.reconstruct_fail_ratio": "ratio",
    "recurrence.series_builds_per_root": "1/root",
    "polyrep.transform_s": "s/job",
    "polyrep.spectrum_s": "s/job",
    "flow.sweep_s": "s/job",
    "flow.theta_sweep_s": "s/job",
    "flow.deviation_s": "s/job",
    "flow.evals_per_point": "1/point",
    "closedform.s": "s/job",
    "closedform.block_calls": "1/job",
    "output.write_s": "s/job",
    "output.bytes": "B/job",
    "cli.self_s": "s/job",
    "cli.jobs": "count",
    "trace.spans": "1/job",
    "trace.overhead_s": "s",
}


def layer_metrics(table: SpanTable, jobs: int) -> dict[str, float]:
    """Per-layer metrics; times and counts are per traced job."""
    t = table
    eig = t.mask("linalg.eig_checked")
    dims = t.s["size"][eig]
    builds = t.outermost(t.mask(*BUILDERS))
    reconstruct = t.mask("recurrence.reconstruct_eigenvector")
    theta = t.outermost(t.mask("flow.qes_theta_sweep"))
    writers = t.outermost(t.mask(*WRITERS))
    values = {
        "linalg.eig_s": t.time("linalg.eig_checked"),
        "linalg.lapack_s": t.time(LAPACK),
        "linalg.eig_calls": int(eig.sum()),
        "linalg.eig_n3": float(np.sum(dims**3)),
        "linalg.eigvals_calls": t.count("linalg.eigvals_checked"),
        "linalg.mismatch_s": t.time("linalg.spectrum_mismatch"),
        "symmetry.report_s": t.time("symmetry.symmetry_report"),
        "symmetry.pseudo_s": t.time("symmetry.check_pseudo_hermitian"),
        "symmetry.classify_s": t.time("symmetry.classify_spectrum"),
        "models.build_s": float(t.duration[builds].sum()),
        "models.build_calls": int(builds.sum()),
        "models.build_ht_calls": int(t.mask("models.build_ht").sum()),
        "models.bytes_built": float(np.sum(8.0 * t.s["size"][builds] ** 2)),
        "qes.subspace_s": t.time("qes.build_subspace"),
        "qes.algebraic_s": t.time("qes.algebraic_spectrum"),
        "qes.certify_s": t.time("qes.certify_in_full_space"),
        "qes.certify_calls": t.count("qes.certify_in_full_space"),
        "qes.eigenvalues_calls": t.count("qes.algebraic_eigenvalues"),
        "recurrence.poly_s": t.time("recurrence.critical_polynomial"),
        "recurrence.poly_calls": t.count("recurrence.critical_polynomial"),
        "recurrence.roots_s": t.time("recurrence.critical_roots"),
        "recurrence.reconstruct_s": t.time("recurrence.reconstruct_eigenvector"),
        "recurrence.reconstruct_calls": int(reconstruct.sum()),
        "polyrep.transform_s": t.time(
            "polyrep.gauge_transform_ht", "polyrep.gauge_transform_pseudo_jcm"
        ),
        "polyrep.spectrum_s": t.time("polyrep.restriction_spectrum"),
        "flow.sweep_s": t.time("flow.sweep"),
        "flow.theta_sweep_s": float(t.duration[theta].sum()),
        "flow.deviation_s": t.time("flow.numeric_deviation"),
        "closedform.s": float(t.self_time[t.layer("closedform")].sum()),
        "closedform.block_calls": int(t.mask("closedform.doublet_block").sum()),
        "output.write_s": float(t.duration[writers].sum()),
        "output.bytes": float(t.s["size"][writers].sum()),
        "cli.self_s": float(t.self_time[t.layer("cli")].sum()),
        "trace.spans": len(t.duration),
    }
    per_job = {name: value / jobs if jobs else 0.0 for name, value in values.items()}
    n_reconstruct = int(reconstruct.sum())
    per_job.update(
        {
            "linalg.eig_dim_max": float(dims.max()) if dims.size else 0.0,
            "recurrence.reconstruct_fail_ratio": _ratio(
                int(t.s["error"][reconstruct].sum()), n_reconstruct
            ),
            "recurrence.series_builds_per_root": _ratio(
                int((t.mask("recurrence.series_start") & t.under(reconstruct)).sum()),
                n_reconstruct,
            ),
            "flow.evals_per_point": _ratio(
                int((t.mask("qes.algebraic_eigenvalues") & t.under(theta)).sum()),
                float(t.s["size"][theta].sum()),
            ),
            "cli.jobs": len(set(t.s["job"][t.mask("cli.main")].tolist())),
        }
    )
    return per_job
