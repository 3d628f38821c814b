"""Outside-in span tracer for the qksim sweep benchmark.

``install`` wraps every public module-level function of every ``qksim``
module, plus ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh`` (the
LAPACK layer), by rebinding module attributes; nothing under ``src/`` is
edited.  Aliases made by ``from .x import f`` are rebound too, so every
call path through the package reaches the wrapper.

Methods are never wrapped.  In particular the per-entry shot cursor
``rng.EntryStreams.at`` runs about 1.9M times on the shots sweep, and a
wrapper there would cost as much as the call it measures; the rng layer is
measured through the ``kernels.shot_entries`` work count instead.

Each span records name, start, end, parent span and a work count computed
from the call's arguments.  ``summarize`` turns spans into per-function
calls, total time and self time (duration minus the part covered by child
spans); ``layer_metrics`` maps them onto the benchmark's per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time

import numpy as np

# functions whose spans feed a named per-layer metric; one missing from
# the program (renamed or moved) is reported absent and its metrics read 0
REQUIRED = (
    "cli.main",
    "cli.build_pool",
    "kernels.sample_shots",
    "kernels.quantum_cross",
    "qsim.feature_states",
    "linalg.eig_sym",
    "linalg.inv_ridge",
    "calibrate.calibrate_and_report",
    "learner.grid_search_rbf",
    "learner.fit_krr",
    "bounds.theorem1_bound",
    "datasets.relabel_for_advantage",
    "lapack.eigh",
    "lapack.eigvalsh",
)

# layers reported as <module>.share; "lapack" is numpy's eigh/eigvalsh
LAYERS = (
    "cli",
    "kernels",
    "qsim",
    "linalg",
    "lapack",
    "calibrate",
    "learner",
    "bounds",
    "datasets",
    "rng",
)


def _is_finite_shots(m) -> bool:
    return not (m == "inf" or (isinstance(m, float) and math.isinf(m)))


def _sample_shots_entries(args: dict) -> int:
    """Entries drawn by ``sample_shots``: the upper triangle, minus a pinned diagonal."""
    if not _is_finite_shots(args["m"]):
        return 0
    qt = args["qt"]
    n = np.shape(qt.matrix)[0]
    pinned = bool(qt.params.get("fix_diagonal", False))
    return n * (n - 1) // 2 if pinned else n * (n + 1) // 2


def _cross_entries(args: dict) -> int:
    """Entries drawn by ``quantum_cross``: every test-train pair at finite shots."""
    if not _is_finite_shots(args["m"]):
        return 0
    return np.atleast_2d(args["x_test"]).shape[0] * np.atleast_2d(args["x_train"]).shape[0]


def _amplitudes(args: dict) -> int:
    """Amplitudes written by ``feature_states``: rows x 2^N."""
    rows, width = np.atleast_2d(args["x_rows"]).shape
    return rows << width


def _n_cubed(args: dict) -> int:
    n = np.shape(args["a"])[-1]
    return n * n * n


WORK = {
    "kernels.sample_shots": _sample_shots_entries,
    "kernels.quantum_cross": _cross_entries,
    "qsim.feature_states": _amplitudes,
    "lapack.eigh": _n_cubed,
    "lapack.eigvalsh": _n_cubed,
}


class Tracer:
    """In-memory span recorder; one per traced process, single-threaded."""

    def __init__(self):
        # [name, start, end, parent index (-1 for a root), work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # names whose work count could not be read from the call's arguments
        self.work_errors: set[str] = set()

    def wrap(self, name: str, func):
        work_of = WORK.get(name)
        signature = inspect.signature(func) if work_of else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            work = 0
            if work_of is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = work_of(bound.arguments)
                except (TypeError, KeyError, AttributeError, IndexError, ValueError):
                    # parameters renamed or reshaped: keep tracing, count nothing
                    self.work_errors.add(name)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced


def install(tracer: Tracer, package) -> list[str]:
    """Wrap the package's public functions and numpy's eigensolvers.

    Returns the names in ``REQUIRED`` that could not be wrapped.
    """
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    prefix = package.__name__ + "."
    wrappers = {}
    names = {"lapack.eigh", "lapack.eigvalsh"}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                name = f"{mod.__name__.removeprefix(prefix)}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj)
                names.add(name)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    np.linalg.eigh = tracer.wrap("lapack.eigh", np.linalg.eigh)
    np.linalg.eigvalsh = tracer.wrap("lapack.eigvalsh", np.linalg.eigvalsh)
    return [name for name in REQUIRED if name not in names]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s and work.

    ``total_s`` counts a span only when no ancestor has the same name, so
    recursion is not double counted.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[idx]
        row["work"] += work
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += end - start
    return out


def layer_metrics(
    spans: list[list],
    traced_sweep_s: float,
    untraced_sweep_s: float,
    records: int,
    absent: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, keyed by metric name."""
    stats = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}

    def get(name: str) -> dict:
        return stats.get(name, empty)

    module_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in stats.items():
        layer = name.split(".", 1)[0]
        module_self[layer] = module_self.get(layer, 0.0) + row["self_s"]

    shot_entries = get("kernels.sample_shots")["work"] + get("kernels.quantum_cross")["work"]
    sampler_s = get("kernels.sample_shots")["self_s"] + get("kernels.quantum_cross")["self_s"]
    decomps = get("lapack.eigh")["calls"] + get("lapack.eigvalsh")["calls"]
    metrics = {
        "kernels.sample_shots.self_s": get("kernels.sample_shots")["self_s"],
        "kernels.quantum_cross.self_s": get("kernels.quantum_cross")["self_s"],
        "kernels.shot_entries": shot_entries,
        "kernels.shot_entries_per_s": shot_entries / sampler_s if shot_entries else 0.0,
        "lapack.eigh.calls": get("lapack.eigh")["calls"],
        "lapack.eigvalsh.calls": get("lapack.eigvalsh")["calls"],
        "lapack.self_s": module_self["lapack"],
        "lapack.decomp_n3": get("lapack.eigh")["work"] + get("lapack.eigvalsh")["work"],
        "lapack.decomps_per_record": decomps / records,
        "linalg.eig_sym.calls": get("linalg.eig_sym")["calls"],
        "linalg.eig_sym.self_s": get("linalg.eig_sym")["self_s"],
        "linalg.inv_ridge.calls": get("linalg.inv_ridge")["calls"],
        "linalg.self_s": module_self["linalg"],
        "learner.grid_search_rbf.total_s": get("learner.grid_search_rbf")["total_s"],
        "learner.fit_krr.calls": get("learner.fit_krr")["calls"],
        "learner.self_s": module_self["learner"],
        "calibrate.calibrate_and_report.total_s": get("calibrate.calibrate_and_report")["total_s"],
        "bounds.theorem1_bound.total_s": get("bounds.theorem1_bound")["total_s"],
        "bounds.self_s": module_self["bounds"],
        "qsim.feature_states.calls": get("qsim.feature_states")["calls"],
        "qsim.feature_states.self_s": get("qsim.feature_states")["self_s"],
        "qsim.amplitudes": get("qsim.feature_states")["work"],
        "cli.build_pool.total_s": get("cli.build_pool")["total_s"],
        "datasets.relabel_for_advantage.total_s": get("datasets.relabel_for_advantage")["total_s"],
        "cli.self_s": module_self["cli"],
        "trace.sweep_s": traced_sweep_s,
        "trace.untraced_sweep_s": untraced_sweep_s,
        "trace.overhead_share": traced_sweep_s / untraced_sweep_s - 1.0,
        "trace.absent_wrappers": absent,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = module_self[layer] / traced_sweep_s
    return metrics
