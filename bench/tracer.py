"""Span tracing of the funcroc layers, installed from outside the library.

Every public function of the traced modules is wrapped, and the wrapper is
patched under its name into each funcroc module namespace that holds the
original.  Patching the *calling* namespaces matters: ``harness`` imports
the fitters, ``generate_scenario``, ``roc_curve`` and ``score_sample`` by
name, ``indexes`` imports the ``estimation`` functions by name, and
``rocmetrics.roc_curve`` calls the module-level ``auc``/``youden``.

Spans (name, start, end, parent) are kept in flat in-memory lists while the
workload runs; self time is computed afterwards as a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("simulation", "estimation", "indexes", "rocmetrics", "harness", "cli")
FIT_FUNCTIONS = (
    "indexes.fit_mean_difference",
    "indexes.fit_optimal_linear",
    "indexes.fit_quadratic",
)
PACKAGE = "funcroc"
ROOT = "bench.pass"


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Probes read work counts from a call's arguments and result.  Flop counts
# are computed from shapes: 2 n m^2 for the covariance cross product, and
# 10/3 m^3 for a full symmetric eigendecomposition with vectors (LAPACK
# dsyevr: 4/3 m^3 tridiagonal reduction plus 2 m^3 back-transformation).
def _probe_covariance(counters, args, kwargs, result):
    n, m = _arg(args, kwargs, 0, "s").values.shape
    counters["estimation.sample_covariance.flop"] += 2.0 * n * m * m


def _probe_eigen(counters, args, kwargs, result):
    m = _arg(args, kwargs, 0, "kernel").matrix.shape[0]
    counters["estimation.eigendecompose.flop"] += 10.0 / 3.0 * m**3
    counters["estimation.eigendecompose.pairs"] += _arg(args, kwargs, 1, "count")


def _probe_dimension(counters, args, kwargs, result):
    counters["estimation.choose_dimension.k_sum"] += result


def _probe_ingest(counters, args, kwargs, result):
    counters["harness.ingest_curves.cells"] += sum(s.values.size for s in result)


COUNTERS = (
    "estimation.sample_covariance.flop",
    "estimation.eigendecompose.flop",
    "estimation.eigendecompose.pairs",
    "estimation.choose_dimension.k_sum",
    "harness.ingest_curves.cells",
)
PROBES = {
    "estimation.sample_covariance": _probe_covariance,
    "estimation.eigendecompose": _probe_eigen,
    "estimation.choose_dimension": _probe_dimension,
    "harness.ingest_curves": _probe_ingest,
}


class Tracer:
    """Wraps the public functions of the funcroc layers and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.errors: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.wrapped: list[str] = []
        self._stack = [-1]
        self._patches = []
        namespaces = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{name}")
            for name in TRACED_MODULES + ("grids", "binormal", "errors")
        ]
        for layer in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self.wrapped.append(f"{layer}.{attr}")
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for name, value in vars(namespace).items():
                        if value is fn:
                            self._patches.append((namespace, name, fn, wrapper))

    def _wrap(self, qualname, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, errors, counters = self._stack, self.errors, self.counters
        probe = PROBES.get(qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(qualname)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[index] = clock()
                stack.pop()
                errors[qualname] = errors.get(qualname, 0) + 1
                raise
            ends[index] = clock()
            stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for namespace, name, _, wrapper in self._patches:
            setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original, _ in self._patches:
            setattr(namespace, name, original)

    @contextmanager
    def traced_pass(self):
        """Install the wrappers and record one root span around the block."""
        index = len(self.names)
        self.names.append(ROOT)
        self.parents.append(-1)
        self.ends.append(0)
        self._stack.append(index)
        self.install()
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter_ns()
            self.uninstall()
            self._stack.pop()

    def function_table(self) -> dict[str, dict]:
        """Per function: calls, inclusive ns, self ns, error count and durations."""
        durations = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=durations.size
        )
        self_time = durations - child_time
        names = np.asarray(self.names, dtype=object)
        table = {}
        for name in [ROOT] + self.wrapped:
            mask = names == name
            table[name] = {
                "calls": int(mask.sum()),
                "ns": float(durations[mask].sum()),
                "self_ns": float(self_time[mask].sum()),
                "errors": self.errors.get(name, 0),
                "durations_ns": durations[mask],
            }
        return table

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, normalized per traced pass."""
        table = self.function_table()
        passes = table[ROOT]["calls"]
        metrics = {}
        for name, row in table.items():
            if name == ROOT:
                continue
            metrics[f"{name}.calls"] = row["calls"] / passes
            metrics[f"{name}.ms"] = row["ns"] / 1e6 / passes
            metrics[f"{name}.self_ms"] = row["self_ns"] / 1e6 / passes
        replications = table["harness.run_replication"]["durations_ns"] / 1e6
        for q in (50, 95):
            metrics[f"harness.run_replication.ms_p{q}"] = (
                float(np.percentile(replications, q)) if replications.size else 0.0
            )
        counters = self.counters
        metrics["harness.ingest_curves.cells_per_s"] = _ratio(
            counters["harness.ingest_curves.cells"], table["harness.ingest_curves"]["ns"] / 1e9
        )
        k_sum = counters["estimation.choose_dimension.k_sum"]
        metrics["estimation.choose_dimension.k_mean"] = _ratio(
            k_sum, table["estimation.choose_dimension"]["calls"]
        )
        metrics["estimation.eigen_useful_ratio"] = _ratio(
            k_sum, counters["estimation.eigendecompose.pairs"]
        )
        for name in ("estimation.sample_covariance", "estimation.eigendecompose"):
            metrics[f"{name}.gflop"] = counters[f"{name}.flop"] / 1e9 / passes
        metrics["indexes.fit_fail_ratio"] = _ratio(
            sum(table[name]["errors"] for name in FIT_FUNCTIONS),
            sum(table[name]["calls"] for name in FIT_FUNCTIONS),
        )
        root = table[ROOT]
        metrics["trace.coverage"] = 1.0 - root["self_ns"] / root["ns"]
        return metrics

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped CSV: index,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for index, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                handle.write(f"{index},{row[0]},{row[1]},{row[2]},{row[3]}\n")

