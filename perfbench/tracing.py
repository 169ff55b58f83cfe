"""Per-layer spans recorded around the public functions of ``fadetrack``.

The wrappers are installed from outside the package: every module
attribute under ``fadetrack`` that is one of the traced functions is
replaced by a timing wrapper, which also catches names bound with
``from module import name``.  A traced function that the package no
longer defines is skipped and reported with zero calls.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written once, when tracing ends.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "fadetrack"

# (module, function, layer metric).  Several functions may share a metric.
TRACED = (
    ("fading", "generate_fading", "fading.generate_fading"),
    ("dscdma", "received_block", "dscdma.received_block"),
    ("dscdma", "code_convolution_operator", "dscdma.code_convolution_operator"),
    ("dscdma", "isi_tail", "dscdma.isi"),
    ("dscdma", "isi_precursor", "dscdma.isi"),
    ("receivers", "update_cg_correlations", "receivers.update_cg_correlations"),
    ("receivers", "cg_solve", "receivers.cg_solve"),
    ("receivers", "compute_pair_errors", "receivers.compute_pair_errors"),
    ("receivers", "update_mixing", "receivers.update_mixing"),
    ("receivers", "bidir_nlms_step", "receivers.bidir_nlms_step"),
    ("receivers", "differential_nlms_step", "receivers.differential_nlms_step"),
    ("receivers", "conventional_nlms_step", "receivers.conventional_nlms_step"),
    ("receivers", "conventional_rls_step", "receivers.conventional_rls_step"),
    ("analysis", "estimate_moment_matrices", "analysis.estimate_moment_matrices"),
    ("analysis", "save_moments", "analysis.save_moments"),
    ("analysis", "k_step", "analysis.k_step"),
    ("analysis", "g_step", "analysis.g_step"),
    ("analysis", "analytical_sinr", "analysis.analytical_sinr"),
    ("harness", "run_sinr_vs_fading", "harness.experiment"),
    ("harness", "run_ber_curve", "harness.experiment"),
    ("harness", "run_analysis_comparison", "harness.experiment"),
    ("harness", "emit_csv", "harness.emit_csv"),
)

SPANS = tuple(dict.fromkeys(metric for _, _, metric in TRACED))
EXPERIMENT = "harness.experiment"


class Tracer:
    """Installs the wrappers, records spans and counters, restores on exit."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_of: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters = {"receivers.cg_solve.iterations": 0,
                         "receivers.cg_solve.early_exits": 0,
                         "harness.emit_csv.rows": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, func, metric: str):
        name_id = self.name_of[metric]
        if metric == "receivers.cg_solve":
            return self._wrap_cg_solve(func, name_id)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        if metric == "harness.emit_csv":
            def counted(records, *args, **kwargs):
                self.counters["harness.emit_csv.rows"] += len(records)
                return traced(records, *args, **kwargs)
            return counted
        return traced

    def _wrap_cg_solve(self, func, name_id: int):
        """Counts accepted iterates through the solver's ``history`` hook."""
        signature = inspect.signature(func)
        hooked = "history" in signature.parameters and "j_max" in signature.parameters

        def traced(*args, **kwargs):
            history = None
            if hooked:
                bound = signature.bind(*args, **kwargs)
                j_max = bound.arguments.get("j_max")
                if bound.arguments.get("history") is None:
                    history = []
                    kwargs["history"] = history
            index = self._open(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)
                if history is not None:
                    self.counters["receivers.cg_solve.iterations"] += len(history)
                    if len(history) < j_max:
                        self.counters["receivers.cg_solve.early_exits"] += 1

        return traced

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, func_name, metric in TRACED:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(owner, func_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, metric)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def overhead_s(self, batches: int = 5, calls: int = 20_000) -> float:
        """Wall seconds the wrappers added to the traced code, estimated.

        Each recorded span is charged what one wrapped call of an empty
        function costs more than a bare call, measured now on a scratch
        tracer (median of ``batches`` batches); ``cg_solve`` spans are
        charged the cost of its own, costlier wrapper.  A difference of
        two whole rounds would be dominated by round-to-round noise.
        """
        def empty(*args, **kwargs):
            return None

        def empty_cg(corr, cross, w_init, j_max, tol=1e-12, history=None):
            return None

        def per_call(metric: str, func) -> float:
            wrapped = Tracer()._wrap(func, metric)
            costs = []
            for _ in range(batches):
                start = time.perf_counter()
                for _ in range(calls):
                    func(None, None, None, 1)
                bare = time.perf_counter() - start
                start = time.perf_counter()
                for _ in range(calls):
                    wrapped(None, None, None, 1)
                costs.append((time.perf_counter() - start - bare) / calls)
            return max(statistics.median(costs), 0.0)

        names = np.frombuffer(self.span_name, dtype=np.int32)
        cg_spans = int(np.count_nonzero(names == self.name_of["receivers.cg_solve"]))
        return ((names.size - cg_spans) * per_call("fading.generate_fading", empty)
                + cg_spans * per_call("receivers.cg_solve", empty_cg))

    def write(self, path: Path) -> None:
        """Write every span once, as a structured numpy array."""
        spans = np.zeros(len(self.span_start), dtype=[
            ("name", "i4"), ("parent", "i4"), ("start", "f8"), ("end", "f8")])
        spans["name"] = np.frombuffer(self.span_name, dtype=np.int32)
        spans["parent"] = np.frombuffer(self.span_parent, dtype=np.int32)
        spans["start"] = np.frombuffer(self.span_start, dtype=np.float64)
        spans["end"] = np.frombuffer(self.span_end, dtype=np.float64)
        np.savez(path, spans=spans, names=np.array(self.names))

    def metrics(self) -> dict[str, float]:
        """Calls and inclusive seconds per span, plus harness self time."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        durations = (np.frombuffer(self.span_end, dtype=np.float64)
                     - np.frombuffer(self.span_start, dtype=np.float64))
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            mine = names == name_id
            if name != EXPERIMENT:
                out[f"{name}.calls"] = int(np.count_nonzero(mine))
            out[f"{name}.s"] = float(durations[mine].sum())
        experiments = np.flatnonzero(names == self.name_of[EXPERIMENT])
        children = np.isin(parents, experiments)
        out["harness.self_s"] = float(durations[experiments].sum()
                                      - durations[children].sum())
        out.update(self.counters)
        return out
