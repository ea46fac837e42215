"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the public functions of ``modmd`` at the module
attributes where the sweep drivers look them up, so nothing in the
package itself changes. Each span is ``(name, start, end, parent, run_id)``
with ``parent`` the index of the enclosing span (or ``None``). Spans stay
in memory and are written out once, when the traced sweep ends.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects spans and per-boundary counters for one traced sweep."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: "list[list]" = []
        self.counters: "collections.Counter[str]" = collections.Counter()
        self.maxima: "dict[str, float]" = {}
        self._stack: "list[int]" = []
        self._patched: "list[tuple[object, str, object]]" = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span.

        ``observe(recorder, args, kwargs, result)`` runs after each call,
        outside the span, to add counters. A missing attribute (the code
        was refactored) is reported on stderr and left unwrapped, so its
        metrics read zero instead of failing the run.
        """
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; {name} reads 0",
                  file=sys.stderr)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "maxima": self.maxima,
                }
            )
        )


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _observe_dense(rec: SpanRecorder, args, kwargs, result) -> None:
    n_qubits = _arg(args, kwargs, 0, "psum").n_qubits
    dense_mb = 16 * 4**n_qubits / 2**20
    rec.maxima["pauli.dense_mb"] = max(rec.maxima.get("pauli.dense_mb", 0.0), dense_mb)


def _observe_samples(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counters["shadows.samples"] += int(_arg(args, kwargs, 1, "n_samples"))


def _observe_pinv(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counters["solver.state_dim"] += int(_arg(args, kwargs, 0, "matrix").shape[0])
    rec.counters["solver.rank"] += int(result.rank)


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer boundary of an imported ``modmd``."""
    from modmd import cli, harness, shadows

    for driver in ("run_convergence_sweep", "run_forecast_experiment"):
        recorder.wrap(cli, driver, "harness.sweep")
    recorder.wrap(cli, "emit_outputs", "harness.emit")
    recorder.wrap(harness, "build_problem", "harness.build_problem")
    recorder.wrap(harness, "to_dense", "pauli.to_dense", _observe_dense)
    recorder.wrap(harness, "diagonalize", "simulate.diagonalize")
    recorder.wrap(harness, "exact_signal", "simulate.exact_signal")
    recorder.wrap(harness, "shadow_signal", "shadows.signal")
    recorder.wrap(shadows, "sample_shadows", "shadows.sample", _observe_samples)
    recorder.wrap(shadows, "haar_unitary", "shadows.unitary")
    recorder.wrap(harness, "build_hankel", "solver.hankel")
    recorder.wrap(harness, "truncated_pinv", "solver.pinv", _observe_pinv)
    recorder.wrap(harness, "extract_eigen", "solver.eig")
    recorder.wrap(harness, "residual", "solver.residual")
    recorder.wrap(harness, "forecast", "solver.forecast")


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_totals(spans: "list[list]") -> "tuple[dict, dict, dict]":
    """Per span name: call count, total duration, total self time.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children: "dict[int, list[tuple[float, float]]]" = collections.defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls: "collections.Counter[str]" = collections.Counter()
    total: "collections.defaultdict[str, float]" = collections.defaultdict(float)
    self_time: "collections.defaultdict[str, float]" = collections.defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += (end - start) - _covered(children.get(index, []))
    return calls, total, self_time


_NO_TRACE = {"spans": [], "counters": {}, "maxima": {}}


def _sweep_figures(trace: dict) -> "dict[str, float]":
    calls, total, self_time = span_totals(trace["spans"])
    counters = trace["counters"]
    samples = counters.get("shadows.samples", 0)
    fits = calls["solver.pinv"]
    state_dim = counters.get("solver.state_dim", 0)
    rank = counters.get("solver.rank", 0)
    return {
        "pauli.to_dense_s": total["pauli.to_dense"],
        "pauli.dense_mb": trace["maxima"].get("pauli.dense_mb", 0.0),
        "simulate.diagonalize_s": total["simulate.diagonalize"],
        "simulate.diagonalize_calls": calls["simulate.diagonalize"],
        "simulate.exact_signal_s": total["simulate.exact_signal"],
        "simulate.exact_signal_calls": calls["simulate.exact_signal"],
        "shadows.signal_s": total["shadows.signal"],
        "shadows.sample_s": total["shadows.sample"],
        "shadows.estimate_self_s": self_time["shadows.signal"],
        "shadows.unitary_s": total["shadows.unitary"],
        "shadows.unitary_draws": calls["shadows.unitary"],
        "shadows.samples": samples,
        "shadows.draws_per_sample": calls["shadows.unitary"] / samples if samples else 0.0,
        "shadows.us_per_sample": 1e6 * total["shadows.signal"] / samples if samples else 0.0,
        "solver.eig_s": total["solver.eig"],
        "solver.residual_s": total["solver.residual"],
        "solver.rank_frac": rank / state_dim if state_dim else 0.0,
        "solver.pinv_s": total["solver.pinv"],
        "solver.hankel_s": total["solver.hankel"],
        "solver.forecast_s": total["solver.forecast"],
        "solver.fit_calls": fits,
        "solver.state_dim_mean": state_dim / fits if fits else 0.0,
        "solver.rank_mean": rank / fits if fits else 0.0,
        "harness.build_problem_calls": calls["harness.build_problem"],
        "harness.build_problem_s": total["harness.build_problem"],
        "harness.emit_s": total["harness.emit"],
        "harness.self_s": self_time["harness.sweep"],
        "cli.self_s": self_time["cli.main"],
    }


def layer_metrics(traces: "list[dict]") -> "dict[str, float]":
    """Per-layer figures, each the median over traced sweeps.

    A layer whose functions were never called reads 0, as does every
    figure when no traced sweep finished.
    """
    figures = [_sweep_figures(t) for t in traces]
    names = _sweep_figures(_NO_TRACE)
    return {
        name: statistics.median(f[name] for f in figures) if figures else 0.0
        for name in names
    }


# Unit of every per-layer metric the traced run reports: the figures
# above plus four that run.py derives from emitted files, checks and
# untraced sweeps.
LAYER_UNITS = {
    **{
        name: "s" if name.endswith("_s") else "count"
        for name in _sweep_figures(_NO_TRACE)
    },
    "pauli.dense_mb": "MB",
    "shadows.draws_per_sample": "draws/sample",
    "shadows.us_per_sample": "us",
    "solver.rank_frac": "frac",
    "solver.e0_err_p50": "energy",
    "harness.cells": "count",
    "trace.overhead_frac": "frac",
    "fail_frac": "frac",
}


def largest_self_times(traces: "list[dict]", top: int = 5) -> "list[tuple[str, float]]":
    """Span names ranked by median self time over several traced sweeps."""
    per_name: "collections.defaultdict[str, list[float]]" = collections.defaultdict(list)
    for trace in traces:
        _, _, self_time = span_totals(trace["spans"])
        for name, value in self_time.items():
            per_name[name].append(value)
    ranked = sorted(
        ((name, statistics.median(values)) for name, values in per_name.items()),
        key=lambda item: -item[1],
    )
    return ranked[:top]
