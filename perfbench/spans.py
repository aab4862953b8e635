"""Spans around the calls into each tempbal module, installed from the benchmark's own files.

Modules bind imported names at import time, so a wrapper replaces the name
the calling module looks up (``tempbal.cli.load_snapshot``), not the
function in the module that defines it. A span records its name, start,
end and parent; spans of one op share the op's id and stay in memory until
the run ends. The run is single-threaded (``TEMPBAL_THREADS`` is unset), so
one stack gives every span its parent and child spans never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

MIB = float(2**20)
ROOT_SPAN = "cli"

# (module that makes the call, name it calls, span name = layer.function)
CALL_SITES = (
    ("cli", "run_training", "train_engine.run_training"),
    ("cli", "analyze_snapshot", "htsr.analyze_snapshot"),
    ("cli", "load_snapshot", "weight_store.load_snapshot"),
    ("cli", "save_snapshot", "weight_store.save_snapshot"),
    ("cli", "verify_s_alpha", "rmt_lab.verify_s_alpha"),
    ("train_engine", "make_dataset", "train_engine.make_dataset"),
    ("train_engine", "snapshot_params", "train_engine.snapshot_params"),
    ("train_engine", "schedule_epoch", "scheduler.schedule_epoch"),
    ("train_engine", "loss_and_grads", "train_engine.loss_and_grads"),
    ("train_engine", "snr_grad_term", "train_engine.snr_grad_term"),
    ("train_engine", "sgd_step", "train_engine.sgd_step"),
    ("train_engine", "accuracy", "train_engine.accuracy"),
    ("scheduler", "analyze_snapshot", "htsr.analyze_snapshot"),
    ("htsr", "orient", "esd.orient"),
    ("htsr", "compute_esd", "esd.compute_esd"),
    ("htsr", "layer_metrics", "htsr.layer_metrics"),
    ("rmt_lab", "synth_pl_matrix", "rmt_lab.synth_pl_matrix"),
    ("rmt_lab", "compute_esd", "esd.compute_esd"),
    ("rmt_lab", "layer_metrics", "htsr.layer_metrics"),
)

# span name -> counters it adds, from the call's arguments and result
COUNTERS = {
    "weight_store.load_snapshot": lambda args, snap: {
        "weight_store.load_snapshot.mb": sum(layer.values.nbytes for layer in snap.layers) / MIB
    },
    "esd.compute_esd": lambda args, esd: {"esd.compute_esd.mb": args[0].values.nbytes / MIB},
    "htsr.analyze_snapshot": lambda args, rows: {
        "htsr.degenerate_layers": sum(row.metrics is None for row in rows)
    },
    "scheduler.schedule_epoch": lambda args, decision: {
        "scheduler.fallback_layers": len(decision.fallback_layers)
    },
    "rmt_lab.verify_s_alpha": lambda args, rows: {"rmt_lab.cells": len(rows)},
}


class Tracer:
    """Collects the spans and counters of every traced op of one run."""

    def __init__(self):
        self.spans: dict[int, list[list]] = {}  # op id -> [name, start, end, parent index]
        self.counters: dict[int, dict[str, float]] = {}
        self._current: list[list] = []
        self._counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self._current))
            self._current.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    self._counts[key] = self._counts.get(key, 0) + value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block, then restore the originals."""
        saved = []
        try:
            for module_name, attr, name in CALL_SITES:
                module = importlib.import_module(f"tempbal.{module_name}")
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(saved[-1][2], name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, op_id: int, fn):
        """Run fn() as part of op op_id, under a root span named ROOT_SPAN; an op may make several calls."""
        self._current = self.spans.setdefault(op_id, [])
        self._counts = self.counters.setdefault(op_id, {})
        return self._wrap(fn, ROOT_SPAN)()

    def op_metrics(self, op_id: int, names) -> dict[str, float]:
        """The named per-layer metrics of one op, each a time, a self time, a call count or a counter.

        A name ``<span>.s`` is the span's total time and ``<span>.self_s`` its
        time outside child spans; the rest are computed below or are COUNTERS.
        """
        spans = self.spans[op_id]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                children[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _parent), child_time in zip(spans, children):
            total[name] += end - start
            own[name] += end - start - child_time
            calls[name] += 1
        run_training = total["train_engine.run_training"]
        spectral = total["scheduler.schedule_epoch"] + total["train_engine.snr_grad_term"]
        values = {
            "trace.op_s": total[ROOT_SPAN],
            "cli.self_s": own[ROOT_SPAN],
            "train_engine.spectral_share": spectral / run_training if run_training else 0.0,
            "train_engine.steps": calls["train_engine.sgd_step"],
            "scheduler.refreshes": calls["scheduler.schedule_epoch"],
            "esd.compute_esd.calls": calls["esd.compute_esd"],
        }
        for metric in names:
            if metric in values:
                continue
            span_name, _, kind = metric.rpartition(".")
            if kind == "s":
                values[metric] = total[span_name]
            elif kind == "self_s":
                values[metric] = own[span_name]
            else:  # a counter named after its layer
                values[metric] = self.counters[op_id].get(metric, 0)
        return values
