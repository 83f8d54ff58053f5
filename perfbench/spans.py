"""Span recorder for the traced benchmark run.

A span is one timed interval: a name, a start, an end and the span that
was open when it began.  Spans stay in memory while the run goes on and
are written out with the result when it ends.

`instrument` wraps the public functions of each `nmhash` layer so that
every call opens a span, under every module name the function is bound
to (`relevance_matrix`, for example, is bound in `data`, `merging` and
`metrics`; `forward` is also bound in `training`).  Leaving the context
puts every original function back, so an untraced repetition times the
unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# The traced functions, by the module that defines them.  A span is named
# "<module>.<function>" wherever the call comes from.
LAYER_FUNCTIONS = {
    "data": ("generate_synthetic", "standardize", "build_similarity"),
    "network": ("forward", "backward", "sgd_step"),
    "losses": ("relaxed_hash_loss", "relaxed_hash_loss_grad"),
    "merging": ("score_neurons", "propagate_scores", "active_loss",
                "active_grad", "apply_active_step", "draw_choices",
                "apply_choices", "frozen_loss", "frozen_grads",
                "eval_forward", "truncate", "groups_after_truncation"),
    "metrics": ("relevance_matrix", "retrieve", "mean_average_precision",
                "precision_at_hamming_radius"),
}


def _score_neurons_work(args):
    n_gallery, n_bits = np.shape(args["gallery_codes"])
    return {"bits": n_bits,
            "cells": n_gallery * len(args["query_codes"]) * n_bits}


# Work done per call, counted from the call's arguments.
WORK_COUNTS = {
    "merging.score_neurons": _score_neurons_work,
    "metrics.relevance_matrix": lambda a: {
        "cells": len(a["query_labels"]) * len(a["gallery_labels"])},
    "network.forward": lambda a: {"rows": len(a["batch"])},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and per-span-name work counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, self.clock(), math.nan, parent)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with a span around every call and its work counted."""
        work = WORK_COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.counts[name].update(work(bound))
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


def _nmhash_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "nmhash" or name.startswith("nmhash.")]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Trace every function in LAYER_FUNCTIONS until the context exits."""
    modules = _nmhash_modules()
    by_name = {m.__name__: m for m in modules}
    patched = []
    try:
        for layer, names in LAYER_FUNCTIONS.items():
            home = by_name[f"nmhash.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = recorder.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            patched.append((module, attr, original))
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# Per-layer metrics of one traced repetition.  ".s" sums the self time of
# the named spans; the training stage times are whole stage spans.
SELF_TIME_METRICS = {
    "merging.score_neurons.s": ("merging.score_neurons",),
    "metrics.relevance_matrix.s": ("metrics.relevance_matrix",),
    "data.build_similarity.s": ("data.build_similarity",),
    "network.forward.s": ("network.forward",),
    "network.backward.s": ("network.backward",),
    "network.sgd_step.s": ("network.sgd_step",),
    "losses.relaxed_hash_loss.s": ("losses.relaxed_hash_loss",),
    "losses.relaxed_hash_loss_grad.s": ("losses.relaxed_hash_loss_grad",),
    "merging.frozen_route.s": (
        "merging.draw_choices", "merging.apply_choices",
        "merging.frozen_loss", "merging.frozen_grads"),
    "merging.eval_forward.s": ("merging.eval_forward",),
    "merging.active_step.s": (
        "merging.propagate_scores", "merging.active_loss",
        "merging.active_grad", "merging.apply_active_step"),
    "merging.truncate.s": ("merging.truncate",
                                 "merging.groups_after_truncation"),
    "metrics.retrieve.s": ("metrics.retrieve",),
    "metrics.mean_average_precision.s": ("metrics.mean_average_precision",),
    "metrics.precision_at_hamming_radius.s": ("metrics.precision_at_hamming_radius",),
    "data.generate_synthetic.s": ("data.generate_synthetic",),
    "data.standardize.s": ("data.standardize",),
}
STAGES = ("base", "active", "frozen")
STAGE_PREFIX = "training."
CALL_METRICS = {
    "merging.score_neurons.calls": ("merging.score_neurons",),
    "metrics.relevance_matrix.calls": ("metrics.relevance_matrix",),
    "data.build_similarity.calls": ("data.build_similarity",),
    "network.forward.calls": ("network.forward",),
    "network.backward.calls": ("network.backward",),
    "losses.calls": ("losses.relaxed_hash_loss",
                           "losses.relaxed_hash_loss_grad"),
}
WORK_METRICS = {
    "merging.score_neurons.bits": ("merging.score_neurons", "bits"),
    "merging.score_neurons.cells": ("merging.score_neurons", "cells"),
    "metrics.relevance_matrix.cells": ("metrics.relevance_matrix", "cells"),
    "network.forward.rows": ("network.forward", "rows"),
}
TRAIN_SPAN = "bench.train"


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by metric name.

    Stage spans are named "training.<stage>" and sit inside the
    benchmark's TRAIN_SPAN.  `training.self.s` is the stage time no
    wrapped function accounts for; `training.unattributed.s` is the part
    of TRAIN_SPAN outside every stage span and wrapped call.
    """
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    for s, own in zip(recorder.spans, self_times(recorder.spans)):
        self_s[s.name] += own
        total_s[s.name] += s.duration
        calls[s.name] += 1
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_s[n] for n in names)
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(calls[n] for n in names)
    for metric, (name, key) in WORK_METRICS.items():
        out[metric] = recorder.counts[name][key]
    stage_names = [n for n in calls if n.startswith(STAGE_PREFIX)]
    for stage in STAGES:
        out[f"training.{stage}.s"] = total_s[STAGE_PREFIX + stage]
    out["training.epochs"] = sum(calls[n] for n in stage_names)
    out["training.self.s"] = sum((self_s[n] for n in stage_names), 0.0)
    out["training.unattributed.s"] = self_s[TRAIN_SPAN]
    return out


def stage_accounting(recorder) -> dict:
    """Stage span time split into wrapped self time, stage self time and
    the remainder neither covers (zero up to rounding)."""
    by_id = {s.id: s for s in recorder.spans}
    own = self_times(recorder.spans)
    stage_total = wrapped = stage_self = 0.0
    for s, self_s in zip(recorder.spans, own):
        if s.name.startswith(STAGE_PREFIX):
            stage_total += s.duration
            stage_self += self_s
            continue
        parent = s.parent
        while (parent is not None
               and not by_id[parent].name.startswith(STAGE_PREFIX)):
            parent = by_id[parent].parent
        if parent is not None:
            wrapped += self_s
    return {"stage_s": stage_total, "wrapped_self_s": wrapped,
            "training_self_s": stage_self,
            "remainder_s": stage_total - wrapped - stage_self}
