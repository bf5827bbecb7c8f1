"""Span tracing of the fallgcn package, installed from outside.

The tracer replaces public functions and methods of the package's
modules with wrappers that record a span (name, start, end, parent)
around each call, and restores the originals afterwards. Nothing in the
package changes: the wrappers are attached to the names the package
itself looks up at call time (``ad.<op>`` in layers and model, the
``from``-imported names in training, skeleton_io and model).

Backward time is caught by wrapping ``GradTape.record``: each recorded
closure is wrapped so that replaying it opens a ``<op>.bwd`` span named
after the op that was running when it was recorded.

Per-layer metrics are derived from the spans: totals, call counts and
self time (a span's duration minus its direct children's).
"""
from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from functools import partial

import numpy as np

from fallgcn import autodiff, checkpoint, layers, model, skeleton_io, training

# Every public op of the engine is traced so that the coverage check
# sums all of them; only REPORTED_OPS become metrics.
TRACED_OPS = (
    "add", "mul", "scale", "matmul", "bias_add", "relu", "sum_all",
    "depthwise_tconv", "dense_tconv", "pointwise_conv", "spatial_aggregate",
    "max_pool_frames", "max_pool_joints", "global_avg_pool", "layer_norm",
    "dropout", "concat_channels", "softmax", "cross_entropy",
)
REPORTED_OPS = (
    "depthwise_tconv", "dense_tconv", "pointwise_conv", "spatial_aggregate",
    "max_pool_frames", "add", "relu", "bias_add", "global_avg_pool", "scale",
)
CONV_OPS = ("depthwise_tconv", "dense_tconv", "pointwise_conv", "spatial_aggregate")
ALLOC_OPS = ("depthwise_tconv", "dense_tconv", "pointwise_conv", "max_pool_frames")
LAYER_CLASSES = ("SgcLayer", "SepTcnLayer", "DenseTcnLayer", "GstcnBlock")
WINDOW_NORMALIZE = ("drop_invalid_frames", "window_sequence", "normalize_clip")
# A train step's numbers leave out the per-epoch evaluation inside train().
EVALUATE = "training.evaluate"


def op_multiplies(op: str, inputs) -> tuple[int, int]:
    """(forward, backward) multiply counts of one conv op, computed from
    the shapes of its two tensor inputs; backward counts only the input
    gradients the tape will actually form."""
    x, w = inputs[0], inputs[1]
    n, c, t, v = x.shape
    if op == "depthwise_tconv":
        fwd = n * c * t * v * w.shape[1]
    elif op == "dense_tconv":
        fwd = n * w.shape[0] * c * t * v * w.shape[2]
    elif op == "pointwise_conv":
        fwd = n * t * v * c * w.shape[1]
    else:  # spatial_aggregate
        fwd = n * c * t * v * v
    return fwd, fwd * (int(x.requires_grad) + int(w.requires_grad))


def _forward_multiplies(op: str, args, result) -> dict:
    return {"mul_fwd": op_multiplies(op, args)[0]}


class Tracer:
    """Collects spans in memory while installed.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in the
    order calls began, so a parent always precedes its children.
    ``counts`` accumulates per-name counters (multiplies, clips, bytes).
    With ``alloc=True`` the op wrappers instead record the tracemalloc
    peak of each call; timings from such a pass are not used.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc = False
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- span primitives --------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _alloc_call(self, name: str, fn, *args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        if all(self.spans[i][0] != EVALUATE for i in self._stack):
            self.counts[name + ".alloc_bytes"] += tracemalloc.get_traced_memory()[1] - base
            self.counts[name + ".alloc_calls"] += 1
        return result

    def wrap(self, fn, name: str, measure=None):
        """A traced stand-in for ``fn``; ``measure(args, result)`` may
        return counters to add under ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                if tracer.alloc and name in _ALLOC_NAMES:
                    result = tracer._alloc_call(name, fn, *args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                for key, value in measure(args, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, measure) for every traced callable."""
        out = []
        for op in TRACED_OPS:
            measure = partial(_forward_multiplies, op) if op in CONV_OPS else None
            out.append((autodiff, op, f"autodiff.{op}", measure))
        out.append((autodiff.GradTape, "gradients", "autodiff.tape.gradients", None))
        for cls in LAYER_CLASSES:
            out.append((getattr(layers, cls), "forward", f"layers.{cls}", None))
        out.append((layers, "apply_masking", "layers.apply_masking", self._kept_entries))
        out.append((model.ThreeStreamModel, "forward", "model.forward",
                    lambda args, res: {"clips": _batch_size(args[1])}))
        out.append((model, "compute_motion", "model.compute_motion", None))
        out.append((model.ClassifierHead, "forward", "model.head", None))
        out.append((training, "train", "training.train", None))
        out.append((training, "evaluate", EVALUATE, None))
        out.append((training, "sgd_step", "optim.sgd_step", None))
        out.append((skeleton_io, "load_sequences", "skeleton_io.load_sequences", None))
        for fn in WINDOW_NORMALIZE:
            measure = ((lambda args, res: {"clips": len(res)})
                       if fn == "window_sequence" else None)
            out.append((skeleton_io, fn, f"skeleton_io.{fn}", measure))
        out.append((skeleton_io, "save_clip_archive", "skeleton_io.save_clip_archive", None))
        out.append((skeleton_io, "load_clip_archive", "skeleton_io.load_clip_archive", None))
        saved = lambda args, res: {"bytes": os.path.getsize(args[0])}  # noqa: E731
        for owner in (checkpoint, skeleton_io, model):
            out.append((owner, "save_arrays", "checkpoint.save_arrays", saved))
            out.append((owner, "load_arrays", "checkpoint.load_arrays", None))
        return out

    def _kept_entries(self, args, result) -> dict:
        """Nonzero entries in and out of masking; their ratio is the
        realised keep rate. Counted only in the untimed allocation pass."""
        if not self.alloc:
            return {}
        return {"nonzero_in": np.count_nonzero(args[0].data),
                "nonzero_out": np.count_nonzero(result.data)}

    def _traced_record(self, record):
        tracer = self

        def traced_record(tape, out, inputs, backward):
            op = tracer.current() or "untraced"
            bwd_name = op + ".bwd"
            bwd_mul = 0
            if op.startswith("autodiff.") and op[len("autodiff."):] in CONV_OPS:
                bwd_mul = op_multiplies(op[len("autodiff."):], inputs)[1]

            def timed_backward(g):
                idx = tracer._open(bwd_name)
                try:
                    if tracer.alloc and op in _ALLOC_NAMES:
                        grads = tracer._alloc_call(op, backward, g)
                    else:
                        grads = backward(g)
                finally:
                    tracer._close(idx)
                if bwd_mul:
                    tracer.counts[op + ".mul_bwd"] += bwd_mul
                return grads

            tracer.counts["autodiff.tape.records"] += 1
            return record(tape, out, inputs, timed_backward)

        return traced_record

    @contextmanager
    def installed(self):
        """Attach the wrappers for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, measure in self._targets():
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, measure))
            record = autodiff.GradTape.__dict__["record"]
            originals.append((autodiff.GradTape, "record", record))
            autodiff.GradTape.record = self._traced_record(record)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


_ALLOC_NAMES = frozenset(f"autodiff.{op}" for op in ALLOC_OPS)


def _batch_size(clip) -> int:
    data = clip.data if isinstance(clip, autodiff.Tensor) else np.asarray(clip)
    return 1 if data.ndim == 3 else data.shape[0]


# ---------------------------------------------------------------------------
# span summaries


class SpanSummary:
    """Totals, self time and call counts per span name, optionally
    leaving out every span below a span named ``exclude``."""

    def __init__(self, spans: list[list], exclude: str | None = None) -> None:
        n = len(spans)
        skipped = [False] * n
        child_time = [0.0] * n
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            skipped[i] = parent >= 0 and (skipped[parent] or spans[parent][0] == exclude)
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            if skipped[i]:
                continue
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.calls[name] += 1

    def child_total(self, spans: list[list], parent_name: str, child_names) -> float:
        """Summed duration of ``child_names`` spans directly below a
        ``parent_name`` span."""
        return sum(
            end - start for name, start, end, parent in spans
            if parent >= 0 and name in child_names and spans[parent][0] == parent_name
        )


def _ms(seconds: float, per: float) -> float:
    return 1e3 * seconds / per


def layer_metrics(main_spans: list[list], main_counts: dict, per: float,
                  setup_spans: list[list], setup_counts: dict, setups: int,
                  alloc_counts: dict, flops_per_clip: int) -> dict[str, float]:
    """Per-layer metrics: ``main_*`` from the workload's main phase,
    divided by ``per`` (train steps or clips); ``setup_*`` from
    ``setups`` traced set-ups; ``alloc_counts`` from a tracemalloc pass;
    ``flops_per_clip`` is the model's exact multiply count per clip.

    Spans under ``training.evaluate`` are left out of the main phase, so
    a train step does not include the per-epoch evaluation it pays for;
    ``training.evaluate_ms`` reports that separately.
    """
    s = SpanSummary(main_spans, exclude=EVALUATE)
    out: dict[str, float] = {}
    for op in REPORTED_OPS:
        key = f"autodiff.{op}"
        out[f"{key}.fwd_ms"] = _ms(s.total[key], per)
        out[f"{key}.bwd_ms"] = _ms(s.total[key + ".bwd"], per)
        out[f"{key}.calls"] = s.calls[key] / per
    for op in CONV_OPS:
        key = f"autodiff.{op}"
        secs = s.total[key] + s.total[key + ".bwd"]
        muls = main_counts.get(key + ".mul_fwd", 0.0) + main_counts.get(key + ".mul_bwd", 0.0)
        out[f"{key}.gflop_per_s"] = muls / secs / 1e9 if secs else 0.0
    for op in ALLOC_OPS:
        key = f"autodiff.{op}"
        calls = alloc_counts.get(key + ".alloc_calls", 0.0)
        out[f"{key}.alloc_mb"] = (alloc_counts.get(key + ".alloc_bytes", 0.0) / calls / 2**20
                                  if calls else 0.0)
    out["autodiff.tape.records"] = main_counts.get("autodiff.tape.records", 0.0) / per
    out["autodiff.tape.accumulate_ms"] = _ms(s.self_time["autodiff.tape.gradients"], per)
    for cls in LAYER_CLASSES:
        out[f"layers.{cls}.self_ms"] = _ms(s.self_time[f"layers.{cls}"], per)
    out["layers.apply_masking.self_ms"] = _ms(s.self_time["layers.apply_masking"], per)
    nonzero_in = alloc_counts.get("layers.apply_masking.nonzero_in", 0.0)
    out["layers.apply_masking.kept_frac"] = (
        alloc_counts.get("layers.apply_masking.nonzero_out", 0.0) / nonzero_in
        if nonzero_in else 0.0)
    out["model.forward_ms"] = _ms(s.total["model.forward"], per)
    out["model.compute_motion_ms"] = _ms(s.total["model.compute_motion"], per)
    out["model.head_ms"] = _ms(s.total["model.head"], per)
    forward_secs = s.total["model.forward"]
    out["model.gflop_per_s"] = (flops_per_clip * main_counts.get("model.forward.clips", 0.0)
                                / forward_secs / 1e9 if forward_secs else 0.0)
    out["training.forward_ms"] = _ms(s.child_total(
        main_spans, "training.train", ("model.forward", "autodiff.cross_entropy")), per)
    out["training.backward_ms"] = _ms(s.total["autodiff.tape.gradients"], per)
    out["training.evaluate_ms"] = _ms(s.total[EVALUATE], per)
    out["training.other_ms"] = _ms(s.self_time["training.train"], per)
    out["optim.sgd_step_ms"] = _ms(s.total["optim.sgd_step"], per)

    op_time = sum(s.total[f"autodiff.{op}"] + s.total[f"autodiff.{op}.bwd"]
                  for op in TRACED_OPS)
    train_wall = s.total["training.train"]
    if train_wall:
        step_wall = train_wall - s.child_total(main_spans, "training.train", (EVALUATE,))
    else:
        step_wall = s.total["model.forward"]
    out["trace.op_coverage_frac"] = op_time / step_wall if step_wall else 0.0

    u = SpanSummary(setup_spans)
    out["skeleton_io.load_sequences_ms"] = _ms(u.total["skeleton_io.load_sequences"], setups)
    out["skeleton_io.window_normalize_ms"] = _ms(
        sum(u.total[f"skeleton_io.{fn}"] for fn in WINDOW_NORMALIZE), setups)
    out["skeleton_io.save_clip_archive_ms"] = _ms(u.total["skeleton_io.save_clip_archive"], setups)
    out["skeleton_io.load_clip_archive_ms"] = _ms(u.total["skeleton_io.load_clip_archive"], setups)
    out["skeleton_io.clips"] = setup_counts.get("skeleton_io.window_sequence.clips", 0.0) / setups
    out["checkpoint.save_arrays_ms"] = _ms(u.total["checkpoint.save_arrays"], setups)
    out["checkpoint.load_arrays_ms"] = _ms(u.total["checkpoint.load_arrays"], setups)
    out["checkpoint.bytes"] = setup_counts.get("checkpoint.save_arrays.bytes", 0.0) / setups
    return out
