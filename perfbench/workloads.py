"""The benchmark's workloads, driven through fallgcn's public API.

Each workload is a closed loop with one client in one process: the next
call starts only when the previous one has returned. Inputs come only
from the workload seed. Model initialisation and the training RNG seed
are fixed program settings, so a seed gives the same inputs and the
same training history on every run.

* ``train-desk``: synthetic stick9 sequences written as JSON Lines plus
  a manifest, ingested as ``fallgcn ingest`` does, trained with the
  separable TCN (T=32, V=9, batch 32), then evaluated and served clip
  by clip. The only workload whose main phase runs the tape, the
  backward closures, ``sgd_step`` and ``apply_masking``.
* ``infer-coco18``: the full-size separable model (coco18, T=64) goes
  through ``save_model``/``load_model`` and then serves distinct
  generated clips one at a time; no tape, batch 1.
* ``infer-coco18-dense``: the same with the dense-TCN twin, the only
  workload that runs ``dense_tconv`` and never ``depthwise_tconv``.

Every workload reports every end-to-end metric: the inference
workloads also fine-tune a copy of their model on a few clips and run a
batched ``evaluate``, each in a small share of the run.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fallgcn import skeleton_io, synthetic, training
from fallgcn.graph import normalized_adjacency
from fallgcn.layers import MaskingConfig
from fallgcn.layouts import builtin_layout
from fallgcn.model import (
    ModelConfig,
    ThreeStreamModel,
    count_flops,
    count_parameters,
    load_model,
    save_model,
)
from fallgcn.skeleton_io import ManifestEntry, SkeletonClip
from fallgcn.training import Hyperparams

from tracing import Tracer, layer_metrics

EPOCHS = 2
TRAIN_FRACTION = 0.75
MIN_LATENCY_SAMPLES = 100  # leaves 10 samples beyond p90
LATENCY_BURST_S = 0.05
WARMUP_CLIPS = 3
COVERAGE_FLOOR = 0.9
PROB_SUM_TOL = 1e-12
# count_flops of the full-size coco18 model (T=64, channels 64/128).
FULL_SIZE_FLOPS = {"separable": 95_133_824, "dense": 188_178_560}


@dataclass(frozen=True)
class Size:
    """Input and model sizes; ``full`` is the benchmark, ``tiny`` a smoke run."""

    desk_per_class: int  # synthetic sequences per class, one clip each
    desk_clip_len: int
    coco_clip_len: int
    channels: tuple[int, int]
    head_hidden: int
    desk_batch: int
    coco_train_clips: int  # clips the inference workloads fine-tune on
    coco_batch: int
    coco_eval_clips: int
    coco_infer_chunk: int  # fresh clips served per round
    setups_per_round: int  # setup_s is the median over all set-ups of a run


SIZES = {
    "full": Size(64, 32, 64, (64, 128), 64, 32, 8, 8, 16, 150, 2),
    "tiny": Size(4, 8, 8, (4, 8), 8, 4, 4, 2, 8, 10, 1),
}

# The inference workloads fine-tune on one fixed clip set, the same for
# every seed: a few steps on a handful of clips give a loss that swings by
# 15-30% with the data, which would drown any change in the program's
# training numerics. The seed still picks every clip served or evaluated.
FIT_SEED = 20240822
TRACE_MAIN_SHARE = 0.8
TRACE_CHUNK_CLIPS = 20


class BenchmarkFailure(RuntimeError):
    """An operation of the program raised; the run cannot continue."""


class QuietGate:
    """Holds each timed call until the machine runs at its usual speed.

    On a shared host the CPU speed of this process drops by up to 1.4x
    in spells of 0.4 to 10 s, whatever code runs, which swings every
    end-to-end metric by 15-25% between runs. Before a timed call a short
    pure-Python probe runs; while it is more than SLACK times slower than
    the fastest probe of the run, the gate sleeps and probes again, for at
    most MAX_WAIT seconds, for at most WAIT_SHARE of the run in all, and
    not past the run's deadline.
    The probe never calls fallgcn, so a slower program cannot pass for a
    slower machine.
    """

    SLACK = 1.15
    MAX_WAIT = 0.5
    WAIT_SHARE = 0.5
    PAUSE = 0.01
    PROBE_LOOPS = 4000

    def __init__(self) -> None:
        self.best = float("inf")
        self.start = time.perf_counter()
        self.deadline = float("inf")
        self.waited = 0.0

    def _probe(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self.PROBE_LOOPS):
            acc += i * 0.5
        took = time.perf_counter() - t0
        self.best = min(self.best, took)
        return took

    def wait(self) -> None:
        t0 = time.perf_counter()
        if self.waited > self.WAIT_SHARE * (t0 - self.start) or t0 > self.deadline:
            return
        deadline = min(t0 + self.MAX_WAIT, self.deadline)
        while self._probe() > self.SLACK * self.best and time.perf_counter() < deadline:
            time.sleep(self.PAUSE)
        self.waited += time.perf_counter() - t0


class Meter:
    """Counts operations attempted and failed, records checks, and times
    calls behind a :class:`QuietGate`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.gate = QuietGate()

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise BenchmarkFailure(f"{getattr(fn, '__name__', fn)} raised {exc!r}") from exc

    def timed(self, fn, *args, gated: bool = True, **kwargs) -> tuple[float, object]:
        """(seconds, result) of one call, by default started once the
        machine is quiet."""
        if gated:
            self.gate.wait()
        t0 = time.perf_counter()
        result = self.call(fn, *args, **kwargs)
        return time.perf_counter() - t0, result

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# ---------------------------------------------------------------------------
# inputs


def write_desk_inputs(workdir: Path, seed: int, size: Size) -> Path:
    """Synthetic stick9 sequences as JSON Lines plus a manifest; returns
    the manifest path. Lengths span one clip length, so each sequence
    windows into exactly one clip."""
    t = size.desk_clip_len
    layout = builtin_layout("stick9")
    sequences = synthetic.generate_sequences(
        size.desk_per_class, seed, length_range=(t, 2 * t - 1), layout=layout)
    names = synthetic.CLASS_NAMES
    skeleton_io.write_sequences(workdir / "sequences.jsonl", sequences, names)
    manifest = workdir / "manifest.csv"
    skeleton_io.write_manifest(manifest, [
        ManifestEntry(path=Path("sequences.jsonl"), label=names[s.label], seq_id=s.id)
        for s in sequences
    ])
    return manifest


# Standing coco18 pose (x, y) in layout order, about 1.7 units tall.
COCO18_POSE = np.array([
    [0.00, 1.70], [0.00, 1.50], [-0.20, 1.48], [-0.28, 1.20], [-0.30, 0.95],
    [0.20, 1.48], [0.28, 1.20], [0.30, 0.95], [-0.12, 0.95], [-0.14, 0.50],
    [-0.15, 0.05], [0.12, 0.95], [0.14, 0.50], [0.15, 0.05], [-0.04, 1.74],
    [0.04, 1.74], [-0.08, 1.72], [0.08, 1.72],
])


def coco18_clips(rng: np.random.Generator, n: int, clip_len: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` distinct neck-centred coco18 clips [n, 2, T, 18], half of
    them falls (the body sinks towards the ground over the clip) and half
    sways (side-to-side oscillation), with per-clip scale and noise."""
    labels = rng.permutation(np.arange(n) % 2)
    frames = np.linspace(0.0, 1.0, clip_len)[None, :, None]
    height = COCO18_POSE[None, None, :, 1] / COCO18_POSE[:, 1].max()
    base = COCO18_POSE.T[None, :, None, :] * rng.uniform(0.9, 1.1, (n, 1, 1, 1))
    drop = rng.uniform(0.5, 0.8, (n, 1, 1))
    phase = rng.uniform(0.0, 2 * np.pi, (n, 1, 1))
    falls = (labels == 0)[:, None, None]
    motion = np.zeros((n, 2, clip_len, 18))
    motion[:, 0] = np.where(falls, 0.0, 0.15 * np.sin(4 * np.pi * frames + phase))
    motion[:, 1] = np.where(falls, -drop * frames * height, 0.0)
    data = base + motion + rng.normal(0.0, 0.02, (n, 2, clip_len, 18))
    return data - data[:, :, :, 1:2], labels


def _clip_list(data: np.ndarray, labels: np.ndarray) -> list[SkeletonClip]:
    return [SkeletonClip(data=d, label=int(y)) for d, y in zip(data, labels)]


# ---------------------------------------------------------------------------
# set-up


def desk_config(size: Size) -> ModelConfig:
    return ModelConfig(
        dims=2, clip_len=size.desk_clip_len, joint_count=9, channels=size.channels,
        head_hidden=size.head_hidden, masking=MaskingConfig(0.1, 0.1), dropout=0.1,
        tcn="separable", layout_name="stick9",
    )


def coco_config(size: Size, tcn: str) -> ModelConfig:
    return ModelConfig(
        dims=2, clip_len=size.coco_clip_len, joint_count=18, channels=size.channels,
        head_hidden=size.head_hidden, tcn=tcn, layout_name="coco18",
    )


def desk_setup(manifest_path: Path, archive: Path, size: Size):
    """Ingest as ``fallgcn ingest`` does, load the clip archive back,
    split it and build the model."""
    layout = builtin_layout("stick9")
    manifest = skeleton_io.read_manifest(manifest_path, layout.name)
    sequences = skeleton_io.load_sequences(manifest, layout)
    clips = [
        skeleton_io.normalize_clip(clip, layout)
        for seq in sequences
        for clip in skeleton_io.window_sequence(
            skeleton_io.drop_invalid_frames(seq), size.desk_clip_len, size.desk_clip_len)
    ]
    skeleton_io.save_clip_archive(archive, clips, manifest.class_names, layout,
                                  stride=size.desk_clip_len)
    clips, _, layout, _ = skeleton_io.load_clip_archive(archive)
    train_clips, val_clips = skeleton_io.split_dataset(clips, TRAIN_FRACTION, 0)
    model = ThreeStreamModel(desk_config(size), normalized_adjacency(layout))
    return clips, train_clips, val_clips, model


def coco_setup(checkpoint: Path, size: Size, tcn: str):
    """Build the model, save it and load it back; returns (built, loaded)."""
    built = ThreeStreamModel(coco_config(size, tcn), normalized_adjacency(builtin_layout("coco18")))
    save_model(built, checkpoint)
    return built, load_model(checkpoint)


# ---------------------------------------------------------------------------
# measured rounds


class Samples:
    """What the rounds of one end-to-end run measured."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.train_rate: list[float] = []
        self.eval_rate: list[float] = []
        self.latency_ms: list[float] = []
        self.history: list | None = None  # (train_loss, val_accuracy) per epoch

    def enough(self) -> bool:
        return len(self.latency_ms) >= MIN_LATENCY_SAMPLES

    def metrics(self, meter: Meter) -> dict[str, float]:
        meter.check("latency_samples_enough", self.enough())
        p50, p90 = np.percentile(self.latency_ms, [50, 90])
        return {
            "setup_s": statistics.median(self.setup_s),
            "train_clips_per_s": statistics.median(self.train_rate),
            "train_loss_end": self.history[-1][0],
            "eval_clips_per_s": statistics.median(self.eval_rate),
            "infer_ms_p50": float(p50),
            "infer_ms_p90": float(p90),
        }


def _rounds(meter: Meter, seconds: float, min_rounds: int, round_fn,
            enough=lambda: True) -> None:
    """Run ``round_fn(i)`` for i = 0, 1, ... while the next round should
    end within ``seconds`` even if it is as slow as the slowest so far,
    and in any case until ``enough()`` holds after at least ``min_rounds``
    rounds. Each round touches every measured phase, so a slow spell of
    the machine is shared by all metrics instead of landing on one. The
    gate stops waiting once ``seconds`` have passed."""
    start = time.perf_counter()
    meter.gate.deadline = start + seconds
    took: list[float] = []
    while len(took) < min_rounds or not enough() or (
            time.perf_counter() - start + max(took) <= seconds):
        t0 = time.perf_counter()
        round_fn(len(took))
        took.append(time.perf_counter() - t0)


def _train_round(meter: Meter, samples: Samples, model, train_clips, val_clips,
                 hp: Hyperparams):
    """One timed ``train()`` of a fresh model; every round trains the same
    model on the same clips, so every history must be bit-identical."""
    secs, history = meter.timed(training.train, model, train_clips, val_clips, hp)
    samples.train_rate.append(len(train_clips) * hp.epochs / secs)
    record = [(r.train_loss, r.val_accuracy) for r in history]
    meter.check("losses_finite", bool(np.isfinite(record).all()))
    if samples.history is None:
        samples.history = record
    meter.check("history_bit_identical", record == samples.history)


def _eval_round(meter: Meter, samples: Samples, model, clips) -> np.ndarray:
    secs, cm = meter.timed(training.evaluate, model, clips)
    samples.eval_rate.append(len(clips) / secs)
    return cm.counts


def _infer_round(meter: Meter, samples: Samples, model, chunk) -> list[int]:
    """Timed single-clip forwards; returns each clip's argmax. The gate is
    passed once per LATENCY_BURST_S of serving: far shorter than a slow
    spell, and gating each clip would cost more than it serves."""
    preds = []
    next_gate = 0.0
    for data in chunk:
        gated = time.perf_counter() >= next_gate
        secs, probs = meter.timed(model.forward, data, training=False, gated=gated)
        if gated:
            next_gate = time.perf_counter() + LATENCY_BURST_S
        samples.latency_ms.append(secs * 1e3)
        p = probs.data
        ok = bool(np.isfinite(p).all()) and abs(p.sum() - 1.0) <= PROB_SUM_TOL
        if not ok:
            meter.failed += 1
        meter.check("probabilities_finite_and_normalised", ok)
        preds.append(int(p.argmax()))
    return preds


def _check_argmax(meter: Meter, preds: list[int], clips, counts: np.ndarray) -> None:
    """Single-clip argmax over ``clips`` must reproduce ``evaluate``'s
    confusion counts on the same clips."""
    single = np.zeros_like(counts)
    for clip, pred in zip(clips, preds):
        single[clip.label, pred] += 1
    meter.check("single_clip_argmax_matches_evaluate", np.array_equal(single, counts))


def _check_roundtrip(meter: Meter, built, loaded, data: np.ndarray) -> None:
    meter.check("load_model_bit_identical",
                np.array_equal(meter.call(built.forward, data).data,
                               meter.call(loaded.forward, data).data))


def _check_flops(meter: Meter, model, size: Size) -> int:
    flops = meter.call(count_flops, model)
    cfg = model.config
    if size == SIZES["full"] and cfg.layout_name == "coco18":
        meter.check("flops_match_paper_model", flops == FULL_SIZE_FLOPS[cfg.tcn])
    return flops


def _setup_round(meter: Meter, samples: Samples, setup, times: int):
    """Timed set-ups; returns the last one's result."""
    for _ in range(times):
        secs, result = meter.timed(setup)
        samples.setup_s.append(secs)
    return result


# ---------------------------------------------------------------------------
# workloads


class Context:
    """One benchmark run: workload inputs, sizes, budget and meter."""

    def __init__(self, seed: int, seconds: float, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.workdir = workdir
        self.meter = Meter()


def train_desk(ctx: Context, trace: bool) -> dict[str, float]:
    """Each round trains a fresh model on the ingested clips, evaluates
    it on all of them and serves each of them as a single clip."""
    size, meter = ctx.size, ctx.meter
    manifest = write_desk_inputs(ctx.workdir, ctx.seed, size)
    archive = ctx.workdir / "clips.fgcn"
    setup = lambda: desk_setup(manifest, archive, size)  # noqa: E731
    hp = Hyperparams(batch_size=size.desk_batch, epochs=EPOCHS, seed=0)
    if trace:
        return _trace_desk(ctx, setup, hp)

    samples = Samples()
    clips, train_clips, val_clips, built = _setup_round(meter, samples, setup, 1)
    trained = []

    def round_fn(i: int) -> None:
        model = ThreeStreamModel(desk_config(size), built.norm_adj)
        _train_round(meter, samples, model, train_clips, val_clips, hp)
        half = len(clips) // 2
        preds = _infer_round(meter, samples, model, [c.data for c in clips[:half]])
        _setup_round(meter, samples, setup, size.setups_per_round)
        counts = _eval_round(meter, samples, model, clips)
        preds += _infer_round(meter, samples, model, [c.data for c in clips[half:]])
        _check_argmax(meter, preds, clips, counts)
        _eval_round(meter, samples, model, clips)
        trained[:] = [model]

    _infer_round(meter, Samples(), built, [c.data for c in clips[:WARMUP_CLIPS]])
    _rounds(meter, ctx.seconds, 2, round_fn, samples.enough)
    meter.check("train_loss_falls", samples.history[-1][0] < samples.history[0][0])
    checkpoint = ctx.workdir / "desk.fgcn"
    meter.call(save_model, trained[0], checkpoint)
    _check_roundtrip(meter, trained[0], meter.call(load_model, checkpoint),
                     np.stack([c.data for c in clips[:hp.batch_size]]))
    _check_flops(meter, trained[0], size)
    return samples.metrics(meter)


def infer_coco18(ctx: Context, trace: bool, tcn: str) -> dict[str, float]:
    """Each round serves a chunk of fresh clips one at a time, evaluates
    the evaluation clips in one batch and fine-tunes a reloaded copy of
    the model on the fixed fit set."""
    size, meter = ctx.size, ctx.meter
    rng = np.random.default_rng(ctx.seed)
    t = size.coco_clip_len
    eval_clips = _clip_list(*coco18_clips(rng, size.coco_eval_clips, t))
    fit = _clip_list(*coco18_clips(np.random.default_rng(FIT_SEED),
                                   size.coco_train_clips + size.coco_batch, t))
    checkpoint = ctx.workdir / "model.fgcn"
    setup = lambda: coco_setup(checkpoint, size, tcn)  # noqa: E731
    if trace:
        return _trace_infer(ctx, setup, eval_clips, lambda: coco18_clips(rng, 1, t)[0][0])

    samples = Samples()
    built, model = _setup_round(meter, samples, setup, 1)
    _check_roundtrip(meter, built, model, np.stack([c.data for c in eval_clips[:4]]))
    _check_flops(meter, model, size)
    hp = Hyperparams(batch_size=size.coco_batch, epochs=EPOCHS, seed=0)

    def serve() -> None:
        fresh = coco18_clips(rng, size.coco_infer_chunk // 3, t)[0]
        _infer_round(meter, samples, model, list(fresh))

    def round_fn(i: int) -> None:
        # serving is split in three so its samples spread over the round
        if i == 0:
            preds = _infer_round(meter, samples, model, [c.data for c in eval_clips])
            _check_argmax(meter, preds, eval_clips,
                          meter.call(training.evaluate, model, eval_clips).counts)
        serve()
        _setup_round(meter, samples, setup, size.setups_per_round)
        _eval_round(meter, samples, model, eval_clips)
        serve()
        _train_round(meter, samples, meter.call(load_model, checkpoint),
                     fit[:size.coco_train_clips],
                     fit[size.coco_train_clips:], hp)
        serve()
        _eval_round(meter, samples, model, eval_clips)

    _infer_round(meter, Samples(), model, [c.data for c in eval_clips[:WARMUP_CLIPS]])
    _rounds(meter, ctx.seconds, 2, round_fn, samples.enough)
    return samples.metrics(meter)


# ---------------------------------------------------------------------------
# traced runs


def _traced_setup(meter: Meter, tracer: Tracer, setup):
    """One untraced set-up to warm up, then one traced; returns the traced
    set-up's result with its spans and counters."""
    meter.call(setup)
    tracer.clear()
    with tracer.installed():
        result = meter.call(setup)
    spans, counts = list(tracer.spans), dict(tracer.counts)
    tracer.clear()
    return result, spans, counts


def _alloc_pass(meter: Meter, tracer: Tracer, fn, *args) -> dict:
    """Run ``fn(*args)`` with tracemalloc on and the wrappers in
    allocation mode."""
    tracer.clear()
    tracer.alloc = True
    tracemalloc.start()
    try:
        with tracer.installed():
            meter.call(fn, *args)
    finally:
        tracemalloc.stop()
        tracer.alloc = False
    counts = dict(tracer.counts)
    tracer.clear()
    return counts


def _finish_trace(ctx: Context, main_trace, per: float, setup_trace, alloc_counts,
                  model, traced: list[float], untraced: list[float]) -> dict[str, float]:
    """Per-layer metrics from the main phase's spans (``main_trace``),
    divided by ``per``, plus the model's counts and the tracing overhead."""
    metrics = layer_metrics(*main_trace, per, setup_trace[1], setup_trace[2], 1,
                            alloc_counts, _check_flops(ctx.meter, model, ctx.size))
    metrics["model.flops_per_clip"] = ctx.meter.call(count_flops, model)
    metrics["model.params"] = ctx.meter.call(count_parameters, model)
    base = statistics.median(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - base) / base
    return metrics


def _traced_pairs(meter: Meter, seconds: float, run) -> tuple[list[float], list[float]]:
    """Seconds taken by ``run(True)`` (traced) and ``run(False)``, called
    in pairs for about ``seconds``; the order alternates between pairs so
    a drift in machine speed hits both sides alike."""
    traced: list[float] = []
    untraced: list[float] = []

    def pair(i: int) -> None:
        for is_traced in ((True, False) if i % 2 == 0 else (False, True)):
            (traced if is_traced else untraced).append(run(is_traced))

    _rounds(meter, seconds, 1, pair)
    return traced, untraced


def _trace_desk(ctx: Context, setup, hp: Hyperparams) -> dict[str, float]:
    meter, size = ctx.meter, ctx.size
    tracer = Tracer()
    setup_trace = _traced_setup(meter, tracer, setup)
    _, train_clips, val_clips, built = setup_trace[0]
    adjacency = built.norm_adj

    def run_train(traced: bool) -> float:
        model = ThreeStreamModel(desk_config(size), adjacency)
        if not traced:
            return meter.timed(training.train, model, train_clips, val_clips, hp)[0]
        with tracer.installed():
            secs, history = meter.timed(training.train, model, train_clips,
                                   val_clips, hp)
        meter.check("losses_finite", all(np.isfinite(r.train_loss) for r in history))
        return secs

    traced, untraced = _traced_pairs(meter, TRACE_MAIN_SHARE * ctx.seconds, run_train)
    steps = -(-len(train_clips) // hp.batch_size) * hp.epochs * len(traced)
    main_trace = list(tracer.spans), dict(tracer.counts)
    alloc_counts = _alloc_pass(
        meter, tracer, training.train, ThreeStreamModel(desk_config(size), adjacency),
        train_clips[:hp.batch_size], val_clips[:1],
        Hyperparams(batch_size=hp.batch_size, epochs=1, seed=0))
    metrics = _finish_trace(ctx, main_trace, steps, setup_trace, alloc_counts, built,
                            traced, untraced)
    if size == SIZES["full"]:  # tiny shapes are all call overhead
        meter.check("trace_op_coverage", metrics["trace.op_coverage_frac"] >= COVERAGE_FLOOR)
    return metrics


def _serve(model, chunk) -> list:
    return [model.forward(c) for c in chunk]


def _trace_infer(ctx: Context, setup, eval_clips, next_clip) -> dict[str, float]:
    meter = ctx.meter
    tracer = Tracer()
    setup_trace = _traced_setup(meter, tracer, setup)
    model = setup_trace[0][1]
    _infer_round(meter, Samples(), model, [c.data for c in eval_clips[:WARMUP_CLIPS]])

    def run_chunk(is_traced: bool) -> float:
        chunk = [next_clip() for _ in range(TRACE_CHUNK_CLIPS)]
        if not is_traced:
            return meter.timed(_serve, model, chunk)[0]
        with tracer.installed():
            secs, out = meter.timed(_serve, model, chunk)
        meter.check("probabilities_finite_and_normalised",
                    all(np.isfinite(p.data).all() for p in out))
        return secs

    traced, untraced = _traced_pairs(meter, TRACE_MAIN_SHARE * ctx.seconds, run_chunk)
    clips = TRACE_CHUNK_CLIPS * len(traced)
    main_trace = list(tracer.spans), dict(tracer.counts)
    alloc_counts = _alloc_pass(meter, tracer, _serve, model, [c.data for c in eval_clips[:4]])
    return _finish_trace(ctx, main_trace, clips, setup_trace, alloc_counts, model,
                         traced, untraced)


WORKLOADS = {
    "train-desk": train_desk,
    "infer-coco18": lambda ctx, trace: infer_coco18(ctx, trace, "separable"),
    "infer-coco18-dense": lambda ctx, trace: infer_coco18(ctx, trace, "dense"),
}
