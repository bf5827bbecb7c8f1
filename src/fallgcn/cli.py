"""Command-line harness: ingest, train, eval, bench, gradcheck, report.

Each command takes only the flags it reads. ``--config`` (ingest, train,
eval) names a JSON run configuration, see ``fallgcn.config.DEFAULTS`` for
the keys, with flags overriding file values. ``--seed`` (train,
gradcheck) re-seeds all run randomness; ``--out`` (ingest, train, eval)
overrides the output path; ``--format`` (eval, bench, report) switches
between human-readable text and machine-readable JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .benchmark import benchmark_pair, welch_t_test
from .config import ConfigError, apply_seed_override, archive_fields, load_run_config
from .graph import normalized_adjacency
from .layers import (
    DenseTcnLayer,
    GstcnBlock,
    MaskingConfig,
    SepTcnLayer,
    SgcLayer,
)
from .layouts import resolve_layout, ring_layout
from .metrics import ConfusionMatrix, format_report, metrics
from .model import (
    ClassifierHead,
    ModelConfig,
    ThreeStreamModel,
    count_flops,
    load_model,
    save_model,
)
from .skeleton_io import (
    clips_from_sequences,
    load_clip_archive,
    load_sequences,
    read_manifest,
    save_clip_archive,
    split_dataset,
)
from .training import Hyperparams, evaluate, train, write_history

GRADCHECK_TOLERANCE = 1e-4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    manifest_path = args.manifest or cfg["data"]["manifest"]
    if manifest_path is None:
        return _fail("ingest: no manifest given (flag --manifest or config data.manifest)")
    layout = resolve_layout(args.layout or cfg["data"]["layout"])
    out_path = args.out or cfg["out"]["archive"]
    clip_len = cfg["data"]["clip_len"]
    stride = cfg["data"]["stride"]

    manifest = read_manifest(manifest_path, layout.name)
    sequences = load_sequences(manifest, layout)
    clips = clips_from_sequences(sequences, layout, clip_len, stride)
    save_clip_archive(out_path, clips, manifest.class_names, layout, stride=stride)
    print(f"wrote {len(clips)} clips to {out_path} (clip_len={clip_len}, stride={stride})")
    for label, name in enumerate(manifest.class_names):
        n_clips = sum(clip.label == label for clip in clips)
        dropped = sum(int((~seq.valid).sum()) for seq in sequences if seq.label == label)
        print(f"  {name}: {n_clips} clips, {dropped} invalid frames dropped")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        apply_seed_override(cfg, args.seed)
    hp = Hyperparams(**cfg["train"])
    masking = MaskingConfig(**cfg["masking"])
    archive_path = args.archive or cfg["data"]["archive"]
    if archive_path is None:
        return _fail("train: no clip archive given (flag --archive or config data.archive)")
    clips, class_names, layout, _ = load_clip_archive(archive_path)
    train_clips, val_clips = split_dataset(
        clips, cfg["data"]["train_fraction"], cfg["data"]["split_seed"]
    )
    model_cfg = ModelConfig(**cfg["model"], masking=masking,
                            **archive_fields(clips, class_names, layout))
    model = ThreeStreamModel(model_cfg, normalized_adjacency(layout))
    history = train(model, train_clips, val_clips, hp)
    ckpt_path = args.out or cfg["out"]["checkpoint"]
    save_model(model, ckpt_path)
    write_history(cfg["out"]["history"], history)
    final = history[-1].val_accuracy if history else float("nan")
    print(f"trained {hp.epochs} epochs on {len(train_clips)} clips "
          f"({len(val_clips)} validation)")
    print(f"final val accuracy: {final:.2f}%")
    print(f"checkpoint: {ckpt_path}")
    print(f"history: {cfg['out']['history']}")
    return 0


# ---------------------------------------------------------------------------
# eval / report


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    model = load_model(args.checkpoint)
    clips, class_names, layout, _ = load_clip_archive(args.archive)
    problems = [
        f"{name} {getattr(model.config, name)!r} vs archive {value!r}"
        for name, value in archive_fields(clips, class_names, layout).items()
        if getattr(model.config, name) != value
    ]
    if model.norm_adj.tobytes() != normalized_adjacency(layout).tobytes():
        problems.append("adjacency differs from the archive layout's")
    if problems:
        return _fail("eval: checkpoint does not match archive: " + "; ".join(problems))
    cm = evaluate(model, clips, class_names=class_names)
    report = metrics(cm)
    out_path = args.out or cfg["out"]["report"]
    payload = {
        "class_names": class_names,
        "confusion": cm.counts.tolist(),
        "report": report.as_dict(),
    }
    Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(format_report(report, args.format))
    print(f"report written to {out_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.metrics).read_text())
        report = metrics(ConfusionMatrix(counts=payload["confusion"],
                                         class_names=payload["class_names"]))
    except (OSError, KeyError, ValueError) as exc:
        return _fail(f"report: unreadable metrics file {args.metrics}: {exc}")
    print(format_report(report, args.format))
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args: argparse.Namespace) -> int:
    model = load_model(args.checkpoint)
    other_cfg = dataclasses.replace(
        model.config,
        tcn="dense" if model.config.tcn == "separable" else "separable",
    )
    other = ThreeStreamModel(other_cfg, model.norm_adj)
    sep_model = model if model.config.tcn == "separable" else other
    dense_model = other if model.config.tcn == "separable" else model
    sep_lat, dense_lat = benchmark_pair(
        sep_model, dense_model, n_warmup=args.warmup, n_samples=args.samples
    )
    t_stat, df = welch_t_test(sep_lat.times_ms, dense_lat.times_ms)
    sep_flops = count_flops(sep_model)
    dense_flops = count_flops(dense_model)
    if args.format == "machine":
        print(json.dumps({
            "separable": {"mean_ms": sep_lat.mean, "std_ms": sep_lat.std,
                          "flops": sep_flops},
            "dense": {"mean_ms": dense_lat.mean, "std_ms": dense_lat.std,
                      "flops": dense_flops},
            "welch_t": t_stat,
            "welch_df": df,
            "n_samples": args.samples,
        }, indent=2, sort_keys=True))
    else:
        print(f"{'Variant':<12}{'Mean [ms]':>12}{'Std [ms]':>12}{'FLOPs/clip':>14}")
        print(f"{'separable':<12}{sep_lat.mean:>12.3f}{sep_lat.std:>12.3f}{sep_flops:>14}")
        print(f"{'dense':<12}{dense_lat.mean:>12.3f}{dense_lat.std:>12.3f}{dense_flops:>14}")
        print(f"Welch t = {t_stat:.3f}, df = {df:.1f} ({args.samples} samples/variant)")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_modules(seed: int) -> list[tuple[str, float]]:
    """Finite-difference check per layer type plus the full tiny model."""
    rng = np.random.default_rng(seed)
    v, t, dims = 5, 8, 2
    ring = ring_layout(v)
    norm_adj = normalized_adjacency(ring)
    x = Tensor(rng.normal(0.0, 1.0, (2, dims, t, v)))
    # built in this order so that each layer's initial weights stay the same
    sgc = SgcLayer(dims, 4, norm_adj, rng)
    xc = Tensor(rng.normal(0.0, 1.0, (2, 4, t, v)))
    layers = [("sgc", sgc, x), ("sep_tcn", SepTcnLayer(4, 4, rng), xc),
              ("dense_tcn", DenseTcnLayer(4, 4, rng), xc),
              ("gstcn_block", GstcnBlock(dims, 4, norm_adj, rng), x)]
    results = [(name, grad_check(lambda: ad.sum_all(layer.forward(inp)), layer.param_tensors()))
               for name, layer, inp in layers]
    feats = Tensor(rng.normal(0.0, 1.0, (3, 6)))
    head = ClassifierHead(6, 8, 2, dropout_rate=0.0, rng=rng)
    labels = np.array([0, 1, 0])
    results.append((
        "classifier_head",
        grad_check(lambda: ad.cross_entropy(head.forward(feats), labels), head.param_tensors()),
    ))
    tiny = ModelConfig(
        dims=dims, clip_len=t, joint_count=v, num_classes=2, channels=(8, 16),
        head_hidden=16, dropout=0.0, masking=MaskingConfig(0.0, 0.0),
        layout_name=ring.name,
    )
    model = ThreeStreamModel(tiny, norm_adj)
    clip = Tensor(rng.normal(0.0, 1.0, (2, dims, t, v)))
    clip_labels = np.array([0, 1])
    results.append((
        "three_stream_model",
        grad_check(
            lambda: ad.cross_entropy(model.forward(clip, training=False), clip_labels),
            model.param_tensors(),
        ),
    ))
    return results


def cmd_gradcheck(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    failed = False
    for name, err in _gradcheck_modules(seed):
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        if err >= GRADCHECK_TOLERANCE:
            failed = True
        print(f"{name:<20} max relative error {err:.3e}  {status}")
    if failed:
        return _fail(f"gradcheck: at least one module at or above {GRADCHECK_TOLERANCE}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fallgcn",
        description="Skeleton-based fall detection: three-stream GSTCN pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "config": dict(help="JSON run configuration file"),
        "seed": dict(type=int, help="override all run seeds"),
        "out": dict(help="override the command's output path"),
        "format": dict(choices=("text", "machine"), default="text"),
    }

    def command(name: str, func, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command("ingest", cmd_ingest, "manifest -> filtered, windowed, normalized clips",
                "config", "out")
    p.add_argument("--manifest", help="CSV manifest (path,label,id)")
    p.add_argument("--layout", help="builtin layout name or .layout file")

    p = command("train", cmd_train, "train on an ingested clip archive", "config", "seed", "out")
    p.add_argument("--archive", help="clip archive from ingest")

    p = command("eval", cmd_eval, "evaluate a checkpoint on a clip archive",
                "config", "out", "format")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--archive", required=True)

    p = command("bench", cmd_bench, "latency of separable vs dense variants", "format")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)

    command("gradcheck", cmd_gradcheck, "finite-difference check of every module", "seed")

    p = command("report", cmd_report, "re-render a saved metrics file", "format")
    p.add_argument("--metrics", required=True, help="JSON report from eval")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
