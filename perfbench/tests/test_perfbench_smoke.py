"""Smoke tests of the benchmark: every workload at tiny size, traced and
untraced, emits exactly the metrics BENCHMARK.json lists, with their
units, and passes its correctness checks."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["train-desk", "infer-coco18", "infer-coco18-dense"]
END_TO_END = ["setup_s", "train_clips_per_s", "train_loss_end", "eval_clips_per_s",
              "infer_ms_p50", "infer_ms_p90", "peak_rss_mb"]
OPS = ["depthwise_tconv", "dense_tconv", "pointwise_conv", "spatial_aggregate",
       "max_pool_frames", "add", "relu", "bias_add", "global_avg_pool", "scale"]
CONV_OPS = OPS[:4]
ALLOC_OPS = ["depthwise_tconv", "dense_tconv", "pointwise_conv", "max_pool_frames"]
PER_LAYER = (
    [f"autodiff.{op}.{s}" for op in OPS for s in ("fwd_ms", "bwd_ms", "calls")]
    + [f"autodiff.{op}.gflop_per_s" for op in CONV_OPS]
    + [f"autodiff.{op}.alloc_mb" for op in ALLOC_OPS]
    + ["autodiff.tape.records", "autodiff.tape.accumulate_ms"]
    + [f"layers.{c}.self_ms" for c in ("SgcLayer", "SepTcnLayer", "DenseTcnLayer",
                                       "GstcnBlock", "apply_masking")]
    + ["layers.apply_masking.kept_frac", "model.forward_ms", "model.compute_motion_ms",
       "model.head_ms", "model.flops_per_clip", "model.params", "model.gflop_per_s"]
    + [f"training.{n}_ms" for n in ("forward", "backward", "evaluate", "other")]
    + ["optim.sgd_step_ms"]
    + [f"skeleton_io.{n}_ms" for n in ("load_sequences", "window_normalize",
                                      "save_clip_archive", "load_clip_archive")]
    + ["skeleton_io.clips", "checkpoint.save_arrays_ms", "checkpoint.load_arrays_ms",
       "checkpoint.bytes", "trace.op_coverage_frac", "trace.overhead_pct"]
)
ENV_KEYS = {"blas_threads", "nproc", "numpy", "python", "git_sha", "load_avg_start", "seed"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_lists_the_named_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    env = json.loads(lines[0])["environment"]
    assert ENV_KEYS <= set(env) and env["blas_threads_requested"] == 1
    record = json.loads(out.read_text())
    assert record["result"] == result and all(record["checks"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "train-desk", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload,module,function", [
    ("train-desk", "skeleton_io", "write_sequences"),  # called outside Meter.call
    ("infer-coco18", "model", "load_model"),
])
def test_program_error_is_reported_as_failed(workload, module, function, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "fallgcn" / f"{module}.py", "a") as source:
        source.write(f"\n\ndef {function}(*args, **kwargs):\n"
                     f"    raise RuntimeError('injected fault')\n")
    done = run_bench(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--size", "tiny")
    assert done.returncode != 0
    assert "injected fault" in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_verdicts():
    base = {s: 10.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, "lower", 0.2) == "better"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "lower", 0.2) == "worse"
    assert compare.verdict(base, dict(base), "lower", 0.2) == "unchanged"
    wide = {s: 10.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(wide, dict(wide), "lower", 0.2) == "unresolved"
    assert compare.verdict(base, dict(base), "higher", None) == "unresolved"
    flat = {s: 5.0 for s in range(10)}
    assert compare.verdict(flat, dict(flat), "lower", None) == "unchanged"
    # every new run beats every base run, but by less than the base's
    # quartile distance: no gain can be claimed, only that it is no worse
    ranks = {s: float(s + 1) for s in range(10)}
    assert compare.verdict(ranks, {s: 10.1 for s in range(10)}, "higher", 0.2) == "not worse"
    # the worsening is the median of per-seed shares, not a ratio of medians
    drift = {s: v * (1.3 if s % 2 else 0.8) for s, v in base.items()}
    assert compare.paired_worsening(base, drift, "lower") == pytest.approx(0.05)
    slower = {s: v * 1.1 for s, v in base.items()}
    assert compare.paired_worsening(base, slower, "lower") == pytest.approx(0.1)
    assert compare.verdict(base, slower, "lower", 0.2) == "unchanged"
    with pytest.raises(ValueError):
        compare.verdict(base, {s + 100: v for s, v in base.items()}, "lower", 0.2)
