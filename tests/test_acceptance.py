"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line once its assertions hold; the heavy
end-to-end runs share module-scoped fixtures. Criterion 6/7 training is
desk-scale (400/100 synthetic clips) and the slowest part of the suite.
"""
import json
import time

import numpy as np
import pytest

from conftest import random_layout, ring_adjacency, tiny_model_config
from fallgcn import autodiff as ad
from fallgcn.autodiff import Tensor
from fallgcn.benchmark import benchmark_pair, welch_t_test
from fallgcn.cli import _gradcheck_modules, main
from fallgcn.graph import normalized_adjacency
from fallgcn.layers import MaskingConfig, SepTcnLayer, SgcLayer, septcn_flops
from fallgcn.layouts import builtin_layout
from fallgcn.metrics import ConfusionMatrix, metrics
from fallgcn.model import (
    ModelConfig,
    ThreeStreamModel,
    compute_motion,
    count_flops,
    count_parameters,
    save_model,
)
from fallgcn.synthetic import make_dataset
from fallgcn.training import Hyperparams, evaluate, train

ACCURACY_BAR = 95.0
MASKING_BAND = 5.0


def _accuracy(cm) -> float:
    return 100.0 * float(np.trace(cm.counts)) / cm.total


def synth_model_config(**overrides) -> ModelConfig:
    base = dict(
        dims=2, clip_len=32, joint_count=9, num_classes=2,
        masking=MaskingConfig(0.0, 0.0), layout_name="stick9",
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def stick9_adjacency():
    return normalized_adjacency(builtin_layout("stick9"))


@pytest.fixture(scope="module")
def synthetic_splits():
    train_clips, test_clips = make_dataset(n_per_class=250, seed=0)
    assert len(train_clips) == 400 and len(test_clips) == 100
    return train_clips, test_clips


@pytest.fixture(scope="module")
def main_run(synthetic_splits, stick9_adjacency):
    """Criterion 6 main training run (shared with criterion 7's band)."""
    train_clips, test_clips = synthetic_splits
    model = ThreeStreamModel(synth_model_config(), stick9_adjacency)
    hp = Hyperparams(epochs=12, seed=0)
    start = time.perf_counter()
    history = train(model, train_clips, test_clips, hp)
    elapsed = time.perf_counter() - start
    return model, history, elapsed


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    results = _gradcheck_modules(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(err for _, err in results)
    for name, err in results:
        assert err < 1e-4, f"{name}: {err:.3e}"
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: gradients vs finite differences, "
          f"worst {worst:.2e} < 1e-4 in {elapsed:.1f}s")


def test_criterion_2_sgc_brute_force_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_joints=6)
        norm_adj = normalized_adjacency(layout)
        neighbors = [np.flatnonzero(row) for row in norm_adj > 0]
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t_len = int(rng.integers(1, 5))
        layer = SgcLayer(c_in, c_out, norm_adj, rng)
        layer.mask.data = rng.uniform(0.5, 1.5, layer.mask.shape)
        x = rng.normal(size=(c_in, t_len, layout.joint_count))
        got = layer.forward(Tensor(x[None])).data[0]
        want = np.zeros_like(got)
        for t in range(t_len):
            embedded = [x[:, t, j] @ layer.weight.data for j in range(layout.joint_count)]
            for i in range(layout.joint_count):
                for j in neighbors[i]:
                    want[:, t, i] += norm_adj[i, j] * layer.mask.data[i, j] * embedded[j]
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 2 PASS: SGC equals per-node double loop on 50 "
          f"random graphs, worst |diff| {worst:.2e} < 1e-10")


def test_criterion_3_septcn_equivalence_and_efficiency():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 5))
        layer = SepTcnLayer(c, c, rng)
        x = Tensor(rng.normal(size=(1, c, 6, 4)))
        k_dense = np.einsum("ci,co->oci", layer.depthwise.data, layer.pointwise.data)
        dense = ad.bias_add(ad.dense_tconv(x, Tensor(k_dense)), layer.bias).data
        worst = max(worst, float(np.abs(layer.forward(x).data - dense).max()))
    assert worst < 1e-10
    sep, dense_count = septcn_flops(64, 64, 1, 1, 3)
    assert (sep, dense_count) == (4288, 12288)
    reduction = dense_count / sep
    assert reduction == pytest.approx(2.87, abs=0.01)
    sep_model = ThreeStreamModel(ModelConfig(), np.eye(18))
    dense_model = ThreeStreamModel(ModelConfig(tcn="dense"), np.eye(18))
    p_sep, p_dense = count_parameters(sep_model), count_parameters(dense_model)
    assert p_sep < p_dense
    print(f"\nACCEPTANCE 3 PASS: Sep-TCN == rank-constrained dense "
          f"(worst {worst:.2e} < 1e-10); 4288 vs 12288 multiplies "
          f"({reduction:.2f}x); params {p_sep} < {p_dense}")


def test_criterion_4_motion_stream():
    for seed in range(20):
        clip = np.random.default_rng(seed).normal(size=(2, 32, 9))
        motion = compute_motion(clip)
        rebuilt = clip[:, 0:1, :] + np.cumsum(motion, axis=1)
        assert np.abs(rebuilt - clip).max() < 1e-12
    static = np.repeat(np.random.default_rng(99).normal(size=(2, 1, 9)), 16, axis=1)
    assert np.array_equal(compute_motion(static), np.zeros_like(static))
    print("\nACCEPTANCE 4 PASS: motion telescopes back to the clip "
          "(< 1e-12) and is exactly zero for static clips")


def test_criterion_5_metrics_reproduce_published_arithmetic():
    cm = ConfusionMatrix(counts=np.array([[13, 2], [0, 220]]),
                         class_names=["fall", "nonfall"])
    rep = metrics(cm)
    fall = rep.per_class[0]
    assert fall.precision == pytest.approx(100.0, abs=0.005)
    assert fall.sensitivity == pytest.approx(86.67, abs=0.005)
    assert fall.f1 == pytest.approx(92.86, abs=0.005)
    assert rep.macro_f1 == pytest.approx(96.2, abs=0.05)
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        counts = rng.integers(0, 50, size=(k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        rep = metrics(ConfusionMatrix(counts=counts))
        total = counts.sum()
        assert rep.accuracy == pytest.approx(100.0 * np.trace(counts) / total)
        for i, cls in enumerate(rep.per_class):
            tp = counts[i, i]
            fp = counts[:, i].sum() - tp
            fn = counts[i, :].sum() - tp
            if tp + fp:
                assert cls.precision == pytest.approx(100.0 * tp / (tp + fp))
            if tp + fn:
                assert cls.sensitivity == pytest.approx(100.0 * tp / (tp + fn))
            if tp + fp + fn:
                assert cls.f1 == pytest.approx(100.0 * tp / (tp + (fp + fn) / 2))
    print("\nACCEPTANCE 5 PASS: published rows reproduced "
          "(100/86.67 -> 92.86; macro -> 96.2 +/- 0.05); formulas match "
          "independent recount on 100 random matrices")


def test_criterion_6_desk_scale_learning(main_run, synthetic_splits, stick9_adjacency):
    model, history, elapsed = main_run
    best = max(h.val_accuracy for h in history)
    assert len(history) <= 30
    assert best >= ACCURACY_BAR, f"best accuracy {best:.1f}% below bar"
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"

    train_clips, test_clips = synthetic_splits
    three_stream, joint_only = [], []
    for seed in range(5):
        hp = Hyperparams(epochs=4, seed=seed)
        full = ThreeStreamModel(synth_model_config(init_seed=seed), stick9_adjacency)
        hist_full = train(full, train_clips, test_clips, hp)
        three_stream.append(hist_full[-1].val_accuracy)
        single = ThreeStreamModel(
            synth_model_config(init_seed=seed, streams=("joint",)), stick9_adjacency)
        hist_single = train(single, train_clips, test_clips, hp)
        joint_only.append(hist_single[-1].val_accuracy)
    mean_full = float(np.mean(three_stream))
    mean_single = float(np.mean(joint_only))
    assert mean_single <= mean_full + 1.0, (
        f"joint-only {mean_single:.2f}% beats three-stream {mean_full:.2f}% "
        f"by more than 1 point"
    )
    print(f"\nACCEPTANCE 6 PASS: {best:.1f}% test accuracy within "
          f"{len(history)} epochs in {elapsed:.0f}s; fusion sanity "
          f"three-stream {mean_full:.2f}% vs joint-only {mean_single:.2f}% "
          f"over 5 seeds")


def test_criterion_7_masking_contract(main_run, synthetic_splits, stick9_adjacency):
    # evaluation mode bit-identical to p = 0
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 2, 32, 9)))
    with_mask = ThreeStreamModel(
        synth_model_config(masking=MaskingConfig(0.1, 0.1)), stick9_adjacency)
    without = ThreeStreamModel(synth_model_config(), stick9_adjacency)
    out_a = with_mask.forward(x, training=False).data
    out_b = without.forward(x, training=False).data
    assert np.array_equal(out_a, out_b)

    # masked training stays within the band below the criterion-6 bar
    train_clips, test_clips = synthetic_splits
    _, history, _ = main_run
    unmasked_best = max(h.val_accuracy for h in history)
    masked_model = ThreeStreamModel(
        synth_model_config(masking=MaskingConfig(0.1, 0.1)), stick9_adjacency)
    masked_hist = train(masked_model, train_clips, test_clips,
                        Hyperparams(epochs=12, seed=0))
    masked_best = max(h.val_accuracy for h in masked_hist)
    assert masked_best >= ACCURACY_BAR - MASKING_BAND
    assert masked_best >= unmasked_best - MASKING_BAND
    print(f"\nACCEPTANCE 7 PASS: eval mode bit-identical to p=0; masked "
          f"training reaches {masked_best:.1f}% (unmasked {unmasked_best:.1f}%, "
          f"band {MASKING_BAND} points)")


def test_criterion_8_benchmark_methodology(tmp_path, capsys):
    sep = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    dense = ThreeStreamModel(tiny_model_config(tcn="dense"), ring_adjacency(5))
    sep_lat, dense_lat = benchmark_pair(sep, dense, n_warmup=3, n_samples=30)
    t_stat, df = welch_t_test(sep_lat.times_ms, dense_lat.times_ms)
    assert np.isfinite(t_stat) and df > 0
    flops_sep, flops_dense = count_flops(sep), count_flops(dense)
    assert flops_sep < flops_dense
    ckpt = tmp_path / "bench.fgcn"
    save_model(sep, ckpt)
    assert main(["bench", "--checkpoint", str(ckpt), "--samples", "30",
                 "--warmup", "3", "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for variant in ("separable", "dense"):
        assert "mean_ms" in payload[variant] and "std_ms" in payload[variant]
    assert "welch_t" in payload
    ordering = "separable faster" if sep_lat.mean < dense_lat.mean else "dense faster"
    print(f"\nACCEPTANCE 8 PASS: bench emits mean/std/t (t={t_stat:.2f}, "
          f"df={df:.1f}); FLOPs {flops_sep} < {flops_dense}; observed "
          f"timing: {ordering} ({sep_lat.mean:.2f} vs {dense_lat.mean:.2f} ms, "
          f"reported not asserted)")


def test_criterion_9_determinism(tmp_path, capsys):
    # train: two runs, identical history and checkpoint bytes
    clips_train, clips_val = make_dataset(n_per_class=20, seed=3, clip_len=16)
    adj = normalized_adjacency(builtin_layout("stick9"))
    cfg = synth_model_config(clip_len=16, channels=(8, 16), head_hidden=16)
    hp = Hyperparams(learning_rate=0.02, batch_size=8, epochs=2, seed=5)
    snapshots = []
    for run in range(2):
        model = ThreeStreamModel(cfg, adj)
        history = train(model, clips_train, clips_val, hp)
        path = tmp_path / f"run{run}.fgcn"
        save_model(model, path)
        snapshots.append((
            [(h.train_loss, h.val_accuracy) for h in history],
            path.read_bytes(),
        ))
        cm_a = evaluate(model, clips_val)
        cm_b = evaluate(model, clips_val)
        assert np.array_equal(cm_a.counts, cm_b.counts)
    assert snapshots[0][0] == snapshots[1][0]
    assert snapshots[0][1] == snapshots[1][1]

    # ingest: byte-identical archives via the CLI
    from fallgcn.skeleton_io import ManifestEntry, write_manifest, write_sequences
    from fallgcn.synthetic import CLASS_NAMES, generate_sequences

    sequences = generate_sequences(6, seed=1, length_range=(16, 20), invalid_rate=0.1)
    seq_path = tmp_path / "seqs.jsonl"
    write_sequences(seq_path, sequences, CLASS_NAMES)
    write_manifest(tmp_path / "m.csv", [
        ManifestEntry(seq_path, CLASS_NAMES[s.label], s.id) for s in sequences
    ])
    run_cfg = {
        "data": {"layout": "stick9", "manifest": str(tmp_path / "m.csv"),
                 "clip_len": 16, "stride": 16},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(run_cfg))
    archives = []
    for run in range(2):
        out = tmp_path / f"clips{run}.fgcn"
        assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 0
        archives.append(out.read_bytes())
    capsys.readouterr()
    assert archives[0] == archives[1]
    print("\nACCEPTANCE 9 PASS: train, eval, and ingest bit-reproducible "
          "across two identically-seeded runs")
