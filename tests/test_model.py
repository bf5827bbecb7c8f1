"""Three-stream model: motion op, forward contract, classifier head,
parameter/FLOP accounting, and checkpointing."""
import hashlib

import numpy as np
import pytest

from conftest import ring_adjacency, tiny_model_config
from fallgcn import autodiff as ad
from fallgcn.autodiff import Tensor, grad_check
from fallgcn.checkpoint import CheckpointError
from fallgcn.model import (
    ClassifierHead,
    ModelConfig,
    ThreeStreamModel,
    compute_motion,
    count_flops,
    count_parameters,
    load_model,
    save_model,
)


# --- motion ----------------------------------------------------------------


def test_motion_static_clip_is_zero():
    clip = np.repeat(np.arange(10.0).reshape(2, 1, 5), 6, axis=1)
    assert np.array_equal(compute_motion(clip), np.zeros_like(clip))


def test_motion_sequence_arithmetic():
    clip = np.zeros((1, 3, 1))
    clip[0, :, 0] = [0.0, 0.1, 0.2]
    motion = compute_motion(clip)
    assert np.allclose(motion[0, :, 0], [0.0, 0.1, 0.1])


def test_motion_applies_to_every_coordinate_including_z():
    rng = np.random.default_rng(0)
    clip = rng.normal(size=(3, 7, 4))
    motion = compute_motion(clip)
    for d in range(3):
        assert np.allclose(motion[d, 1:], np.diff(clip[d], axis=0))


def test_motion_telescoping_reconstruction():
    rng = np.random.default_rng(1)
    for seed in range(10):
        clip = np.random.default_rng(seed).normal(size=(2, 16, 9))
        motion = compute_motion(clip)
        rebuilt = clip[:, 0:1, :] + np.cumsum(motion, axis=1)
        assert np.abs(rebuilt - clip).max() < 1e-12
    _ = rng


def test_motion_needs_two_frames():
    with pytest.raises(ValueError, match="2 frames"):
        compute_motion(np.zeros((2, 1, 5)))


# --- forward ---------------------------------------------------------------


def test_forward_probabilities_sum_to_one(tiny_model):
    rng = np.random.default_rng(2)
    for _ in range(5):
        probs = tiny_model.forward(rng.normal(size=(2, 8, 5)))
        assert probs.shape == (2,)
        assert abs(probs.data.sum() - 1.0) < 1e-9
    batch = tiny_model.forward(rng.normal(size=(7, 2, 8, 5)))
    assert batch.shape == (7, 2)
    assert np.allclose(batch.data.sum(axis=1), 1.0, atol=1e-9)


def test_forward_zero_clip_still_valid_distribution(tiny_model):
    probs = tiny_model.forward(np.zeros((2, 8, 5)))
    assert np.isfinite(probs.data).all()
    assert abs(probs.data.sum() - 1.0) < 1e-9


def test_forward_rejects_wrong_shape(tiny_model):
    with pytest.raises(ValueError, match="clip shape"):
        tiny_model.forward(np.zeros((2, 8, 6)))


def test_batch_permutation_permutes_outputs(tiny_model):
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(6, 2, 8, 5))
    out = tiny_model.forward(batch).data
    perm = rng.permutation(6)
    out_perm = tiny_model.forward(batch[perm]).data
    assert np.allclose(out_perm, out[perm], atol=1e-12)


def test_eval_forward_deterministic(tiny_model):
    rng = np.random.default_rng(4)
    clip = rng.normal(size=(2, 8, 5))
    a = tiny_model.forward(clip, training=False).data
    b = tiny_model.forward(clip, training=False).data
    assert np.array_equal(a, b)


def test_zeroing_any_stream_changes_the_distribution():
    # the pooled stream features are concatenated in config order before
    # head.fc1, so zeroing one stream's rows of fc1.weight ablates it
    changed = {name: 0 for name in ("joint", "motion", "skip")}
    for seed in range(20):
        cfg = tiny_model_config(init_seed=seed)
        model = ThreeStreamModel(cfg, ring_adjacency(5))
        clip = np.random.default_rng(1000 + seed).normal(size=(2, 8, 5))
        base = model.forward(clip).data
        weight = model.head.fc1.weight.data
        width = cfg.channels[1]
        for i, name in enumerate(cfg.streams):
            rows = slice(i * width, (i + 1) * width)
            kept = weight[rows].copy()
            weight[rows] = 0.0
            ablated = model.forward(clip).data
            weight[rows] = kept
            kl = float(np.sum(base * (np.log(base) - np.log(ablated))))
            if kl > 0:
                changed[name] += 1
    for name, hits in changed.items():
        assert hits >= 19, f"stream {name} inert in {20 - hits} of 20 seeds"


# --- classifier head -------------------------------------------------------


def test_training_forward_without_rng_raises(tiny_model):
    clip = np.random.default_rng(4).normal(size=(2, 2, 8, 5))
    with pytest.raises(ValueError, match="rng"):
        tiny_model.forward(clip, training=True)


def test_head_zero_final_layer_gives_uniform():
    rng = np.random.default_rng(5)
    head = ClassifierHead(6, 8, 4, dropout_rate=0.0, rng=rng)
    head.fc2.weight.data = np.zeros((8, 4))
    head.fc2.bias.data = np.zeros(4)
    probs = head.forward(Tensor(rng.normal(size=(3, 6))))
    assert np.allclose(probs.data, 0.25, atol=1e-12)


def test_head_eval_mode_reproducible():
    rng = np.random.default_rng(6)
    head = ClassifierHead(5, 8, 3, dropout_rate=0.5, rng=rng)
    x = Tensor(rng.normal(size=(2, 5)))
    assert np.array_equal(head.forward(x).data, head.forward(x).data)


def test_head_training_dropout_reproducible_with_seed():
    rng = np.random.default_rng(7)
    head = ClassifierHead(5, 8, 3, dropout_rate=0.5, rng=rng)
    x = Tensor(rng.normal(size=(2, 5)))
    a = head.forward(x, training=True, rng=np.random.default_rng(11)).data
    b = head.forward(x, training=True, rng=np.random.default_rng(11)).data
    c = head.forward(x, training=True, rng=np.random.default_rng(12)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- accounting ------------------------------------------------------------


def _param_count_formula(cfg: ModelConfig, v: int) -> int:
    c_in, (c1, c2) = cfg.dims, cfg.channels

    def block(ci, co):
        n = ci * co + v * v          # sgc weight + mask
        if cfg.tcn == "separable":
            n += co * cfg.kernel_t + co * co + co
        else:
            n += co * co * cfg.kernel_t + co
        if ci != co:
            n += ci * co
        return n

    total = 0
    if "joint" in cfg.streams:
        total += block(c_in, c1) + block(c1, c2)
    if "motion" in cfg.streams:
        total += block(c_in, c1) + block(c1, c2)
    if "skip" in cfg.streams:
        total += c_in * c2
    feat = len(cfg.streams) * c2
    total += feat * cfg.head_hidden + cfg.head_hidden  # fc1
    total += 2 * cfg.head_hidden                       # layer norm
    total += cfg.head_hidden * cfg.num_classes + cfg.num_classes
    return total


def test_count_parameters_matches_closed_form(tiny_model):
    assert count_parameters(tiny_model) == _param_count_formula(tiny_model.config, 5)


def test_separable_model_has_fewer_parameters_than_dense():
    sep = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    dense = ThreeStreamModel(tiny_model_config(tcn="dense"), ring_adjacency(5))
    assert count_parameters(sep) < count_parameters(dense)


def test_doubling_channels_changes_count_by_predicted_delta():
    v = 5
    small = tiny_model_config()
    big = tiny_model_config(channels=(16, 16))
    m_small = ThreeStreamModel(small, ring_adjacency(v))
    m_big = ThreeStreamModel(big, ring_adjacency(v))
    delta = _param_count_formula(big, v) - _param_count_formula(small, v)
    assert count_parameters(m_big) - count_parameters(m_small) == delta


@pytest.mark.parametrize("overrides", [
    {},
    {"streams": ("skip",)},
    {"streams": ("joint", "motion")},
    {"kernel_t": 5},
    {"tcn": "dense"},
], ids=["default", "skip-only", "joint-motion", "kernel5", "dense"])
def test_count_flops_closed_form_and_scaling(overrides):
    cfg = tiny_model_config(**overrides)
    t, v = cfg.clip_len, cfg.joint_count
    c1, c2 = cfg.channels

    def block_flops(ci, co):
        total = t * v * ci * co + t * v * v * co  # SGC embed, aggregate
        if cfg.tcn == "separable":
            total += (cfg.kernel_t * co + co * co) * t * v
        else:
            total += cfg.kernel_t * co * co * t * v
        if ci != co:
            total += t * v * ci * co
        return total

    gstcn_streams = len({"joint", "motion"} & set(cfg.streams))
    head = len(cfg.streams) * c2 * cfg.head_hidden + cfg.head_hidden * cfg.num_classes
    expected = gstcn_streams * (block_flops(cfg.dims, c1) + block_flops(c1, c2)) + head
    if "skip" in cfg.streams:
        expected += t * v * cfg.dims * c2
    model = ThreeStreamModel(cfg, ring_adjacency(v))
    assert count_flops(model) == expected

    # doubling T doubles every count but the head's
    doubled = ThreeStreamModel(tiny_model_config(**overrides, clip_len=2 * t), ring_adjacency(v))
    assert count_flops(doubled) - head == 2 * (count_flops(model) - head)


def test_separable_model_flops_below_dense():
    sep = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    dense = ThreeStreamModel(tiny_model_config(tcn="dense"), ring_adjacency(5))
    assert count_flops(sep) < count_flops(dense)
    # the full-size coco18 models give the paper model's counts
    adj = np.eye(18)
    assert count_flops(ThreeStreamModel(ModelConfig(), adj)) == 95_133_824
    assert count_flops(ThreeStreamModel(ModelConfig(tcn="dense"), adj)) == 188_178_560


# --- end-to-end gradients --------------------------------------------------


def test_full_model_gradcheck_tiny_config(tiny_model):
    rng = np.random.default_rng(8)
    clip = Tensor(rng.normal(size=(2, 2, 8, 5)))
    labels = np.array([0, 1])
    err = grad_check(
        lambda: ad.cross_entropy(tiny_model.forward(clip), labels),
        tiny_model.param_tensors(),
    )
    assert err < 1e-4


def test_translation_invariance_through_normalization(tiny_model):
    # constant offsets on raw coordinates vanish in normalize_clip, so
    # the model output is unchanged; invariance lives in the pipeline,
    # not the network
    from fallgcn.layouts import ring_layout
    from fallgcn.skeleton_io import SkeletonClip, normalize_clip

    layout = ring_layout(5)
    rng = np.random.default_rng(10)
    raw = rng.normal(size=(2, 8, 5))
    shifted = raw + np.array([3.7, -1.2])[:, None, None]
    out_a = tiny_model.forward(
        normalize_clip(SkeletonClip(data=raw, label=0), layout).data).data
    out_b = tiny_model.forward(
        normalize_clip(SkeletonClip(data=shifted, label=0), layout).data).data
    assert np.abs(out_a - out_b).max() < 1e-9


def test_concurrent_inference_matches_serial(tiny_model):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(11)
    clips = [rng.normal(size=(2, 8, 5)) for _ in range(8)]
    serial = [tiny_model.forward(c).data for c in clips]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda c: tiny_model.forward(c).data, clips))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


# --- persistence -----------------------------------------------------------


_BLOCK_RECORDS = ("sgc.weight", "sgc.mask", "tcn.depthwise", "tcn.pointwise", "tcn.bias", "proj")
_DENSE_BLOCK_RECORDS = ("sgc.weight", "sgc.mask", "tcn.kernel", "tcn.bias", "proj")
_HEAD_RECORDS = ["head.fc1.weight", "head.fc1.bias", "head.ln_gamma", "head.ln_beta",
                 "head.fc2.weight", "head.fc2.bias"]


def _stream_records(*streams: str, records=_BLOCK_RECORDS) -> list[str]:
    return [f"{s}.block{b}.{r}" for s in streams for b in (1, 2) for r in records]


@pytest.mark.parametrize("streams, tcn, names, sha256, probs", [
    (("joint", "motion", "skip"), "separable",
     _stream_records("joint", "motion") + ["skip.proj"] + _HEAD_RECORDS,
     "b82d7a5219759633b534769a74bb9fac9f153ff67230fcb232d31a68b477533f",
     ["0x1.aaa5b4aac0acep-1", "0x1.55692d54fd4c8p-3"]),
    (("skip", "motion"), "separable",
     _stream_records("motion") + ["skip.proj"] + _HEAD_RECORDS,
     "3ae330ba91e179caf5a76faacf4ac882872af5c4339dd5e32f77026ce2390622",
     ["0x1.c4e18cb6cfc78p-1", "0x1.d8f39a4981c49p-4"]),
    (("joint", "motion", "skip"), "dense",
     _stream_records("joint", "motion", records=_DENSE_BLOCK_RECORDS)
     + ["skip.proj"] + _HEAD_RECORDS,
     "507075eff4058edf85f9ec6b36fe3d53e4b3eda0884a04dab11a0625f3691231",
     ["0x1.c92bc66a4e34fp-3", "0x1.8db50e656c72cp-1"]),
], ids=["default", "skip-motion", "dense"])
def test_stream_plan_pins_names_checkpoint_bytes_and_forward(tmp_path, streams, tcn, names,
                                                           sha256, probs):
    # weights are drawn and recorded joint, motion, skip, head whatever the
    # config order; the forward concatenates in config order, so a move of
    # either changes the checkpoint hash or the output bits
    model = ThreeStreamModel(tiny_model_config(streams=streams, tcn=tcn), ring_adjacency(5))
    assert [name for name, _ in model.parameters()] == names
    assert len({id(p) for _, p in model.parameters()}) == len(names)  # no tensor twice
    path = tmp_path / "model.fgcn"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    clip = np.random.default_rng(12).normal(size=(2, 8, 5))
    assert [float(p).hex() for p in model.forward(clip).data] == probs


def test_checkpoint_roundtrip_bit_exact(tmp_path, tiny_model):
    rng = np.random.default_rng(9)
    clip = rng.normal(size=(2, 8, 5))
    before = tiny_model.forward(clip).data
    path = tmp_path / "model.fgcn"
    save_model(tiny_model, path)
    again = load_model(path)
    assert again.config == tiny_model.config
    for (na, pa), (nb, pb) in zip(tiny_model.parameters(), again.parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    assert np.array_equal(again.forward(clip).data, before)


def test_checkpoint_rejects_config_mismatch(tmp_path, tiny_model):
    path = tmp_path / "model.fgcn"
    save_model(tiny_model, path)
    from fallgcn.checkpoint import load_arrays, save_arrays

    arrays, meta = load_arrays(path)
    del arrays["head.fc2.bias"]
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="head.fc2.bias"):
        load_model(path)


@pytest.mark.parametrize("record, index, value", [
    ("head.fc2.bias", 1, np.nan),
    ("joint.block2.sgc.mask", 7, -np.inf),
    ("adjacency", 3, np.inf),
])
def test_checkpoint_rejects_non_finite_record(tmp_path, tiny_model, record, index, value):
    from fallgcn.checkpoint import load_arrays, save_arrays

    path = tmp_path / "model.fgcn"
    save_model(tiny_model, path)
    arrays, meta = load_arrays(path)
    arrays[record].reshape(-1)[index] = value
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match=f"'{record}' is not finite at flat index {index}"):
        load_model(path)


@pytest.mark.parametrize("edit, bad_key", [
    (lambda cfg: cfg["masking"].update(training=True), "masking.training"),
    (lambda cfg: cfg.update(channels=5), "channels"),
    (lambda cfg: cfg.update(widths=[8, 16]), "widths"),
    (lambda cfg: cfg.update(head_hidden="16"), "head_hidden"),
    (lambda cfg: cfg.update(kernel_t=0), "kernel_t"),
    (lambda cfg: cfg.update(kernel_t=2), "kernel_t"),
    (lambda cfg: cfg.update(channels=[0, 8]), r"channels\[0\]"),
    (lambda cfg: cfg.update(dropout=2.0), "dropout"),
    (lambda cfg: cfg.update(dropout=False), "dropout .*False"),
    (lambda cfg: cfg.update(clip_len=1), "clip_len"),
    (lambda cfg: cfg.update(init_seed=-1), "init_seed"),
    (lambda cfg: cfg.update(temporal_pool_residual="no"), "temporal_pool_residual"),
    (lambda cfg: cfg.update(spatial_pool_residual=False), "spatial_pool_residual"),
    (lambda cfg: cfg.update(streams=["joint", "joint"]), "streams"),
    (lambda cfg: cfg.update(joint_count=6), "joint_count"),  # vs the adjacency record
    (lambda cfg: cfg["masking"].update(p_joint=True), "p_joint"),
])
def test_checkpoint_rejects_malformed_model_config(tmp_path, tiny_model, edit, bad_key):
    from fallgcn.checkpoint import load_arrays, save_arrays

    path = tmp_path / "model.fgcn"
    save_model(tiny_model, path)
    arrays, meta = load_arrays(path)
    edit(meta["model_config"])
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match=bad_key) as info:
        load_model(path)
    assert str(path) in str(info.value)
