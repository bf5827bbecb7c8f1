"""Training loop determinism, divergence handling, memory held by a
train step, and evaluation."""
import platform
import tracemalloc

import numpy as np
import pytest

from conftest import ring_adjacency, tiny_model_config
from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, ShapeError, Tensor
from fallgcn.graph import normalized_adjacency
from fallgcn.layers import MaskingConfig
from fallgcn.layouts import builtin_layout
from fallgcn.model import ModelConfig, ThreeStreamModel
from fallgcn.optim import SgdState, sgd_step
from fallgcn.skeleton_io import SkeletonClip
from fallgcn.synthetic import make_dataset
from fallgcn.training import (
    Hyperparams,
    TrainingDiverged,
    evaluate,
    read_history,
    train,
    write_history,
)


def toy_clips(n, seed=0, t=8, v=5):
    # two classes: constant sign of the first channel
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(n):
        label = i % 2
        base = 1.0 if label else -1.0
        data = rng.normal(base, 0.3, size=(2, t, v))
        clips.append(SkeletonClip(data=data, label=label))
    return clips


def fresh_model(seed=0):
    return ThreeStreamModel(tiny_model_config(init_seed=seed), ring_adjacency(5))


def test_reference_defaults():
    hp = Hyperparams()
    assert hp.learning_rate == 0.01
    assert hp.momentum == 0.9
    assert hp.batch_size == 32
    assert hp.epochs == 100


@pytest.mark.parametrize("name, value", [
    ("learning_rate", -0.01),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("learning_rate", "0.1"),
    ("learning_rate", True),
    ("momentum", 1.0),
    ("momentum", -0.1),
    ("momentum", False),
    ("batch_size", 0),
    ("batch_size", 8.0),
    ("batch_size", True),
    ("epochs", -1),
    ("seed", -1),
    ("seed", 1.5),
])
def test_hyperparams_reject_bad_values_by_name(name, value):
    with pytest.raises(ValueError, match=name):
        Hyperparams(**{name: value})


def test_zero_learning_rate_leaves_parameters_unchanged():
    model = fresh_model()
    before = [p.data.copy() for p in model.param_tensors()]
    hp = Hyperparams(learning_rate=0.0, batch_size=4, epochs=3, seed=0)
    train(model, toy_clips(16), toy_clips(8, seed=1), hp)
    for b, p in zip(before, model.param_tensors()):
        assert np.array_equal(b, p.data)


def test_training_reduces_loss_and_history_shape():
    model = fresh_model()
    hp = Hyperparams(learning_rate=0.05, batch_size=8, epochs=5, seed=0)
    history = train(model, toy_clips(32), toy_clips(16, seed=1), hp)
    assert [h.epoch for h in history] == list(range(5))
    assert history[-1].train_loss < history[0].train_loss
    assert 0.0 <= history[-1].val_accuracy <= 100.0


def test_bit_identical_history_across_runs():
    hp = Hyperparams(learning_rate=0.05, batch_size=8, epochs=3, seed=123)
    runs = []
    for _ in range(2):
        model = fresh_model(seed=9)
        history = train(model, toy_clips(24), toy_clips(8, seed=1), hp)
        runs.append((history, [p.data.copy() for p in model.param_tensors()]))
    (h1, p1), (h2, p2) = runs
    for a, b in zip(h1, h2):
        assert a.train_loss == b.train_loss  # bit-identical, not just close
        assert a.val_accuracy == b.val_accuracy
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def desk_model(tcn: str = "separable") -> ThreeStreamModel:
    """Desk-size model: stick9 (V=9), T=32, channels 64/128, masking on."""
    cfg = ModelConfig(dims=2, clip_len=32, joint_count=9, num_classes=2,
                      masking=MaskingConfig(0.1, 0.1), tcn=tcn, layout_name="stick9")
    return ThreeStreamModel(cfg, normalized_adjacency(builtin_layout("stick9")))


def test_desk_training_loss_bits_are_pinned():
    # what the tape keeps must not change any arithmetic: these are the
    # bits of the engine whose records held every Tensor (numpy's OpenBLAS
    # with 1 or 2 threads; a BLAS that sums in another order differs)
    train_clips, val_clips = make_dataset(n_per_class=60, seed=0)
    history = train(desk_model(), train_clips, val_clips, Hyperparams(epochs=2, seed=0))
    assert [h.train_loss.hex() for h in history] == [
        "0x1.754daf91e1528p+0", "0x1.2798d2210e2f3p-1"]


def test_desk_dense_training_loss_bits_are_pinned():
    # the dense twin: the only pin of dense_tconv's kernel gradient, whose
    # stack over the batch is [C_in*k_t, C_out], as pointwise_conv's is
    train_clips, val_clips = make_dataset(n_per_class=60, seed=0)
    history = train(desk_model("dense"), train_clips, val_clips, Hyperparams(epochs=2, seed=0))
    assert [h.train_loss.hex() for h in history] == [
        "0x1.43f4f36404212p-1", "0x1.dd429506651a0p-1"]


def test_desk_train_step_memory_is_what_backward_reads():
    # batch 32: holding every activation until the step ends retains about
    # 310 MB after the forward pass and peaks near 346 MB
    model = desk_model()
    clips, _ = make_dataset(n_per_class=20, seed=0)
    data = np.stack([c.data for c in clips[:32]])
    labels = np.array([c.label for c in clips[:32]])
    rng = np.random.default_rng(1)
    params = model.param_tensors()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with GradTape() as tape:
            loss = ad.cross_entropy(model.forward(Tensor(data), training=True, rng=rng), labels)
        retained = tracemalloc.get_traced_memory()[0] - base
        sgd_step(params, tape.gradients(loss, params), SgdState())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert retained < 150e6, f"forward under a tape retains {retained / 1e6:.0f} MB"
    assert peak < 200e6, f"train step peaks at {peak / 1e6:.0f} MB"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_desk_train_step_does_not_refault_the_heap():
    # when glibc trims freed heap back to the OS, each desk step faults
    # about 15k pages (~60 MB) back in: about 45k for this test's work
    import resource

    model = desk_model()
    clips, val_clips = make_dataset(n_per_class=20, seed=0)
    data = np.stack([c.data for c in clips[:32]])
    labels = np.array([c.label for c in clips[:32]])
    rng = np.random.default_rng(1)
    params = model.param_tensors()
    state = SgdState()

    def step():
        with GradTape() as tape:
            loss = ad.cross_entropy(model.forward(Tensor(data), training=True, rng=rng), labels)
        sgd_step(params, tape.gradients(loss, params), state)

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    evaluate(model, val_clips)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"3 desk train steps and an evaluation took {faults} minor faults"


def test_divergence_aborts_with_location():
    model = fresh_model()
    model.head.fc2.weight.data[0, 0] = np.nan
    hp = Hyperparams(batch_size=4, epochs=1, seed=0)
    with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
        train(model, toy_clips(8), toy_clips(4, seed=1), hp)


def test_nan_feeding_a_relu_aborts_training():
    # relu must pass NaN on rather than clamp it to 0 and hide it
    model = fresh_model()
    model.head.fc1.weight.data[0, 0] = np.nan
    hp = Hyperparams(batch_size=4, epochs=1, seed=0)
    with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
        train(model, toy_clips(8), toy_clips(4, seed=1), hp)


def test_train_validates_inputs():
    model = fresh_model()
    with pytest.raises(ValueError, match="non-empty"):
        train(model, [], toy_clips(4), Hyperparams())
    with pytest.raises(ValueError, match="batch_size"):
        train(model, toy_clips(4), toy_clips(4), Hyperparams(batch_size=32))


def test_evaluate_constant_predictor_counts():
    model = fresh_model()
    # zero final layer -> uniform probabilities -> argmax always class 0
    model.head.fc2.weight.data[:] = 0
    model.head.fc2.bias.data[:] = 0
    clips = [SkeletonClip(data=np.zeros((2, 8, 5)), label=0) for _ in range(10)]
    cm = evaluate(model, clips)
    assert cm.counts[0, 0] == 10
    assert cm.total == 10


@pytest.mark.parametrize("bad", [-1, 5])
def test_evaluate_rejects_labels_outside_the_classes(bad):
    clips = toy_clips(3)
    clips[1] = SkeletonClip(data=clips[1].data, label=bad)
    with pytest.raises(ShapeError, match=f"label {bad} of clip 1"):
        evaluate(fresh_model(), clips)


def test_evaluate_order_invariant_and_counts_sum():
    model = fresh_model()
    clips = toy_clips(20, seed=2)
    cm = evaluate(model, clips)
    assert cm.total == 20
    rng = np.random.default_rng(0)
    shuffled = [clips[i] for i in rng.permutation(20)]
    assert np.array_equal(evaluate(model, shuffled).counts, cm.counts)


def test_evaluate_is_side_effect_free():
    model = fresh_model()
    before = [p.data.copy() for p in model.param_tensors()]
    evaluate(model, toy_clips(12, seed=3))
    for b, p in zip(before, model.param_tensors()):
        assert np.array_equal(b, p.data)


def test_history_file_roundtrip(tmp_path):
    model = fresh_model()
    hp = Hyperparams(learning_rate=0.05, batch_size=8, epochs=2, seed=0)
    history = train(model, toy_clips(16), toy_clips(8, seed=1), hp)
    path = tmp_path / "history.csv"
    write_history(path, history)
    loaded = read_history(path)
    assert [(h.epoch, h.train_loss, h.val_accuracy) for h in loaded] == [
        (h.epoch, h.train_loss, h.val_accuracy) for h in history
    ]
