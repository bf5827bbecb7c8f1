"""Degenerate clips through the whole model: all-zero and constant
clips, the shortest clip the motion stream accepts (2 frames) and a
1-joint layout. Each gives finite probabilities that sum to 1, alone and
in a batch, and one taped train step gives a finite loss and finite
gradients. The probabilities and gradients have the same bits whether
the batch runs as one part or is split between two threads."""
import numpy as np
import pytest

from conftest import tiny_model_config
from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, Tensor
from fallgcn.graph import normalized_adjacency
from fallgcn.layers import MaskingConfig
from fallgcn.layouts import parse_layout
from fallgcn.model import ThreeStreamModel

ONE_JOINT = parse_layout("name one\njoints 1\nroot 0\n")
BATCH = 3


@pytest.fixture(autouse=True)
def split_small_arrays(monkeypatch):
    """Let the tiny models' arrays be split."""
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1)


def _model(clip_len: int, joints: int) -> ThreeStreamModel:
    adjacency = (normalized_adjacency(ONE_JOINT) if joints == 1
                 else normalized_adjacency(parse_layout(
                     "name chain3\njoints 3\nroot 0\nedge 0 1\nedge 1 2\n")))
    config = tiny_model_config(clip_len=clip_len, joint_count=joints, dropout=0.1,
                               masking=MaskingConfig(0.1, 0.1), layout_name="edge")
    return ThreeStreamModel(config, adjacency)


# name -> (frames, joints, clips [BATCH, 2, frames, joints])
CASES = {
    "all_zero": (8, 3, lambda rng, t, v: np.zeros((BATCH, 2, t, v))),
    "constant": (8, 3, lambda rng, t, v: np.full((BATCH, 2, t, v), 0.75)),
    "two_frames": (2, 3, lambda rng, t, v: rng.normal(size=(BATCH, 2, t, v))),
    "one_joint": (8, 1, lambda rng, t, v: rng.normal(size=(BATCH, 2, t, v))),
    "one_joint_all_zero": (8, 1, lambda rng, t, v: np.zeros((BATCH, 2, t, v))),
}


def _run(model: ThreeStreamModel, clips: np.ndarray) -> list[np.ndarray]:
    """Batch and one-clip probabilities, then the train step's loss,
    probabilities and gradients."""
    out = [model.forward(clips).data, model.forward(clips[0]).data]
    params = model.param_tensors()
    with GradTape() as tape:
        probs = model.forward(Tensor(clips), training=True, rng=np.random.default_rng(2))
        loss = ad.cross_entropy(probs, np.arange(BATCH) % 2)
    return out + [loss.data, probs.data] + tape.gradients(loss, params)


@pytest.mark.parametrize("name", sorted(CASES))
def test_edge_clips_give_finite_normalised_probabilities_on_any_split(monkeypatch, name):
    frames, joints, make = CASES[name]
    clips = make(np.random.default_rng(5), frames, joints)
    runs = []
    for parts in (1, 2):
        monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
        runs.append(_run(_model(frames, joints), clips))
    batch, single, loss, train_probs, *grads = runs[0]
    for probs in (batch, single[None], train_probs):
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.isfinite(loss)
    assert all(np.isfinite(g).all() for g in grads)
    for i, (want, got) in enumerate(zip(*runs)):
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64)), f"output {i}"


def test_an_all_zero_clip_on_one_joint_is_undecided():
    # biases start at zero, so every activation and both logits are 0
    model = ThreeStreamModel(tiny_model_config(joint_count=1, layout_name="one"),
                             normalized_adjacency(ONE_JOINT))
    assert model.forward(np.zeros((2, 8, 1))).data.tolist() == [0.5, 0.5]
