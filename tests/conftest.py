import numpy as np
import pytest

from fallgcn.graph import normalized_adjacency
from fallgcn.layers import MaskingConfig
from fallgcn.layouts import JointLayout, ring_layout
from fallgcn.model import ModelConfig, ThreeStreamModel


def random_layout(rng: np.random.Generator, max_joints: int = 6) -> JointLayout:
    """Random connected layout: a spanning tree plus a few extra edges."""
    v = int(rng.integers(2, max_joints + 1))
    edges = set()
    order = rng.permutation(v)
    for i in range(1, v):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, v))):
        a, b = rng.integers(0, v, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return JointLayout(
        name=f"random{v}",
        joint_count=v,
        edges=tuple(sorted(edges)),
        root_joint=int(rng.integers(0, v)),
    )


def ring_adjacency(v: int) -> np.ndarray:
    return normalized_adjacency(ring_layout(v))


def tiny_model_config(**overrides) -> ModelConfig:
    base = dict(
        dims=2, clip_len=8, joint_count=5, num_classes=2, channels=(8, 16),
        head_hidden=16, dropout=0.0, masking=MaskingConfig(0.0, 0.0),
        layout_name="ring5",
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def tiny_model() -> ThreeStreamModel:
    return ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
