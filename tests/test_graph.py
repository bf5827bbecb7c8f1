"""The normalized adjacency against hand-computed linear algebra and
random-layout property sweeps. Neighbor sets and the binary adjacency
are read off its support."""
import numpy as np
import pytest

from conftest import random_layout
from fallgcn.graph import normalized_adjacency
from fallgcn.layouts import JointLayout, LayoutError, builtin_layout


def chain3() -> JointLayout:
    return JointLayout(name="chain3", joint_count=3, edges=((0, 1), (1, 2)), root_joint=1)


def neighbor_sets(layout: JointLayout) -> list[list[int]]:
    """B(v) = {v} plus the joints sharing an edge with v."""
    return [list(np.flatnonzero(row)) for row in normalized_adjacency(layout) > 0]


def raw_adjacency(layout: JointLayout) -> np.ndarray:
    """A: 1 iff two distinct joints share an edge."""
    support = normalized_adjacency(layout) > 0
    return (support & ~np.eye(layout.joint_count, dtype=bool)).astype(float)


def test_neighbor_sets_chain():
    sets = neighbor_sets(chain3())
    assert sets[0] == [0, 1]
    assert sets[1] == [0, 1, 2]
    assert sets[2] == [1, 2]


def test_neighbor_set_includes_self_and_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sets = neighbor_sets(random_layout(rng))
        for v, bs in enumerate(sets):
            assert v in bs
            for u in bs:
                assert v in sets[u]


def test_neighbor_count_from_shipped_coco_layout():
    coco = builtin_layout("coco18")
    nose = 0
    assert len(neighbor_sets(coco)[nose]) == 1 + coco.degree(nose)


def test_single_joint_graph():
    assert neighbor_sets(JointLayout(name="one", joint_count=1, edges=(), root_joint=0)) == [[0]]


def test_adjacency_chain():
    assert np.array_equal(raw_adjacency(chain3()), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_adjacency_edgeless():
    layout = JointLayout(name="one", joint_count=1, edges=(), root_joint=0)
    assert np.array_equal(raw_adjacency(layout), [[0.0]])


def test_adjacency_symmetric_over_random_layouts():
    rng = np.random.default_rng(1)
    for _ in range(100):
        layout = random_layout(rng)
        raw = raw_adjacency(layout)
        assert np.array_equal(raw, raw.T)
        assert np.all(np.diag(raw) == 0)
        assert raw.sum() == 2 * len(layout.edges)


def test_adjacency_invariant_validation():
    # an edge listed in one direction still couples both joints
    pair = JointLayout(name="pair", joint_count=2, edges=((1, 0),), root_joint=0)
    norm = normalized_adjacency(pair)
    assert np.array_equal(norm, norm.T)
    # self-loops are implicit; the layout rejects an explicit one
    with pytest.raises(LayoutError, match="self-edge"):
        JointLayout(name="loop", joint_count=2, edges=((0, 1), (1, 1)), root_joint=0)


def test_normalize_two_joints_one_edge():
    layout = JointLayout(name="pair", joint_count=2, edges=((0, 1),), root_joint=0)
    norm = normalized_adjacency(layout)
    # A + I = all-ones, D = diag(2, 2)
    assert np.allclose(norm, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_single_joint_identity():
    layout = JointLayout(name="one", joint_count=1, edges=(), root_joint=0)
    assert np.allclose(normalized_adjacency(layout), [[1.0]])


def test_normalized_adjacency_is_read_only():
    norm = normalized_adjacency(chain3())
    with pytest.raises(ValueError, match="read-only"):
        norm[0, 0] = 2.0


def test_normalize_chain_hand_values():
    # D = diag(2, 3, 2) for the chain with self-loops
    norm = normalized_adjacency(chain3())
    assert abs(norm[0, 0] - 0.5) < 1e-15
    assert abs(norm[0, 1] - 1 / np.sqrt(6)) < 1e-15
    assert abs(norm[1, 1] - 1 / 3) < 1e-15


def test_normalized_edgeless_graph_is_identity():
    layout = JointLayout(name="lonely", joint_count=1, edges=(), root_joint=0)
    assert np.array_equal(normalized_adjacency(layout), np.eye(1))


def test_regular_graphs_row_sums_exactly_one():
    # the operator applied to the all-ones signal: positive everywhere,
    # exactly 1 on regular graphs (2-joint pair, 4-cycle)
    pair = JointLayout(name="pair", joint_count=2, edges=((0, 1),), root_joint=0)
    cycle = JointLayout(
        name="cycle4", joint_count=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)), root_joint=0
    )
    for layout in (pair, cycle):
        sums = normalized_adjacency(layout) @ np.ones(layout.joint_count)
        assert np.all(sums > 0) and np.all(sums <= 1 + 1e-12)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_normalized_symmetry_range_and_spectral_radius():
    rng = np.random.default_rng(3)
    for _ in range(50):
        norm = normalized_adjacency(random_layout(rng))
        assert np.abs(norm - norm.T).max() < 1e-15
        assert norm.min() >= 0.0 and norm.max() <= 1.0
        assert np.isfinite(norm).all()
        assert np.all(norm @ np.ones(norm.shape[0]) > 0)
        # the bound that makes aggregation non-expansive
        assert np.abs(np.linalg.eigvalsh(norm)).max() <= 1 + 1e-12
