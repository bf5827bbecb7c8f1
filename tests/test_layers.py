"""Layer-level checks: the spatial graph convolution against a
per-node brute-force aggregation loop and against the embed-first op
composition, Sep-TCN against the equivalent rank-constrained dense
convolution, multiply counts, masking, and the block composition.
"""
import numpy as np
import pytest

from conftest import random_layout, ring_adjacency
from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, Tensor, grad_check, parameter
from fallgcn.graph import normalized_adjacency
from fallgcn.layers import (
    DenseTcnLayer,
    GstcnBlock,
    Layer,
    Linear,
    MaskingConfig,
    SepTcnLayer,
    SgcLayer,
    apply_masking,
)


def sgc_brute_force(x, weight, mask, norm_adj, neighbor_sets):
    """Direct double loop: embed each joint, then accumulate every
    neighbor j of i weighted by the mask-refined adjacency."""
    c_in, t_len, v = x.shape
    out = np.zeros((weight.shape[1], t_len, v))
    for t in range(t_len):
        f1 = [x[:, t, j] @ weight for j in range(v)]
        for i in range(v):
            for j in neighbor_sets[i]:
                out[:, t, i] += norm_adj[i, j] * mask[i, j] * f1[j]
    return out


def test_sgc_identity_composition():
    # edgeless aggregation (identity matrix), ones mask, identity weights
    rng = np.random.default_rng(0)
    layer = SgcLayer(3, 3, np.eye(4), rng)
    layer.weight.data = np.eye(3)
    x = Tensor(rng.normal(size=(2, 3, 5, 4)))
    out = layer.forward(x)
    assert np.allclose(out.data, x.data)


def test_sgc_two_joint_hand_example():
    rng = np.random.default_rng(1)
    norm_adj = np.full((2, 2), 0.5)
    layer = SgcLayer(1, 1, norm_adj, rng)
    layer.weight.data = np.eye(1)
    x = np.zeros((1, 1, 3, 2))
    x[0, 0, :, 0] = 1.0
    x[0, 0, :, 1] = 3.0
    out = layer.forward(Tensor(x))
    assert np.allclose(out.data, 2.0)


def test_sgc_matches_brute_force_on_random_graphs():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_joints=6)
        norm_adj = normalized_adjacency(layout)
        neighbor_sets = [np.flatnonzero(row) for row in norm_adj > 0]
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        t_len = int(rng.integers(1, 6))
        layer = SgcLayer(c_in, c_out, norm_adj, rng)
        layer.mask.data = rng.uniform(0.2, 2.0, layer.mask.shape)
        x = rng.normal(size=(c_in, t_len, layout.joint_count))
        got = layer.forward(Tensor(x[None])).data[0]
        want = sgc_brute_force(x, layer.weight.data, layer.mask.data,
                               norm_adj, neighbor_sets)
        assert np.abs(got - want).max() < 1e-10, f"seed {seed}"


def _sgc_embed_then_aggregate(layer, x):
    """The paper's order from the same ops: embed C_in -> C_out, then
    aggregate over joints through A ⊙ M."""
    return ad.spatial_aggregate(ad.pointwise_conv(x, layer.weight),
                                ad.mul(layer.adjacency, layer.mask))


@pytest.mark.parametrize("x_requires_grad", [True, False], ids=["x-grad", "x-const"])
def test_sgc_aggregate_first_is_embed_first_with_the_same_gradients(x_requires_grad):
    # the layer aggregates the C_in inputs before embedding; both maps are
    # linear and act on different axes, so values and gradients must agree
    for seed in range(20):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_joints=8)
        c_in, c_out, n, t_len = (int(k) for k in rng.integers([1, 1, 1, 1], [9, 9, 4, 7]))
        layer = SgcLayer(c_in, c_out, normalized_adjacency(layout), rng)
        layer.mask.data = rng.uniform(0.2, 2.0, layer.mask.shape)
        v = layout.joint_count
        x = Tensor(rng.normal(size=(n, c_in, t_len, v)), requires_grad=x_requires_grad)
        cotangent = Tensor(rng.normal(size=(n, c_out, t_len, v)))
        wrt = [layer.weight, layer.mask] + ([x] if x_requires_grad else [])
        results = []
        for path in (layer.forward, lambda h: _sgc_embed_then_aggregate(layer, h)):
            with GradTape() as tape:
                out = path(x)
                loss = ad.sum_all(ad.mul(out, cotangent))
            results.append((out.data, tape.gradients(loss, wrt)))
        (got, got_grads), (want, want_grads) = results
        assert np.abs(got - want).max() < 1e-12, f"seed {seed}"
        for name, g, w in zip(("weight", "mask", "x"), got_grads, want_grads):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), f"seed {seed}: {name}"


def test_sgc_dimension_mismatch():
    rng = np.random.default_rng(2)
    layer = SgcLayer(3, 4, np.eye(5), rng)
    with pytest.raises(ad.ShapeError):
        layer.forward(Tensor(np.zeros((1, 3, 4, 7))))  # 7 joints vs 5


def test_septcn_delta_kernel_is_identity():
    rng = np.random.default_rng(3)
    layer = SepTcnLayer(4, 4, rng, kernel_t=3)
    layer.depthwise.data = np.tile([0.0, 1.0, 0.0], (4, 1))
    layer.pointwise.data = np.eye(4)
    layer.bias.data = np.zeros(4)
    x = Tensor(rng.normal(size=(2, 4, 6, 3)))
    assert np.allclose(layer.forward(x).data, x.data)


def test_septcn_box_kernel_constant_input():
    # depthwise (1,1,1) over a constant c: interior frames see 3c
    layer = SepTcnLayer(1, 1, np.random.default_rng(4), kernel_t=3)
    layer.depthwise.data = np.ones((1, 3))
    layer.pointwise.data = np.eye(1)
    layer.bias.data = np.zeros(1)
    c = 1.7
    x = Tensor(np.full((1, 1, 6, 2), c))
    out = layer.forward(x).data
    assert np.allclose(out[0, 0, 1:-1, :], 3 * c)
    assert np.allclose(out[0, 0, 0, :], 2 * c)


def test_dense_tcn_layer_shapes_and_identity_kernel():
    rng = np.random.default_rng(20)
    layer = DenseTcnLayer(3, 5, rng, kernel_t=3)
    out = layer.forward(Tensor(rng.normal(size=(2, 3, 7, 4))))
    assert out.shape == (2, 5, 7, 4)
    assert sum(p.size for _, p in layer.parameters("tcn")) == 5 * 3 * 3 + 5
    same = DenseTcnLayer(3, 3, rng, kernel_t=3)
    same.kernel.data[:] = 0.0
    for c in range(3):
        same.kernel.data[c, c, 1] = 1.0  # center-tap delta
    same.bias.data[:] = 0.0
    x = Tensor(rng.normal(size=(1, 3, 6, 4)))
    assert np.allclose(same.forward(x).data, x.data)


def test_septcn_equals_rank_constrained_dense_conv():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        layer = SepTcnLayer(c_in, c_out, rng, kernel_t=3)
        x = Tensor(rng.normal(size=(2, c_in, 5, 3)))
        got = layer.forward(x).data
        # dense kernel composed from the two factors
        k_dense = np.einsum("ci,co->oci", layer.depthwise.data, layer.pointwise.data)
        dense = ad.bias_add(ad.dense_tconv(x, Tensor(k_dense)), layer.bias).data
        assert np.abs(got - dense).max() < 1e-10, f"seed {seed}"


def tcn_multiplies(c_in, c_out, t, v, k_t):
    """(separable, dense) multiplies of the two temporal convolutions."""
    rng = np.random.default_rng(0)
    return (SepTcnLayer(c_in, c_out, rng, k_t).multiplies(t, v),
            DenseTcnLayer(c_in, c_out, rng, k_t).multiplies(t, v))


def test_tcn_multiplies_reference_numbers():
    sep, dense = tcn_multiplies(64, 64, 1, 1, 3)
    assert (sep, dense) == (192 + 4096, 12288)
    assert dense / sep == pytest.approx(2.87, abs=0.01)
    # single-channel edge case: separable is costlier
    assert tcn_multiplies(1, 1, 1, 1, 3) == (4, 3)
    # k_t = 1 always leaves the extra depthwise term
    sep_k1, dense_k1 = tcn_multiplies(8, 16, 1, 1, 1)
    assert sep_k1 == dense_k1 + 8
    # totals scale by T * V
    assert tcn_multiplies(64, 64, 10, 18, 3) == (4288 * 180, 12288 * 180)


def test_septcn_cheaper_iff_cout_over_threshold():
    for k_t in (3, 5):
        for c_out in range(1, 6):
            sep, dense = tcn_multiplies(4, c_out, 1, 1, k_t)
            assert (sep < dense) == (c_out > k_t / (k_t - 1))


def test_multiplies_walks_the_layers_parameters_finds():
    class Holder(Layer):
        def __init__(self, rng):
            self.first = Linear(3, 4, rng)
            self.heads = {"a": Linear(4, 5, rng), "b": Linear(4, 2, rng)}
            self.scale = parameter(np.ones(7))  # a bare tensor multiplies nothing

    holder = Holder(np.random.default_rng(0))
    assert holder.multiplies(8, 5) == 3 * 4 + 4 * 5 + 4 * 2
    # a block: SGC embed and aggregate, separable TCN, projection
    t, v = 6, 5
    block = GstcnBlock(3, 4, ring_adjacency(v), np.random.default_rng(0))
    sgc = t * v * (3 * 4 + v * 4)
    assert block.multiplies(t, v) == sgc + t * v * (3 * 4 + 4 * 4) + t * v * 3 * 4
    same = GstcnBlock(4, 4, ring_adjacency(v), np.random.default_rng(0), tcn="dense")
    assert same.proj is None
    assert same.multiplies(t, v) == t * v * (4 * 4 + v * 4) + t * v * 3 * 4 * 4


def test_masking_zero_probability_and_eval_mode_are_identity():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)))
    assert apply_masking(x, MaskingConfig(0.0, 0.0)) is x
    # evaluation mode: the block is given no masking config and draws nothing
    block = GstcnBlock(3, 3, ring_adjacency(5), rng)
    state = rng.bit_generator.state
    assert np.array_equal(block.forward(x, None, rng).data,
                          block.forward(x, MaskingConfig(0.0, 0.0)).data)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("p_joint, p_frame, name", [
    ("0.1", 0.1, "p_joint"),
    (True, 0.1, "p_joint"),
    (0.1, None, "p_frame"),
    (0.1, 1.5, "p_frame"),
    (0.1, float("nan"), "p_frame"),
])
def test_masking_config_rejects_a_probability_that_is_not_a_number_in_0_1(
        p_joint, p_frame, name):
    with pytest.raises(ValueError, match=f"MaskingConfig: {name}"):
        MaskingConfig(p_joint, p_frame)


def test_masking_config_accepts_ints_and_numpy_floats():
    assert MaskingConfig(1, np.float64(0.25)) == MaskingConfig(1.0, 0.25)


def test_masking_without_rng_raises():
    x = Tensor(np.ones((2, 3, 4, 5)))
    with pytest.raises(ValueError, match="rng"):
        apply_masking(x, MaskingConfig(0.3, 0.3))


def test_masking_probability_one_zeroes_everything():
    x = Tensor(np.ones((2, 3, 4, 5)))
    out = apply_masking(x, MaskingConfig(1.0, 0.0), np.random.default_rng(0))
    assert np.array_equal(out.data, np.zeros_like(x.data))


def test_masking_zeroes_whole_joints_and_frames():
    rng = np.random.default_rng(6)
    x = Tensor(np.ones((4, 3, 10, 8)))
    out = apply_masking(x, MaskingConfig(0.4, 0.4), np.random.default_rng(0)).data
    for n in range(4):
        col = out[n, 0]  # [T, V]
        # each joint column is all-zero or matches the frame pattern
        frame_alive = col.max(axis=1) > 0
        for j in range(8):
            alive = col[:, j] > 0
            assert (~alive).all() or np.array_equal(alive, frame_alive)


def test_masking_deterministic_given_seed():
    x = Tensor(np.ones((2, 3, 6, 5)))
    cfg = MaskingConfig(0.3, 0.3)
    a = apply_masking(x, cfg, np.random.default_rng(42)).data
    b = apply_masking(x, cfg, np.random.default_rng(42)).data
    c = apply_masking(x, cfg, np.random.default_rng(43)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_masked_positions_get_zero_gradient():
    rng = np.random.default_rng(7)
    x = ad.parameter(rng.normal(size=(2, 3, 6, 5)))
    cfg = MaskingConfig(0.4, 0.4)
    with GradTape() as tape:
        y = apply_masking(x, cfg, np.random.default_rng(1))
        loss = ad.sum_all(y)
    (gx,) = tape.gradients(loss, [x])
    masked = y.data == 0.0
    assert masked.any()
    assert np.array_equal(gx[masked], np.zeros(int(masked.sum())))


def _identity_block(v=4, c=3):
    rng = np.random.default_rng(8)
    block = GstcnBlock(c, c, np.eye(v), rng)
    block.sgc.weight.data = np.eye(c)
    block.tcn.depthwise.data = np.tile([0.0, 1.0, 0.0], (c, 1))
    block.tcn.pointwise.data = np.eye(c)
    block.tcn.bias.data = np.zeros(c)
    return block


def test_block_identity_config_sums_three_paths():
    block = _identity_block()
    x = Tensor(np.ones((1, 3, 5, 4)))
    out = block.forward(x)
    assert np.allclose(out.data, 3.0)


def test_block_negative_preactivation_gives_zeros():
    block = _identity_block()
    x = Tensor(np.full((1, 3, 5, 4), -2.0))
    assert np.array_equal(block.forward(x).data, np.zeros((1, 3, 5, 4)))


def test_block_pool_toggles():
    # the block has one form: identity everything, constant input 1 gives
    # the two base summands plus the temporal-pool residual, and no more
    rng = np.random.default_rng(9)
    block = GstcnBlock(3, 3, np.eye(4), rng)
    block.sgc.weight.data = np.eye(3)
    block.tcn.depthwise.data = np.tile([0.0, 1.0, 0.0], (3, 1))
    block.tcn.pointwise.data = np.eye(3)
    out = block.forward(Tensor(np.ones((1, 3, 5, 4))))
    assert np.allclose(out.data, 3.0)


def test_block_preserves_frames_and_joints():
    rng = np.random.default_rng(10)
    for c_in, c_out in ((2, 2), (2, 7), (5, 3)):
        for kind in ("separable", "dense"):
            block = GstcnBlock(c_in, c_out, ring_adjacency(6), rng, tcn=kind)
            out = block.forward(Tensor(rng.normal(size=(2, c_in, 9, 6))))
            assert out.shape == (2, c_out, 9, 6)


def test_block_gradients_match_finite_differences():
    # one full block on a 3-joint, 6-frame clip
    rng = np.random.default_rng(11)
    block = GstcnBlock(2, 3, ring_adjacency(3), rng)
    x = Tensor(rng.normal(size=(1, 2, 6, 3)))
    params = [p for _, p in block.parameters("block")]
    err = grad_check(lambda: ad.sum_all(ad.mul(block.forward(x), block.forward(x))),
                     params, eps=1e-5)
    assert err < 1e-4


@pytest.mark.parametrize("kind, c_in, records", [
    ("separable", 2, 9), ("separable", 4, 8), ("dense", 2, 8), ("dense", 4, 7)])
def test_masked_block_forward_tape_record_count(kind, c_in, records):
    # masking, the mask product, the aggregate, the embedding, the TCN
    # (depthwise and pointwise, or dense) with its bias, the projection
    # when the width changes, the frame pool and the epilogue relu; the
    # composed epilogue recorded three more (bias_add and two adds)
    rng = np.random.default_rng(13)
    block = GstcnBlock(c_in, 4, ring_adjacency(5), rng, tcn=kind)
    x = parameter(rng.normal(size=(2, c_in, 6, 5)))
    with GradTape() as tape:
        block.forward(x, MaskingConfig(0.1, 0.1), rng)
    assert len(tape) == records


def test_all_block_parameters_receive_gradient():
    hit = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        block = GstcnBlock(2, 4, ring_adjacency(5), rng)
        x = Tensor(rng.normal(size=(2, 2, 7, 5)))
        params = block.parameters("block")
        with GradTape() as tape:
            out = block.forward(x)
            loss = ad.cross_entropy(
                ad.softmax(ad.global_avg_pool(out)), np.array([0, 1])
            )
        grads = tape.gradients(loss, [p for _, p in params])
        if all(np.linalg.norm(g) > 0 for g in grads):
            hit += 1
    assert hit >= 19


def test_linear_layer_shapes_and_params():
    rng = np.random.default_rng(12)
    fc = Linear(3, 2, rng)
    assert sum(p.size for _, p in fc.parameters("fc")) == 8
    out = fc.forward(Tensor(rng.normal(size=(4, 3))))
    assert out.shape == (4, 2)


def test_layer_parameters_walk_the_attribute_tree():
    # attributes are visited in the order they were set: trainable tensors
    # by name, held layers under their name, dict entries under their key
    rng = np.random.default_rng(13)

    class Net(Layer):
        def __init__(self):
            self.scale = parameter(np.ones(2))
            self.constant = Tensor(np.ones(2))  # not trainable: not listed
            self.width = 2
            self.blocks = {"a": Linear(2, 2, rng), "b": Linear(2, 2, rng)}
            self.head = Linear(2, 1, rng)
            self.unused = None

    net = Net()
    names = ["scale", "a.weight", "a.bias", "b.weight", "b.bias", "head.weight", "head.bias"]
    assert [name for name, _ in net.parameters()] == names
    assert [name for name, _ in net.parameters("net")] == [f"net.{n}" for n in names]
    assert net.parameters()[0][1] is net.scale
    assert net.parameters()[-1][1] is net.head.bias
