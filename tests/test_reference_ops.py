"""The optimized [N,C,T,V] kernels against their plain reference forms
(``reference_ops``) and against central differences, on edge shapes:
single sample, single joint, clips shorter than the kernel, channel
count changes, and inputs that need no gradient; and the fused block
epilogue against its one-op-per-step form, bit for bit."""
import numpy as np
import pytest

import reference_ops as ref
from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, Tensor, grad_check, parameter

# (N, C_in, C_out, T, V)
SHAPES = [
    (2, 3, 4, 5, 3),
    (1, 2, 3, 4, 2),   # single sample
    (2, 3, 2, 4, 1),   # single joint
    (2, 2, 3, 1, 3),   # single frame
    (1, 3, 2, 2, 2),   # two frames
]
KERNEL_WIDTHS = [1, 3, 5]
TOL = 1e-12


def _assert_matches(op, ref_op, arrays, x_grad, rng):
    """Forward value and the tape gradient of every grad-requiring input,
    for a random upstream gradient, agree with the reference."""
    inputs = [Tensor(arrays[0], requires_grad=x_grad)] + [parameter(a) for a in arrays[1:]]
    ref_out, ref_backward = ref_op(*arrays)
    g = rng.normal(size=ref_out.shape)
    with GradTape() as tape:
        out = op(*inputs)
        loss = ad.sum_all(ad.mul(out, Tensor(g)))
    grads = tape.gradients(loss, [t for t in inputs if t.requires_grad])
    assert out.shape == ref_out.shape
    assert np.abs(out.data - ref_out).max() <= TOL
    expected = ref_backward(g)
    if not x_grad:
        expected = expected[1:]
    assert len(grads) == len(expected)
    for got, want in zip(grads, expected):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= TOL


def _conv_cases(rng, n, c_in, c_out, t, v, k):
    x = rng.normal(size=(n, c_in, t, v))
    return {
        "depthwise_tconv": (ad.depthwise_tconv, ref.depthwise_tconv,
                            [x, rng.normal(size=(c_in, k))]),
        "dense_tconv": (ad.dense_tconv, ref.dense_tconv,
                        [x, rng.normal(size=(c_out, c_in, k))]),
        "pointwise_conv": (ad.pointwise_conv, ref.pointwise_conv,
                           [x, rng.normal(size=(c_in, c_out))]),
    }


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", KERNEL_WIDTHS)
@pytest.mark.parametrize("x_grad", [True, False])
def test_convs_match_reference(shape, k, x_grad):
    rng = np.random.default_rng(sum(shape) * 10 + k)
    for name, (op, ref_op, arrays) in _conv_cases(rng, *shape, k).items():
        try:
            _assert_matches(op, ref_op, arrays, x_grad, rng)
        except AssertionError as exc:
            raise AssertionError(f"{name} {shape} k={k} x_grad={x_grad}") from exc


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", KERNEL_WIDTHS)
def test_convs_match_finite_differences(shape, k):
    rng = np.random.default_rng(sum(shape) * 10 + k + 1)
    for name, (op, _, arrays) in _conv_cases(rng, *shape, k).items():
        for x_grad in (True, False):
            x = Tensor(arrays[0].copy(), requires_grad=x_grad)
            w = parameter(arrays[1].copy())
            params = [x, w] if x_grad else [w]
            err = grad_check(lambda: ad.sum_all(ad.mul(op(x, w), op(x, w))), params)
            assert err < 1e-4, f"{name} {shape} k={k} x_grad={x_grad}: {err:.3e}"


@pytest.mark.parametrize("shape", SHAPES)
def test_max_pools_match_reference(shape):
    n, c, _, t, v = shape
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=(n, c, t, v))
    for op, axis in ((ad.max_pool_frames, 2), (ad.max_pool_joints, 3)):
        # rounding makes ties, where the first maximum takes the gradient
        _assert_matches(op, lambda a, axis=axis: ref.max_pool(a, axis),
                        [np.round(x)], True, rng)
        xt = parameter(x.copy())
        err = grad_check(lambda: ad.sum_all(ad.mul(op(xt), op(xt))), [xt])
        assert err < 1e-4, f"axis {axis} {shape}: {err:.3e}"


def test_max_pool_frames_is_a_broadcast_view():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 5)))
    out = ad.max_pool_frames(x).data
    assert out.shape == x.shape
    assert out.strides[2] == 0


def test_pointwise_conv_output_is_contiguous():
    rng = np.random.default_rng(1)
    out = ad.pointwise_conv(Tensor(rng.normal(size=(2, 3, 4, 5))),
                            Tensor(rng.normal(size=(3, 6)))).data
    assert out.shape == (2, 6, 4, 5)
    assert out.flags.c_contiguous



@pytest.fixture(params=[(1, 1), (5, 2)], ids=["one-clip", "split-batch"])
def batch(request, monkeypatch):
    """A batch size, with the batch cut as it is: one clip whole, or
    five samples in five slices that two threads take in turn."""
    n, parts = request.param
    monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1)
    return n


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _forward_and_grads(f, arrays, g):
    """Output and every input gradient of ``f`` over parameters made
    from ``arrays``, for the upstream gradient ``g``."""
    inputs = [parameter(a.copy()) for a in arrays]
    with GradTape() as tape:
        out = f(*inputs)
        loss = ad.sum_all(ad.mul(out, Tensor(g)))
    return [out.data] + tape.gradients(loss, inputs)


def _assert_same_bits(fused, composed, arrays, rng):
    g = rng.normal(size=fused(*[Tensor(a) for a in arrays]).shape)
    for i, (got, want) in enumerate(zip(_forward_and_grads(fused, arrays, g),
                                        _forward_and_grads(composed, arrays, g))):
        assert got.shape == want.shape, i
        assert np.array_equal(_bits(got), _bits(want)), f"output {i} differs"


@pytest.mark.parametrize("kind", ["separable", "dense"])
def test_fused_block_epilogue_has_the_bits_of_the_composed_one(batch, kind):
    c_in, c_out, t, v = 3, 4, 6, 5
    rng = np.random.default_rng([batch, len(kind)])
    conv = ad.pointwise_conv if kind == "separable" else ad.dense_tconv
    weight = (rng.normal(size=(c_in, c_out)) if kind == "separable"
              else rng.normal(size=(c_out, c_in, 3)))
    # rounding makes frame ties and zero sums, where the first maximum
    # and the mask must agree too
    arrays = [np.round(rng.normal(size=(batch, c_in, t, v)), 1), weight,
              rng.normal(size=c_out), np.round(rng.normal(size=(batch, c_out, t, v)), 1)]
    _assert_same_bits(
        lambda x, w, b, res: ad.relu(conv(x, w, b), res, ad.max_pool_frames(res)),
        lambda x, w, b, res: ref.block_epilogue(conv, x, w, b, res),
        arrays, rng)


@pytest.mark.parametrize("count", [2, 3])
def test_relu_of_terms_has_the_bits_of_relu_of_their_sum(batch, count):
    rng = np.random.default_rng([batch, count])
    arrays = [np.round(rng.normal(size=(batch, 3, 4, 2)), 1) for _ in range(count)]

    def relu_of_sum(first, *rest):
        for term in rest:
            first = ad.add(first, term)
        return ad.relu(first)

    _assert_same_bits(ad.relu, relu_of_sum, arrays, rng)


def test_relu_of_one_term_is_numpys_maximum(batch):
    rng = np.random.default_rng(batch)
    x = np.round(rng.normal(size=(batch, 3, 4, 2)), 1)
    g = rng.normal(size=x.shape)
    out, dx = _forward_and_grads(ad.relu, [x], g)
    assert np.array_equal(_bits(out), _bits(np.maximum(x, 0.0)))
    assert np.array_equal(_bits(dx), _bits(g * (x > 0.0)))
