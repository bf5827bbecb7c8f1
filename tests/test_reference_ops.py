"""The optimized [N,C,T,V] kernels against their plain reference forms
(``reference_ops``) and against central differences, on edge shapes:
single sample, single joint, clips shorter than the kernel, channel
count changes, and inputs that need no gradient."""
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

