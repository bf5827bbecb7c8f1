"""Plain reference forms of the engine's optimized kernels.

Each function takes numpy arrays in the engine's [N, C, T, V] layout and
returns ``(out, backward)``, where ``backward(g)`` gives the gradients of
every input for an upstream gradient ``g``. They are written for
obviousness, not speed: one zero-filled shifted copy per temporal tap,
channels moved last and back around the pointwise product, and a full
copy of the pooled peak. ``test_reference_ops.py`` holds the engine's
ops to them.

``block_epilogue`` is the other kind: the end of a GSTCN block written
as one engine op per step, the form the fused ops must equal bit for
bit.
"""
import numpy as np

from fallgcn import autodiff as ad


def shift_frames(x, s):
    """shifted[..., t, :] = x[..., t + s, :]; out-of-range frames are zero."""
    if s == 0:
        return x
    out = np.zeros_like(x)
    if s > 0:
        out[:, :, :-s, :] = x[:, :, s:, :]
    else:
        out[:, :, -s:, :] = x[:, :, :s, :]
    return out


def depthwise_tconv(x, kernel):
    k_t = kernel.shape[1]
    r = k_t // 2
    taps = kernel[:, :, None, None]
    out = np.zeros_like(x)
    for i in range(k_t):
        out += taps[:, i] * shift_frames(x, i - r)

    def backward(g):
        dx = np.zeros_like(x)
        dk = np.empty_like(kernel)
        for i in range(k_t):
            dx += taps[:, i] * shift_frames(g, r - i)
            dk[:, i] = (g * shift_frames(x, i - r)).sum(axis=(0, 2, 3))
        return dx, dk

    return out, backward


def dense_tconv(x, kernel):
    c_out, _, k_t = kernel.shape
    r = k_t // 2
    n, _, t, v = x.shape
    out = np.zeros((n, c_out, t, v))
    for i in range(k_t):
        shifted = shift_frames(x, i - r)
        out += np.tensordot(kernel[:, :, i], shifted, axes=([1], [1])).transpose(1, 0, 2, 3)

    def backward(g):
        dx = np.zeros_like(x)
        dk = np.empty_like(kernel)
        for i in range(k_t):
            back = np.tensordot(kernel[:, :, i], g, axes=([0], [1]))
            dx += shift_frames(back.transpose(1, 0, 2, 3), r - i)
            shifted = shift_frames(x, i - r)
            dk[:, :, i] = np.tensordot(g, shifted, axes=([0, 2, 3], [0, 2, 3]))
        return dx, dk

    return out, backward


def channels_last(x):
    n, c, t, v = x.shape
    return x.transpose(0, 2, 3, 1).reshape(n * t * v, c)


def channels_first(m, like):
    n, _, t, v = like
    return m.reshape(n, t, v, -1).transpose(0, 3, 1, 2)


def pointwise_conv(x, weight):
    flat = channels_last(x)
    out = channels_first(flat @ weight, x.shape)

    def backward(g):
        g_flat = channels_last(g)
        return channels_first(g_flat @ weight.T, x.shape), flat.T @ g_flat

    return out, backward


def max_pool(x, axis):
    """Max over ``axis`` (2 = frames, 3 = joints), copied back over it;
    the gradient goes to the first maximum."""
    idx = x.argmax(axis=axis)
    peak = np.take_along_axis(x, np.expand_dims(idx, axis), axis=axis)
    out = np.broadcast_to(peak, x.shape).copy()

    def backward(g):
        dx = np.zeros_like(x)
        np.put_along_axis(dx, np.expand_dims(idx, axis),
                          g.sum(axis=axis, keepdims=True), axis=axis)
        return (dx,)

    return out, backward


def block_epilogue(conv, x, weight, bias, res):
    """``relu(add(add(bias_add(conv(x, weight), bias), res),
    max_pool_frames(res)))`` on engine tensors: the bias, the residual
    and its frame peak each added by an op of its own."""
    h = ad.bias_add(conv(x, weight), bias)
    return ad.relu(ad.add(ad.add(h, res), ad.max_pool_frames(res)))
