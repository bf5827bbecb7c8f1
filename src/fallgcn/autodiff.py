"""Dense float64 tensors with reverse-mode differentiation.

The engine covers exactly the operations the fall-detection network
needs: matmul, elementwise add/multiply, relu, temporal convolutions
(depthwise and dense), pointwise 1x1 convolution, max pooling over
frames/joints, global average pooling, layer normalization, dropout,
channel concatenation, softmax, and cross-entropy.

Activations keep one layout, [N, C, T, V], and the convolution kernels
work on it natively: flattening (frame, joint) into one axis turns the
pointwise convolution into one batched matrix product per call, the
temporal taps into strided windows of an input padded once, and the
dense temporal convolution into a single stacked (im2col) matrix
product. No
op transposes its input to another layout and back.

Every op runs eagerly on numpy arrays. While a :class:`GradTape` is
active, ops whose inputs require gradients append a record; the
backward pass replays the records in exact reverse execution order and
accumulates analytic gradients. With no tape active, ops are plain
forward computations (evaluation mode).

A record holds no :class:`Tensor`: only the output's key, the keys of
the inputs that need a gradient, and a backward closure that captures
just the arrays, shapes and flags its backward reads. So an activation
no backward reads is freed as soon as the forward code drops it, and
one that is read is freed once the backward walk has replayed its last
reader, because the walk pops each record as it goes. Gradients are
accumulated by :attr:`Tensor.key`, a process-unique counter, and not by
``id()``: a freed tensor's ``id()`` can be reused by a later one, which
would merge two gradients. A tape is therefore single-use.

Importing the module tunes the C allocator once: it sets
``M_MMAP_THRESHOLD`` to 32 MiB (glibc's ceiling) and ``M_TRIM_THRESHOLD``
to 1 GiB. Every op returns a fresh array of 0.1-10 MB, and glibc would
otherwise hand the heap freed after a train step or an evaluation batch
back to the OS, so the next one faulted it in again: about 15k minor
faults (~60 MB) per desk train step. With both settings freed memory
stays mapped and is reused. Both are needed: setting either turns off
glibc's dynamic mmap threshold, so the trim threshold alone leaves
mid-size arrays to a fresh ``mmap`` each time, which is slower still.
Arrays over 32 MiB still come from ``mmap`` and go back to the OS when
freed. This is glibc-only: where ``mallopt`` is missing or a stub
(macOS, musl) nothing is changed. No arithmetic depends on it.
"""
from __future__ import annotations

import ctypes
import itertools
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when an op receives incompatible tensor shapes."""


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Tell glibc to serve arrays up to 32 MiB from the heap and to keep
    freed heap mapped; a no-op where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_heap_mapped()


_KEYS = itertools.count()


class Tensor:
    """Dense multi-dimensional array of 64-bit reals.

    ``requires_grad`` marks trainable leaves; it propagates to op
    outputs so the tape only tracks the differentiable subgraph.
    ``key`` is unique within the process and names the tensor on a tape.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


# Backward fn: upstream gradient -> one gradient (or None) per input. The
# tape drops the gradient of an input that needs none, so a cheap one may
# be returned anyway.
BackwardFn = Callable[[np.ndarray], tuple]

_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Records differentiable ops in execution order.

    Use as a context manager around the forward pass, then call
    :meth:`gradients` with the scalar loss. The backward walk visits
    records strictly in reverse execution order, so gradients for a
    tensor are fully accumulated before its producing op runs.

    A record is ``(output key, input keys, backward)``, with ``None`` for
    an input that needs no gradient; it pins no :class:`Tensor`, so keys
    and not ``id()`` identify tensors. :meth:`gradients` pops each record
    as it replays it, which frees the arrays its closure held: the tape
    can be replayed only once.
    """

    def __init__(self) -> None:
        self._ops: list[tuple[int, tuple[int | None, ...], BackwardFn]] = []
        self._replayed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._ops)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: BackwardFn) -> None:
        keys = tuple(t.key if t.requires_grad else None for t in inputs)
        self._ops.append((out.key, keys, backward))

    def gradients(self, loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
        """Reverse-mode gradients of ``loss`` with respect to ``params``.

        Parameters that do not influence the loss get exactly-zero
        gradients. ``loss`` must be a scalar produced under this tape.
        Consumes the tape: a second call raises ``RuntimeError``.
        """
        if self._replayed:
            raise RuntimeError("backward: this tape was already replayed; "
                               "record a new GradTape for each backward pass")
        if loss.data.shape != ():
            raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
        self._replayed = True
        accum: dict[int, np.ndarray] = {loss.key: np.ones((), dtype=np.float64)}
        ops = self._ops
        while ops:
            out_key, in_keys, backward = ops.pop()
            g = accum.pop(out_key, None)
            if g is None:
                continue
            for key, grad in zip(in_keys, backward(g)):
                if key is None or grad is None:
                    continue
                prev = accum.get(key)
                accum[key] = grad if prev is None else prev + grad
        return [
            np.array(accum[p.key]) if p.key in accum else np.zeros_like(p.data)
            for p in params
        ]


def _tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward: BackwardFn) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _tape()
    if tape is not None and out.requires_grad:
        tape.record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def backward(g):
        return (g, g)

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ, {a.shape} vs {b.shape}")
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (
            g * b_data if b_data is not None else None,
            g * a_data if a_data is not None else None,
        )

    return _make(a.data * b.data, (a, b), backward)


def scale(x: Tensor, factor) -> Tensor:
    """Multiply by a non-trainable scalar or array constant."""
    factor = np.asarray(factor, dtype=np.float64)
    data = x.data * factor
    if data.shape != x.shape:
        raise ShapeError(f"scale: factor shape {factor.shape} does not fit {x.shape}")

    def backward(g):
        return (g * factor,)

    return _make(data, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (
            g @ b_data.T if b_data is not None else None,
            a_data.T @ g if a_data is not None else None,
        )

    return _make(a.data @ b.data, (a, b), backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias along axis 1 of a 2-D or 4-D tensor."""
    if b.ndim != 1 or x.ndim < 2 or b.shape[0] != x.shape[1]:
        raise ShapeError(f"bias_add: bias {b.shape} does not match axis 1 of {x.shape}")
    view = b.data.reshape((1, -1) + (1,) * (x.ndim - 2))
    reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    b_grad = b.requires_grad

    def backward(g):
        return (g, g.sum(axis=reduce_axes) if b_grad else None)

    return _make(x.data + view, (x, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g):
        return (g * mask,)

    return _make(np.maximum(x.data, 0.0), (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return _make(np.asarray(x.data.sum()), (x,), backward)


# ---------------------------------------------------------------------------
# convolutions on [N, C, T, V] tensors


def _check_nctv(name: str, x: Tensor) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name}: expected a [N,C,T,V] tensor, got shape {x.shape}")


def _frame_windows(x: np.ndarray, k_t: int) -> np.ndarray:
    """Read-only [N, C, k_t, T*V] view of ``x`` [N,C,T,V] zero-padded once.

    ``windows[n, c, i, t*V + j] = x[n, c, t + i - k_t//2, j]``, zero where
    that frame is out of range: with (frame, joint) flattened, tap i of
    every output position is one slice of the padded input, so the k_t
    taps are strided views of a single buffer.
    """
    n, c, t, v = x.shape
    r = k_t // 2
    padded = np.zeros((n, c, t + 2 * r, v))
    padded[:, :, r:r + t] = x
    flat = padded.reshape(n, c, (t + 2 * r) * v)
    return sliding_window_view(flat, t * v, axis=2)[:, :, ::v]


def depthwise_tconv(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel temporal convolution, kernel [C, k_t], zero 'same' padding.

    Never mixes channels or joints; k_t must be odd so T is preserved.
    """
    _check_nctv("depthwise_tconv", x)
    if kernel.ndim != 2 or kernel.shape[0] != x.shape[1]:
        raise ShapeError(
            f"depthwise_tconv: kernel {kernel.shape} does not match input {x.shape}"
        )
    k_t = kernel.shape[1]
    if k_t % 2 != 1:
        raise ShapeError(f"depthwise_tconv: kernel width {k_t} must be odd")
    shape = n, c, t, v = x.shape
    windows = _frame_windows(x.data, k_t)
    out = np.einsum("ncit,ci->nct", windows, kernel.data).reshape(shape)
    # tap i reads frame t+i-r, so frame t gets gradient from output t-i+r:
    # the same windows over g with the taps reversed
    flipped = kernel.data[:, ::-1] if x.requires_grad else None
    if not kernel.requires_grad:
        windows = None

    def backward(g):
        dx = None
        if flipped is not None:
            dx = np.einsum("ncit,ci->nct", _frame_windows(g, k_t), flipped).reshape(shape)
        dk = None
        if windows is not None:
            dk = np.einsum("ncit,nct->ci", windows, g.reshape(n, c, t * v))
        return (dx, dk)

    return _make(out, (x, kernel), backward)


def dense_tconv(x: Tensor, kernel: Tensor) -> Tensor:
    """Full temporal convolution, kernel [C_out, C_in, k_t], zero 'same' padding."""
    _check_nctv("dense_tconv", x)
    if kernel.ndim != 3 or kernel.shape[1] != x.shape[1]:
        raise ShapeError(
            f"dense_tconv: kernel {kernel.shape} does not match input {x.shape}"
        )
    c_out, c_in, k_t = kernel.shape
    if k_t % 2 != 1:
        raise ShapeError(f"dense_tconv: kernel width {k_t} must be odd")
    r = k_t // 2
    shape = n, _, t, v = x.shape
    # im2col: row c*k_t + i of the columns is tap i of input channel c,
    # which is also the row-major order of the kernel's last two axes
    w2 = kernel.data.reshape(c_out, c_in * k_t)

    def columns(x_data: np.ndarray) -> np.ndarray:
        return _frame_windows(x_data, k_t).reshape(n, c_in * k_t, t * v)

    out = np.matmul(w2, columns(x.data)).reshape(n, c_out, t, v)
    x_data = x.data if kernel.requires_grad else None
    if not x.requires_grad:
        w2 = None

    def backward(g):
        g3 = g.reshape(n, c_out, t * v)
        dx = None
        if w2 is not None:
            d_cols = np.matmul(w2.T, g3).reshape(n, c_in, k_t, t * v)
            padded = np.zeros((n, c_in, (t + 2 * r) * v))
            for i in range(k_t):
                padded[:, :, i * v:i * v + t * v] += d_cols[:, :, i]
            dx = padded[:, :, r * v:r * v + t * v].reshape(shape)
        dk = None
        if x_data is not None:
            dk = np.matmul(g3, columns(x_data).transpose(0, 2, 1)).sum(axis=0).reshape(
                c_out, c_in, k_t)
        return (dx, dk)

    return _make(out, (x, kernel), backward)


def pointwise_conv(x: Tensor, weight: Tensor) -> Tensor:
    """1x1 convolution: mixes channels, never frames or joints. weight [C_in, C_out]."""
    _check_nctv("pointwise_conv", x)
    if weight.ndim != 2 or weight.shape[0] != x.shape[1]:
        raise ShapeError(
            f"pointwise_conv: weight {weight.shape} does not match input {x.shape}"
        )
    shape = n, c, t, v = x.shape
    x3 = x.data.reshape(n, c, t * v)
    out = np.matmul(weight.data.T, x3).reshape(n, -1, t, v)
    w = weight.data if x.requires_grad else None
    if not weight.requires_grad:
        x3 = None

    def backward(g):
        g3 = g.reshape(n, -1, t * v)
        dx = np.matmul(w, g3).reshape(shape) if w is not None else None
        dw = np.matmul(x3, g3.transpose(0, 2, 1)).sum(axis=0) if x3 is not None else None
        return (dx, dw)

    return _make(out, (x, weight), backward)


def spatial_aggregate(x: Tensor, adj: Tensor) -> Tensor:
    """Per-frame neighbor aggregation: out[..., i] = sum_j adj[i, j] * x[..., j]."""
    _check_nctv("spatial_aggregate", x)
    v = x.shape[3]
    if adj.shape != (v, v):
        raise ShapeError(
            f"spatial_aggregate: adjacency {adj.shape} does not match joints of {x.shape}"
        )
    shape = x.shape
    flat = x.data.reshape(-1, v)
    out = (flat @ adj.data.T).reshape(shape)
    adj_data = adj.data if x.requires_grad else None
    if not adj.requires_grad:
        flat = None

    def backward(g):
        g_flat = g.reshape(-1, v)
        dx = (g_flat @ adj_data).reshape(shape) if adj_data is not None else None
        dadj = g_flat.T @ flat if flat is not None else None
        return (dx, dadj)

    return _make(out, (x, adj), backward)


# ---------------------------------------------------------------------------
# pooling


def _max_pool_axis(x: Tensor, axis: int, opname: str) -> Tensor:
    _check_nctv(opname, x)
    idx = x.data.argmax(axis=axis)
    peak = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    shape = x.shape
    out = np.broadcast_to(peak, shape)  # a view: the peak is stored once

    def backward(g):
        total = g.sum(axis=axis, keepdims=True)
        dx = np.zeros(shape)
        np.put_along_axis(dx, np.expand_dims(idx, axis), total, axis=axis)
        return (dx,)

    return _make(out, (x,), backward)


def max_pool_frames(x: Tensor) -> Tensor:
    """Max over the frame axis, broadcast back over T (emphasizes peak frames)."""
    return _max_pool_axis(x, 2, "max_pool_frames")


def max_pool_joints(x: Tensor) -> Tensor:
    """Max over the joint axis, broadcast back over V (emphasizes active joints)."""
    return _max_pool_axis(x, 3, "max_pool_joints")


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, T, V] -> [N, C] by averaging every (frame, joint) position."""
    _check_nctv("global_avg_pool", x)
    shape = n, c, t, v = x.shape

    def backward(g):
        return (np.broadcast_to(g[:, :, None, None] / (t * v), shape).copy(),)

    return _make(x.data.mean(axis=(2, 3)), (x,), backward)


# ---------------------------------------------------------------------------
# normalization, dropout, fusion, classification


LAYER_NORM_EPS = 1e-12


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the channel axis (axis 1) per remaining position."""
    if x.ndim < 2:
        raise ShapeError(f"layer_norm: need at least 2 dims, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} do not match "
            f"channel count of {x.shape}"
        )
    pshape = (1, c) + (1,) * (x.ndim - 2)
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    out = gamma.data.reshape(pshape) * xhat + beta.data.reshape(pshape)
    reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    gamma_b = gamma.data.reshape(pshape) if x.requires_grad else None
    gamma_grad, beta_grad = gamma.requires_grad, beta.requires_grad

    def backward(g):
        dx = None
        if gamma_b is not None:
            dxhat = g * gamma_b
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            dx = inv_std * (dxhat - m1 - xhat * m2)
        dgamma = (g * xhat).sum(axis=reduce_axes) if gamma_grad else None
        dbeta = g.sum(axis=reduce_axes) if beta_grad else None
        return (dx, dgamma, dbeta)

    return _make(out, (x, gamma, beta), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None,
            active: bool = True) -> Tensor:
    """Inverted dropout: scales by the keep probability at train time so
    evaluation mode is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not active or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: active dropout needs an explicit rng for determinism")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g):
        return (g * keep,)

    return _make(x.data * keep, (x,), backward)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along axis 1; all other axes must agree."""
    if not tensors:
        raise ShapeError("concat_channels: nothing to concatenate")
    base = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(base) or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ShapeError(
                f"concat_channels: shape {t.shape} incompatible with {base}"
            )
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), backward)


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax of a [N, K] tensor; outputs are positive and sum to 1."""
    if x.ndim != 2:
        raise ShapeError(f"softmax: expected [N,K], got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _make(p, (x,), backward)


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``probs`` [N, K].

    Every label must be an integer class in [0, K): a negative one would
    silently index from the end.
    """
    if probs.ndim != 2:
        raise ShapeError(f"cross_entropy: expected [N,K] probabilities, got {probs.shape}")
    labels = np.asarray(labels)
    n, k = probs.shape
    if labels.shape != (n,):
        raise ShapeError(
            f"cross_entropy: labels shape {labels.shape} does not match batch {n}"
        )
    bad = (labels < 0) | (labels >= k) if labels.dtype.kind in "iu" else np.ones(n, bool)
    if bad.any():
        i = int(bad.argmax())
        raise ShapeError(
            f"cross_entropy: label {labels[i:i + 1].tolist()[0]!r} at index {i} "
            f"is not an integer class in [0, {k})"
        )
    picked = probs.data[np.arange(n), labels]
    loss = np.asarray(-np.log(picked).mean())
    shape = probs.shape

    def backward(g):
        dp = np.zeros(shape)
        dp[np.arange(n), labels] = -float(g) / (n * picked)
        return (dp,)

    return _make(loss, (probs,), backward)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error of tape gradients against central differences.

    ``f`` must rebuild the scalar loss from the current parameter values
    on every call, with dropout and masking disabled so the function is
    smooth at the evaluation point. The numeric side perturbs one
    coordinate at a time: (f(p+eps) - f(p-eps)) / (2 eps).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    with GradTape() as tape:
        loss = f()
    if loss.data.shape != ():
        raise ValueError(f"grad_check: f must return a scalar, got shape {loss.shape}")
    analytic = tape.gradients(loss, params)

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + eps
            hi = f().item()
            flat[i] = kept - eps
            lo = f().item()
            flat[i] = kept
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
