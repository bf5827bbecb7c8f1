"""Dense float64 tensors with reverse-mode differentiation.

The engine covers exactly the operations the fall-detection network
needs: matmul, elementwise add/multiply, per-channel bias, relu of a sum
of terms, temporal convolutions (depthwise and dense), pointwise 1x1
convolution, max pooling over frames/joints, global average pooling,
layer normalization, dropout, channel concatenation, softmax, and
cross-entropy.

A GSTCN block ends in two ops where the composed form takes five: the
dense temporal and the pointwise convolution take an optional bias,
added in place into each slice of their output, and ``relu(*terms)``
adds its terms left to right into one buffer before rectifying it. Each
addition is the one ``relu(add(add(bias_add(conv), res), pool))`` would
make, so the bits are the same. ``add`` and ``max_pool_joints`` must
stay defined though the model no longer calls them:
``perfbench/tracing.py`` wraps every op named in its ``TRACED_OPS`` by
reading it from this module's namespace, and a missing one raises
``KeyError`` in every traced run.

Activations keep one layout, [N, C, T, V], and the convolution kernels
work on it natively: flattening (frame, joint) into one axis turns the
temporal taps into strided windows of an input padded once, and the
dense temporal convolution into a single stacked (im2col) matrix
product. The pointwise convolution is its one-tap case: weight W
[C_in, C_out] is the kernel Wᵀ[:, :, None], whose columns are a reshape
of the input, so one kernel, ``_tap_conv``, runs both. No op transposes
its input to another layout and back.

Every convolution's input gradient is its own forward run on the
upstream gradient ``g``, with the weight transposed and the taps
flipped: ``spatial_aggregate`` multiplies by A where it used Aᵀ, and the
tap convolutions slide their windows over ``g`` with the kernel reversed
along k_t (``_tap_conv`` also swaps C_out and C_in). So no backward
scatters columns back into frames. ``_tap_conv`` stacks each sample's
kernel gradient as [C_in*k_t, C_out], the columns times ``g``ᵀ, the
orientation the pointwise weight gradient always had: in the other one
OpenBLAS sums the pointwise gradients in another order, and the pinned
separable desk loss moves by 1 ulp.

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

The samples of a batch are independent in every kernel but the batch
reductions, so each per-sample computation is split over the batch:
the pointwise, depthwise and dense temporal convolutions and the
spatial aggregation (forward and input gradient, plus the per-sample
weight-gradient stacks, the bias added into a convolution's output),
the frame/joint max pools, the global average pool's forward mean (a
reduction within each sample), add, bias_add, scale, relu, and the
tape's sum of two gradients. One function, ``_split_batch``, cuts the
batch, by size alone, into contiguous slices of at least
``_MIN_SLICE_SIZE`` elements, which up to ``usable CPUs // OpenBLAS
threads`` threads, the caller and helpers, take in turn and write into
one preallocated output; every BLAS call and ufunc loop of a sample is
the one it would be unsplit, so results are bit-identical however the
batch was cut. With one usable CPU, with OpenBLAS using every CPU or
with an unknown thread count, the slices run one after another on the
caller's thread; a batch of one (single-clip inference) and a small
array are one call on the whole array.

A backward's batch reductions that read only the op's inputs and ``g``
(the depthwise kernel gradient, the adjacency gradient and the bias sum
of ``_tap_conv``) go into the same ``_run_shared`` call as its slices,
ahead of them, so one thread runs a reduction while another takes
slices. Each is the numpy call it would be alone, on the same arrays, so
its bits do not depend on the thread. What needs the slices' results,
the sum over N of the per-sample kernel gradients, runs after them on
the caller, as does layer norm.

One loop, ``_run_shared``, hands work to the helper threads, and it
alone decides whether work is shared. The batch split gives it the
slices of a batch; a one-clip evaluation forward
(``ThreeStreamModel.stream_features``, no tape active) gives it its
independent streams; ``training.evaluate`` gives it whole evaluation
batches. While a thread runs shared work, a context variable marks it,
and any work it shares in turn runs in order on that same thread: an
op inside an evaluation batch runs its slices one after another, so
its temporaries stay slice-sized, and a stream of a one-clip batch
runs after the other. So no helper ever waits on the pool.

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
freed. It also sets ``M_ARENA_MAX`` to 1, so the helper threads'
temporaries come from the same heap instead of a second arena that
keeps its own freed memory mapped. In 35 s benchmark runs (2-core Xeon,
seeds 1 and 2) peak RSS read 201.7-206.8 MB on ``train-desk`` and
200.8-205.3 MB on ``infer-coco18`` without the cap, 197.1-197.2 and
191.4-191.8 MB with it, and 195.1-195.2 and 190.1-190.3 MB unsplit.
This is glibc-only: where ``mallopt`` is missing or a stub
(macOS, musl) nothing is changed. No arithmetic depends on it.
"""
from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from types import EllipsisType
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when an op receives incompatible tensor shapes."""


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_heap_mapped() -> None:
    """Tell glibc to serve arrays up to 32 MiB from the heap, to keep
    freed heap mapped and to keep one arena for all threads; a no-op
    where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_heap_mapped()


def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded uses; None if unknown."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = ()
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _batch_parts() -> int:
    """Usable CPUs over BLAS threads: the CPUs that per-sample BLAS calls
    leave idle. One where either count is unknown."""
    blas = _blas_threads()
    if not blas or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, len(os.sched_getaffinity(0)) // blas)


# The most threads that share work; see _run_shared.
_BATCH_PARTS = _batch_parts()
# Elements a slice of the batch must cover, 1 MiB of float64. On a 2-core
# VM with one BLAS thread, handing two no-op calls to _run_shared took
# 35 us. An add on [4, 64, 32, 9] ran in 31 us whole and 67 us in two
# slices; on [8, 64, 32, 9], just over 2^17 elements and so left whole,
# in 78 and 85 us; on [16, 64, 32, 9], cut in two, in 172 and 158 us.
# (Inputs not in cache, medians of 300.)
_MIN_SLICE_SIZE = 1 << 17
_POOL: tuple[int, ThreadPoolExecutor] | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """This process's helper threads, started on first use; a forked
    child starts its own."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            _POOL = (os.getpid(), ThreadPoolExecutor(max(1, _BATCH_PARTS - 1),
                                                     thread_name_prefix="fallgcn-batch"))
        return _POOL[1]


# True on a thread while it runs shared work; see _run_shared.
_IN_SHARED = contextvars.ContextVar("fallgcn_in_shared", default=False)


def _run_shared(fns: Sequence[Callable[[], object]]) -> list:
    """``[fn() for fn in fns]``, with the calls shared between the caller
    and up to ``_BATCH_PARTS - 1`` helper threads.

    The threads take the calls in turn from one shared iterator, each
    helper in a copy of the caller's context (numpy's ``errstate`` is a
    context variable). A helper that a busy CPU holds back so delays one
    call rather than its share of them, and one that has not started
    when the caller runs out of calls is cancelled. A call that raises
    does not stop the others: once every call has run, the exception of
    the first call in ``fns`` order that raised is raised.

    Each thread marks itself as running shared work while it takes
    calls, and work shared from inside shared work runs in order on the
    calling thread: so a call may itself share work, say an op's batch
    slices, and no helper ever waits on the pool.
    """
    helpers = min(len(fns), _BATCH_PARTS) - 1
    if helpers <= 0 or _IN_SHARED.get():
        return [fn() for fn in fns]
    results: list = [None] * len(fns)
    errors: dict[int, Exception] = {}
    todo = iter(list(enumerate(fns)))

    def drain() -> None:
        marked = _IN_SHARED.set(True)
        try:
            for i, fn in todo:  # shared by the threads: each next() holds the GIL
                try:
                    results[i] = fn()
                except Exception as exc:
                    errors[i] = exc
        finally:
            _IN_SHARED.reset(marked)

    pool = _pool()
    futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
    for future in futures:
        if not future.cancelled():
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _split_batch(work: np.ndarray, fn: Callable[[slice | EllipsisType], None],
                 *whole: Callable[[], object] | None) -> list:
    """Call ``fn(s)`` once for each slice ``s`` of a cut of the batch axis
    (axis 0) of ``work``, the op's output or upstream gradient, and each
    of the ``whole`` calls once; return the results of ``whole`` in
    order, None for a None call.

    ``fn`` writes the samples of ``s`` into an output the caller
    allocated, so the result does not depend on how the batch was cut or
    on which thread ran a slice. The batch is cut by size alone, into
    ``min(N, work.size // _MIN_SLICE_SIZE)`` slices, which
    :func:`_run_shared` shares between the caller and the helper
    threads, or runs one after another on the caller inside shared work
    or with one usable CPU: so an op's temporaries, such as
    ``dense_tconv``'s stacked columns, stay slice-sized wherever it runs.
    A batch too small to cut, or a 0-d ``work``, is one ``fn(...)`` call.

    A ``whole`` call is one of the op's batch reductions: it reads only
    what no slice writes, and it is the numpy call it would be on its
    own, so it keeps its bits on any thread. It goes ahead of the slices
    in the list :func:`_run_shared` shares, so one thread runs it while
    the others take slices; where the slices run in order on the caller,
    so do the reductions.
    """
    n = work.shape[0] if work.ndim else 1
    cuts = min(n, work.size // _MIN_SLICE_SIZE)
    if cuts <= 1:
        fn(...)
        # most calls pass no reduction; skip building an empty list then
        return [None if call is None else call() for call in whole] if whole else []
    calls = [call for call in whole if call is not None]
    bounds = [n * i // cuts for i in range(cuts + 1)]
    done = iter(_run_shared(calls + [partial(fn, slice(lo, hi))
                                     for lo, hi in zip(bounds[:-1], bounds[1:])]))
    return [None if call is None else next(done) for call in whole]


def _batched(ufunc: np.ufunc, a: np.ndarray, b) -> np.ndarray:
    """``ufunc(a, b)``, split over the batch (axis 0) of ``a``.

    ``b`` broadcasts to ``a``'s shape and is sliced with ``a`` when it
    has a batch axis of its own. The result has ``a``'s memory layout,
    as numpy's own would have: a later matmul's sum order depends on it.
    """
    out = np.empty_like(a)
    b_batched = getattr(b, "ndim", 0) == a.ndim > 0 and b.shape[0] != 1
    _split_batch(out, lambda s: ufunc(a[s], b[s] if b_batched else b, out=out[s]))
    return out


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
                accum[key] = grad if prev is None else _batched(np.add, prev, grad)
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

    return _make(_batched(np.add, a.data, b.data), (a, b), backward)


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
    if factor.ndim > x.ndim or any(f not in (1, d) for f, d in zip(factor.shape[::-1],
                                                                    x.shape[::-1])):
        raise ShapeError(f"scale: factor shape {factor.shape} does not fit {x.shape}")

    def backward(g):
        return (_batched(np.multiply, g, factor),)

    return _make(_batched(np.multiply, x.data, factor), (x,), backward)


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

    return _make(_batched(np.add, x.data, view), (x, b), backward)


def relu(*terms: Tensor) -> Tensor:
    """``max(sum(terms), 0)`` of one or more same-shape terms.

    The terms are added left to right into one fresh buffer with the
    first term's memory layout, which is then rectified in place, so
    ``relu(a, b, c)`` has the bits of ``relu(add(add(a, b), c))`` and
    allocates one array instead of three. Every term gets the same
    gradient, ``g`` where the sum is positive and 0 elsewhere.
    """
    if not terms:
        raise ShapeError("relu: no terms to rectify")
    shape = terms[0].shape
    for t in terms[1:]:
        if t.shape != shape:
            raise ShapeError(f"relu: shapes differ, {shape} vs {t.shape}")
    first, *rest = (t.data for t in terms)
    out = np.empty_like(first)
    # only a recorded relu reads its mask
    mask = None
    if _tape() is not None and any(t.requires_grad for t in terms):
        mask = np.empty(shape, dtype=bool)

    def rectify(s):
        total = first[s]
        if rest:
            total = np.add(total, rest[0][s], out=out[s])
            for term in rest[1:]:
                np.add(total, term[s], out=total)
        if mask is not None:
            np.greater(total, 0.0, out=mask[s])
        np.maximum(total, 0.0, out=out[s])

    _split_batch(out, rectify)
    count = len(terms)

    def backward(g):
        return (_batched(np.multiply, g, mask),) * count

    return _make(out, terms, backward)


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


def _pad_frames(x: np.ndarray, padded: np.ndarray) -> None:
    """Write ``x`` [N,C,T,V] into ``padded`` [N,C,T+2r,V], r zero frames
    on each side."""
    t = x.shape[2]
    r = (padded.shape[2] - t) // 2
    padded[:, :, :r] = 0.0
    padded[:, :, r + t:] = 0.0
    padded[:, :, r:r + t] = x


def _windows(padded: np.ndarray, k_t: int) -> np.ndarray:
    """Read-only [N, C, k_t, T*V] view of a ``padded`` [N,C,T+k_t-1,V].

    ``windows[n, c, i, t*V + j] = x[n, c, t + i - k_t//2, j]``, zero where
    that frame is out of range: with (frame, joint) flattened, tap i of
    every output position is one slice of the padded input, so the k_t
    taps are strided views of a single buffer.
    """
    n, c, tp, v = padded.shape
    t = tp - (k_t - 1)
    return sliding_window_view(padded.reshape(n, c, tp * v), t * v, axis=2)[:, :, ::v]


def _frame_windows(x: np.ndarray, k_t: int) -> np.ndarray:
    """:func:`_windows` of ``x`` [N,C,T,V] padded into a new buffer; with
    one tap, a reshape of ``x`` itself, since there is nothing to pad."""
    n, c, t, v = x.shape
    if k_t == 1:
        return x.reshape(n, c, 1, t * v)
    padded = np.empty((n, c, t + k_t - 1, v))
    _pad_frames(x, padded)
    return _windows(padded, k_t)


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
    x_data, k_data = x.data, kernel.data
    # one padded buffer for the whole batch: the kernel gradient reads it
    padded = np.empty((n, c, t + k_t - 1, v))
    windows = _windows(padded, k_t)
    out = np.empty((n, c, t * v))

    def forward(s):
        _pad_frames(x_data[s], padded[s])
        np.einsum("ncit,ci->nct", windows[s], k_data, out=out[s])

    _split_batch(out, forward)
    # tap i reads frame t+i-r, so frame t gets gradient from output t-i+r:
    # the same windows over g with the taps reversed
    flipped = k_data[:, ::-1] if x.requires_grad else None
    if not kernel.requires_grad:
        windows = None

    def backward(g):
        g3 = g.reshape(n, c, t * v)
        dx = np.empty((n, c, t * v)) if flipped is not None else None

        def part(s):
            if dx is not None:
                np.einsum("ncit,ci->nct", _frame_windows(g[s], k_t), flipped, out=dx[s])

        dk, = _split_batch(g3, part, None if windows is None else
                           partial(np.einsum, "ncit,nct->ci", windows, g3))
        return (dx.reshape(shape) if dx is not None else None, dk)

    return _make(out.reshape(shape), (x, kernel), backward)


def _tap_conv(name: str, x: Tensor, weight: Tensor, kernel: np.ndarray,
              bias: Tensor | None, weight_grad: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Convolution of ``x`` [N,C_in,T,V] over frames with ``kernel``
    [C_out, C_in, k_t] (``weight``'s data or a view of it), zero 'same'
    padding, plus an optional per-channel ``bias`` [C_out]: one stacked
    (im2col) matrix product per batch slice.

    The bias is added in place into each slice of the batch right after
    that slice's matrix product, so the result has the bits of
    ``bias_add(conv, bias)`` without its extra array. The kernel gradient
    is stacked as [C_in*k_t, C_out], summed over the batch, and
    ``weight_grad`` maps it to ``weight``'s shape.
    """
    c_out, c_in, k_t = kernel.shape
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"{name}: bias {bias.shape} does not match {c_out} output channels")
    b_col = None if bias is None else bias.data.reshape(c_out, 1)
    shape = n, _, t, v = x.shape
    # im2col: row c*k_t + i of the columns is tap i of channel c, which is
    # also the row-major order of the kernel's last two axes; each slice
    # builds the columns of its own samples only
    w2 = kernel.reshape(c_out, c_in * k_t)

    def columns(part: np.ndarray) -> np.ndarray:
        return _frame_windows(part, k_t).reshape(len(part), -1, t * v)

    x_data = x.data
    out = np.empty((n, c_out, t * v))

    def forward(s):
        np.matmul(w2, columns(x_data[s]), out=out[s])
        if b_col is not None:
            out[s] += b_col

    _split_batch(out, forward)
    if not weight.requires_grad:
        x_data = None
    k_data = kernel if x.requires_grad else None
    b_grad = bias is not None and bias.requires_grad

    def backward(g):
        g3 = g.reshape(n, c_out, t * v)
        dx = dk = None
        if k_data is not None:
            # this forward on g, with the kernel [C_in, C_out, k_t] taps reversed
            w2_flip = k_data[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k_t)
            dx = np.empty((n, c_in, t * v))
        if x_data is not None:
            # per-sample kernel gradients, summed over the batch below
            dk = np.empty((n, c_in * k_t, c_out))

        def part(s):
            if dx is not None:
                np.matmul(w2_flip, columns(g[s]), out=dx[s])
            if dk is not None:
                np.matmul(columns(x_data[s]), g3[s].transpose(0, 2, 1), out=dk[s])

        db, = _split_batch(g3, part, partial(g.sum, axis=(0, 2, 3)) if b_grad else None)
        return (dx.reshape(shape) if dx is not None else None,
                weight_grad(dk.sum(axis=0)) if dk is not None else None,
                db)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(out.reshape(n, c_out, t, v), inputs, backward)


def dense_tconv(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Full temporal convolution, kernel [C_out, C_in, k_t], zero 'same'
    padding, plus an optional per-channel ``bias`` [C_out]."""
    _check_nctv("dense_tconv", x)
    if kernel.ndim != 3 or kernel.shape[1] != x.shape[1]:
        raise ShapeError(
            f"dense_tconv: kernel {kernel.shape} does not match input {x.shape}"
        )
    c_out, c_in, k_t = kernel.shape
    if k_t % 2 != 1:
        raise ShapeError(f"dense_tconv: kernel width {k_t} must be odd")
    return _tap_conv("dense_tconv", x, kernel, kernel.data, bias,
                     lambda dk: dk.T.reshape(c_out, c_in, k_t))


def pointwise_conv(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """1x1 convolution: mixes channels, never frames or joints. weight
    [C_in, C_out], plus an optional per-channel ``bias`` [C_out]."""
    _check_nctv("pointwise_conv", x)
    if weight.ndim != 2 or weight.shape[0] != x.shape[1]:
        raise ShapeError(
            f"pointwise_conv: weight {weight.shape} does not match input {x.shape}"
        )
    # the one-tap kernel [C_out, C_in, 1], whose stacked gradient is weight's
    return _tap_conv("pointwise_conv", x, weight, weight.data.T[:, :, None], bias,
                     lambda dk: dk)


def spatial_aggregate(x: Tensor, adj: Tensor) -> Tensor:
    """Per-frame neighbor aggregation: out[..., i] = sum_j adj[i, j] * x[..., j]."""
    _check_nctv("spatial_aggregate", x)
    v = x.shape[3]
    if adj.shape != (v, v):
        raise ShapeError(
            f"spatial_aggregate: adjacency {adj.shape} does not match joints of {x.shape}"
        )
    shape = x.shape
    x_data, adj_t = x.data, adj.data.T
    out = np.empty(shape)
    _split_batch(out, lambda s: np.matmul(x_data[s].reshape(-1, v), adj_t,
                                        out=out[s].reshape(-1, v)))
    adj_data = adj.data if x.requires_grad else None
    flat = x_data.reshape(-1, v) if adj.requires_grad else None

    def backward(g):
        dx = np.empty(shape) if adj_data is not None else None

        def part(s):
            if dx is not None:
                np.matmul(g[s].reshape(-1, v), adj_data, out=dx[s].reshape(-1, v))

        dadj, = _split_batch(g, part, None if flat is None else
                             lambda: g.reshape(-1, v).T @ flat)
        return (dx, dadj)

    return _make(out, (x, adj), backward)


# ---------------------------------------------------------------------------
# pooling


def _max_pool_axis(x: Tensor, axis: int, opname: str) -> Tensor:
    _check_nctv(opname, x)
    shape = x.shape
    data = x.data
    pooled = shape[:axis] + (1,) + shape[axis + 1:]
    idx = np.empty(pooled, dtype=np.intp)
    peak = np.empty(pooled)

    def forward(s):
        np.argmax(data[s], axis=axis, keepdims=True, out=idx[s])
        peak[s] = np.take_along_axis(data[s], idx[s], axis=axis)

    _split_batch(data, forward)
    out = np.broadcast_to(peak, shape)  # a view: the peak is stored once

    def backward(g):
        dx = np.empty(shape)
        # g.sum(axis=2) adds the frames one after another when the joints
        # are its inner loop, and einsum does the same in one pass, 4-5x
        # faster at [32, 128, 32, 9]. Where the frames are the inner loop,
        # with one joint above all, numpy sums them pairwise instead, so
        # only g.sum keeps its bits there.
        one_pass = axis == 2 and shape[3] > 1 and g.strides[3] == g.itemsize

        def part(s):
            dx[s] = 0.0
            total = (np.einsum("nctv->ncv", g[s])[:, :, None] if one_pass
                     else g[s].sum(axis=axis, keepdims=True))
            np.put_along_axis(dx[s], idx[s], total, axis=axis)

        _split_batch(dx, part)
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
    data = x.data
    out = np.empty((n, c))
    # each sample's mean is its own reduction
    _split_batch(data, lambda s: np.mean(data[s], axis=(2, 3), out=out[s]))

    def backward(g):
        # a read-only view: no backward writes into its upstream gradient
        return (np.broadcast_to(g[:, :, None, None] / (t * v), shape),)

    return _make(out, (x,), backward)


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
