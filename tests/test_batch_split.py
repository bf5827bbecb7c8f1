"""Ops that split a batch over helper threads, with their batch
reductions beside the slices, one-clip forwards that share their streams
with them, and ``evaluate``, which shares its batches: every forward
value and every gradient is bit-identical to a one-thread run, the
helpers share the caller's floating-point error state, an error in any
slice, reduction, stream or batch is raised only after every other one
has run, work shared from inside shared work runs in order on its own
thread, no op of a one-clip forward splits, and small batches, training
and taped forwards never reach the helper threads."""
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from conftest import ring_adjacency, tiny_model_config
from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, Tensor, parameter
from fallgcn.model import Stream, ThreeStreamModel
from fallgcn.skeleton_io import SkeletonClip
from fallgcn.training import EVAL_BATCH, evaluate

C_IN, C_OUT = 3, 5


@pytest.fixture(autouse=True)
def split_small_arrays(monkeypatch):
    """Let the tests' small arrays be split."""
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1)


def _op_cases(rng, n, k_t, t, v):
    """name -> (op over the tensors, input arrays); every input needs a
    gradient, so every backward output is formed."""
    x = rng.normal(size=(n, C_IN, t, v))
    y = rng.normal(size=(n, C_IN, t, v))
    x[x < -1.5] = -0.0  # a signed zero that a reordered sum would lose
    keep = (rng.random((n, 1, t, v)) >= 0.3) * 1.0
    return {
        "pointwise_conv": (ad.pointwise_conv, [x, rng.normal(size=(C_IN, C_OUT))]),
        "depthwise_tconv": (ad.depthwise_tconv, [x, rng.normal(size=(C_IN, k_t))]),
        "dense_tconv": (ad.dense_tconv, [x, rng.normal(size=(C_OUT, C_IN, k_t))]),
        "pointwise_conv_bias": (ad.pointwise_conv, [x, rng.normal(size=(C_IN, C_OUT)),
                                                    rng.normal(size=C_OUT)]),
        "dense_tconv_bias": (ad.dense_tconv, [x, rng.normal(size=(C_OUT, C_IN, k_t)),
                                              rng.normal(size=C_OUT)]),
        "spatial_aggregate": (ad.spatial_aggregate, [x, rng.normal(size=(v, v))]),
        "add": (ad.add, [x, y]),
        "bias_add": (ad.bias_add, [x, rng.normal(size=C_IN)]),
        "scale_per_sample": (lambda a: ad.scale(a, keep), [x]),
        "scale_per_channel": (lambda a: ad.scale(a, np.arange(1.0, C_IN + 1)[:, None, None]),
                              [x]),
        "relu": (ad.relu, [x]),
        "relu_of_three_terms": (lambda a, b: ad.relu(a, b, ad.max_pool_frames(b)), [x, y]),
        "max_pool_frames": (ad.max_pool_frames, [x]),
        "max_pool_joints": (ad.max_pool_joints, [x]),
        "global_avg_pool": (ad.global_avg_pool, [x]),
        # x feeds two ops, so the tape adds two [N,C,T,V] gradients
        "tape_accumulation": (lambda a: ad.add(ad.relu(a), ad.pointwise_conv(
            a, Tensor(np.eye(C_IN)))), [x]),
    }


def _run(op, arrays, g_rng, transposed):
    """Forward value and every input gradient of ``op`` under a tape."""
    inputs = [parameter(a) for a in arrays]
    if transposed:  # the [N, T, V, C] memory order of a stacked clip batch
        inputs[0] = parameter(np.ascontiguousarray(
            arrays[0].transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2))
    with GradTape() as tape:
        out = op(*inputs)
        g = Tensor(g_rng.normal(size=out.shape))
        loss = ad.sum_all(ad.mul(out, g))
    return [out.data] + tape.gradients(loss, inputs)


def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 bits of ``a``: unlike ``np.array_equal`` on values,
    comparing them tells -0.0 from +0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("k_t", [1, 3])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("t, v", [(4, 3), (4, 1), (1, 3)])
def test_split_ops_are_bit_identical_to_one_part(monkeypatch, n, k_t, transposed, t, v):
    cases = _op_cases(np.random.default_rng([n, k_t, t, v]), n, k_t, t, v)
    interval = sys.getswitchinterval()
    for name, (op, arrays) in cases.items():
        runs = []
        for parts in (1, 2, 4):  # 4 threads on fewer cores, switching often
            monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
            sys.setswitchinterval(1e-6)
            try:
                runs.append(_run(op, arrays, np.random.default_rng(7), transposed))
            finally:
                sys.setswitchinterval(interval)
        for parts, run in zip((2, 4), runs[1:]):
            for i, (want, got) in enumerate(zip(runs[0], run)):
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want)), \
                    f"{name}, {parts} parts, output {i}"


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("pooled", [False, True])
def test_pointwise_conv_is_a_one_tap_dense_tconv(monkeypatch, parts, pooled):
    # the two ops share one kernel: weight W [C_in, C_out] is the one-tap
    # kernel W.T[:, :, None]; a pooled output hands the conv global_avg_pool's
    # zero-stride gradient, as the skip stream's projection gets it
    monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, C_IN, 4, 3))
    x[x < -1.5] = -0.0
    w, b = rng.normal(size=(C_IN, C_OUT)), rng.normal(size=C_OUT)

    def run(conv, weight):
        inputs = [parameter(x), parameter(weight), parameter(b)]
        with GradTape() as tape:
            out = conv(*inputs)
            head = ad.global_avg_pool(out) if pooled else out
            loss = ad.sum_all(ad.mul(head, Tensor(np.random.default_rng(7).normal(
                size=head.shape))))
        return [out.data] + tape.gradients(loss, inputs)

    pointwise = run(ad.pointwise_conv, w)
    dense = run(ad.dense_tconv, w.T[:, :, None])
    dense[2] = dense[2][:, :, 0].T
    for i, (want, got) in enumerate(zip(pointwise, dense)):
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), f"output {i}"


def _memory_layouts(a: np.ndarray) -> dict[str, np.ndarray]:
    """``a`` [N, C, T, V] in memory orders an upstream gradient may have."""
    return {
        "nctv": a,
        "ntvc": np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
        "ncvt": np.ascontiguousarray(a.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2),
        "fortran": np.asfortranarray(a),
        "every_other_joint": np.repeat(a, 2, axis=3)[..., ::2],
        "one_frame_broadcast": np.broadcast_to(a[:, :, :1], a.shape),
    }


@pytest.mark.parametrize("shape", [(2, 3, 4, 3), (3, 2, 17, 1), (2, 3, 1, 3), (2, 2, 1, 1),
                                   (3, 4, 33, 9), (2, 3, 64, 18), (2, 3, 200, 2)])
@pytest.mark.parametrize("parts", [1, 2])
def test_frame_pool_gradient_has_the_bits_of_a_sum_over_frames(monkeypatch, shape, parts):
    # one backward value per (sample, channel, joint): the frame sum of g
    # at the frame that held the peak; V = 1 and frame-inner layouts are
    # the ones where numpy's own sum adds the frames pairwise
    monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
    rng = np.random.default_rng(list(shape))
    x = rng.normal(size=shape)
    g = rng.normal(size=shape)
    g[g < -1.0] = -0.0
    g[np.abs(g) < 0.2] = 0.0
    peak = x.argmax(axis=2)[:, :, None]
    for name, g_layout in _memory_layouts(g).items():
        want = np.zeros(shape)
        np.put_along_axis(want, peak, g_layout.sum(axis=2, keepdims=True), axis=2)
        xt = parameter(x)
        with GradTape() as tape:
            pooled = ad.max_pool_frames(xt)
            # an identity whose backward hands on g in its own memory order
            out = ad._make(pooled.data, (pooled,), lambda _, g=g_layout: (g,))
            loss = ad.sum_all(out)
        got, = tape.gradients(loss, [xt])
        assert np.array_equal(_bits(got), _bits(want)), name


@pytest.mark.parametrize("parts", [1, 2])
def test_elementwise_outputs_keep_numpys_memory_layout(monkeypatch, parts):
    # a later matmul sums in another order when a reshape of its input
    # is a strided view rather than a contiguous copy; the plain numpy
    # expression is also the reference for the bits of the split path
    monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4, 3, C_IN)).transpose(0, 3, 1, 2)
    x[x < -1.5] = -0.0
    keep = (rng.random((4, 1, 4, 3)) >= 0.3) * 1.0
    b = rng.normal(size=C_IN)
    h = rng.normal(size=(4, 2 * C_OUT))
    h_bias = rng.normal(size=2 * C_OUT)
    scalar = np.asarray(x[1, 2, 3, 1])
    # concat_channels' backward hands the tape column slices of its 2-D
    # gradient, and a tensor concatenated twice gets the sum of two
    left = parameter(h[:, :C_OUT])
    with GradTape() as tape:
        loss = ad.sum_all(ad.mul(ad.concat_channels([left, left]), Tensor(h)))
    accumulated, = tape.gradients(loss, [left])
    for name, got, want in [
            ("add", ad.add(Tensor(x), Tensor(x)), x + x),
            ("scale", ad.scale(Tensor(x), keep), x * keep),
            ("bias_add", ad.bias_add(Tensor(x), Tensor(b)), x + b[:, None, None]),
            ("relu", ad.relu(Tensor(x)), np.maximum(x, 0.0)),
            ("relu_of_three_terms", ad.relu(Tensor(x), Tensor(x), Tensor(x)),
             np.maximum(x + x + x, 0.0)),
            ("global_avg_pool", ad.global_avg_pool(Tensor(x)), x.mean(axis=(2, 3))),
            ("bias_add_2d", ad.bias_add(Tensor(h), Tensor(h_bias)), h + h_bias),
            ("relu_2d", ad.relu(Tensor(h)), np.maximum(h, 0.0)),
            ("scale_0d", ad.scale(Tensor(scalar), 3.0), np.asarray(scalar * 3.0)),
            ("tape_accumulation_2d", Tensor(accumulated), h[:, :C_OUT] + h[:, C_OUT:])]:
        assert got.data.strides == want.strides, name
        assert np.array_equal(_bits(got.data), _bits(want)), name


@pytest.mark.parametrize("cpus, blas, parts", [
    (2, 1, 2), (8, 2, 4), (2, 2, 1), (4, 3, 1), (1, 1, 1), (2, None, 1)])
def test_part_count_is_usable_cpus_over_blas_threads(monkeypatch, cpus, blas, parts):
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(ad, "_blas_threads", lambda: blas)
    assert ad._batch_parts() == parts


def test_no_op_of_a_one_clip_forward_splits(monkeypatch, tiny_model):
    seen = []
    split_batch = ad._split_batch

    def spy(work, fn, *whole):
        seen.append(min(work.shape[0], work.size // ad._MIN_SLICE_SIZE))
        return split_batch(work, fn, *whole)

    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    monkeypatch.setattr(ad, "_split_batch", spy)
    clip = np.random.default_rng(3).normal(size=(2, 8, 5))
    tiny_model.forward(clip)
    tiny_model.forward(clip[None])
    with GradTape():
        tiny_model.forward(clip)
    assert seen and max(seen) <= 1


def test_small_batches_and_serial_stream_forwards_never_reach_the_helper_threads(
        monkeypatch, tiny_model):
    def no_pool():
        raise AssertionError("the helper threads were used")

    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    monkeypatch.setattr(ad, "_pool", no_pool)
    clip = np.random.default_rng(3).normal(size=(2, 8, 5))
    with GradTape():
        tiny_model.forward(clip)
    tiny_model.forward(clip, training=True, rng=np.random.default_rng(0))
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1 << 17)
    tiny_model.forward(np.stack([clip] * 4))
    monkeypatch.setattr(ad, "_BATCH_PARTS", 1)
    tiny_model.forward(clip)


def _streams_meet(monkeypatch, model, on_stream=None):
    """Make the first two streams of a forward wait for each other, so
    the caller runs one and a helper thread the other; ``on_stream(name)``
    runs once both have arrived. Returns {stream name: thread id}."""
    names = {id(stream): name for name, stream in model.streams.items()}
    first_two = set(model.config.streams[:2]) if len(model.config.streams) > 1 else set()
    meet = threading.Barrier(2, timeout=30)
    ran = {}
    forward = Stream.forward

    def meeting_forward(self, *args):
        name = names[id(self)]
        ran[name] = threading.get_ident()
        if name in first_two:
            meet.wait()
        if on_stream is not None:
            on_stream(name)
        return forward(self, *args)

    monkeypatch.setattr(Stream, "forward", meeting_forward)
    return ran


@pytest.mark.parametrize("tcn", ["separable", "dense"])
@pytest.mark.parametrize("streams", [("joint", "motion", "skip"), ("skip", "joint"),
                                     ("motion", "skip", "joint"), ("motion",)])
def test_one_clip_streams_on_helper_threads_are_bit_identical_to_serial(
        monkeypatch, tcn, streams):
    model = ThreeStreamModel(tiny_model_config(tcn=tcn, streams=streams), ring_adjacency(5))
    clips = np.random.default_rng(17).normal(size=(6, 2, 8, 5))
    monkeypatch.setattr(ad, "_BATCH_PARTS", 1)
    serial = [model.forward(c).data for c in clips]
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    shared = [model.forward(c).data for c in clips]
    ran = _streams_meet(monkeypatch, model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        met = [model.forward(c).data for c in clips]
    finally:
        sys.setswitchinterval(interval)
    assert len(set(ran.values())) == min(2, len(streams))
    for want, *got in zip(serial, shared, met):
        for g in got:
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))


def test_a_stream_that_raises_on_a_helper_is_raised_after_the_others_finish(
        monkeypatch, tiny_model):
    caller = threading.get_ident()
    done = []

    def fail_on_helper(name):
        if threading.get_ident() != caller:
            raise ValueError(f"stream {name}")
        time.sleep(0.2)
        done.append(name)

    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    ran = _streams_meet(monkeypatch, tiny_model, fail_on_helper)
    with pytest.raises(ValueError, match="stream (joint|motion)"):
        tiny_model.forward(np.ones((2, 8, 5)))
    helper_ran = {name for name, ident in ran.items() if ident != caller}
    assert len(helper_ran & {"joint", "motion"}) == 1
    assert set(done) == {"joint", "motion", "skip"} - helper_ran


def test_a_stream_on_a_helper_runs_under_the_callers_error_state(monkeypatch, tiny_model):
    seen = {}
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    _streams_meet(monkeypatch, tiny_model,
                  lambda name: seen.__setitem__(name, (threading.get_ident(),
                                                       np.geterr()["divide"])))
    with np.errstate(divide="raise"):
        tiny_model.forward(np.ones((2, 8, 5)))
    assert seen["joint"][0] != seen["motion"][0]
    assert {state for _, state in seen.values()} == {"raise"}


def test_every_slice_runs_before_an_error_is_raised(monkeypatch):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 3)
    for failing in (0, 2):  # the first slice is taken first, the last last
        done = []

        def part(s):
            if s.start == failing:
                raise ValueError(f"slice {s.start}")
            time.sleep(0.2)
            done.append(s.start)

        with pytest.raises(ValueError, match=f"slice {failing}"):
            ad._split_batch(np.empty(3), part)
        assert sorted(done) == sorted({0, 1, 2} - {failing})


def test_parts_run_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    seen = {}
    both_running = threading.Barrier(2, timeout=30)

    def part(s):
        both_running.wait()  # so a helper thread runs one of the two slices
        seen[s.start] = (threading.get_ident(), np.geterr()["divide"])

    with np.errstate(divide="raise"):
        ad._split_batch(np.empty(2), part)
    assert seen[0][0] != seen[1][0]
    assert threading.get_ident() in (seen[0][0], seen[1][0])
    assert seen[0][1] == seen[1][1] == "raise"
    # inf * 0 is invalid in one sample only, whichever thread takes it
    for x in (np.array([np.inf, 1.0]), np.array([1.0, np.inf])):
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            ad.scale(Tensor(x.reshape(2, 1, 1, 1)), 0.0)


def _meeting_reductions(on_reduction):
    """Two whole-batch calls that wait for each other, so the caller runs
    one and a helper thread the other; each then calls
    ``on_reduction(name)`` and returns its name."""
    meet = threading.Barrier(2, timeout=30)

    def reduction(name):
        meet.wait()
        on_reduction(name)
        return name

    return partial(reduction, "a"), partial(reduction, "b")


def test_a_reduction_that_raises_on_a_helper_is_raised_after_every_slice(monkeypatch):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    caller = threading.get_ident()
    done = []

    def fail_on_helper(name):
        if threading.get_ident() != caller:
            raise ValueError(f"reduction {name}")

    def part(s):
        time.sleep(0.05)
        done.append(s.start)

    with pytest.raises(ValueError, match="reduction (a|b)"):
        ad._split_batch(np.empty(4), part, *_meeting_reductions(fail_on_helper))
    assert sorted(done) == [0, 1, 2, 3]


def test_a_reduction_runs_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    seen = {}
    reductions = _meeting_reductions(
        lambda name: seen.__setitem__(name, (threading.get_ident(), np.geterr()["divide"])))
    with np.errstate(divide="raise"):
        assert ad._split_batch(np.empty(2), lambda s: None, *reductions) == ["a", "b"]
    assert seen["a"][0] != seen["b"][0]
    assert seen["a"][1] == seen["b"][1] == "raise"


@pytest.mark.parametrize("parts, size", [(1, 4), (2, 4), (2, 1)])
def test_reduction_results_come_back_in_order_with_none_kept(monkeypatch, parts, size):
    monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
    sliced = []
    got = ad._split_batch(np.empty(size), lambda s: sliced.append(np.arange(size)[s].tolist()),
                          None, lambda: 1.5, None, lambda: "two")
    assert got == [None, 1.5, None, "two"]
    assert sorted(sliced) == [[i] for i in range(size)]


def test_one_part_runs_every_reduction_on_the_caller(monkeypatch):
    def no_pool():
        raise AssertionError("the helper threads were used")

    monkeypatch.setattr(ad, "_BATCH_PARTS", 1)
    monkeypatch.setattr(ad, "_pool", no_pool)
    rng = np.random.default_rng(9)
    x, adj, kernel, weight, bias, dense, dense_bias = params = [
        parameter(rng.normal(size=shape)) for shape in [
            (4, C_IN, 4, 3), (3, 3), (C_IN, 3), (C_IN, C_OUT), C_OUT, (C_OUT, C_OUT, 3), C_OUT]]
    with GradTape() as tape:
        h = ad.depthwise_tconv(ad.spatial_aggregate(x, adj), kernel)
        h = ad.dense_tconv(ad.pointwise_conv(h, weight, bias), dense, dense_bias)
        loss = ad.sum_all(ad.global_avg_pool(ad.relu(h, ad.max_pool_frames(h))))
    assert all(np.isfinite(g).all() for g in tape.gradients(loss, params))


def _helper_threads() -> set[int]:
    return {t.ident for t in threading.enumerate() if t.name.startswith("fallgcn-batch")}


def test_concurrent_batched_inference_matches_serial(monkeypatch):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    model = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    rng = np.random.default_rng(11)
    batches = [rng.normal(size=(3, 2, 8, 5)) for _ in range(8)]
    serial = [model.forward(b).data for b in batches]
    # four callers race to start the helper pool, and to use it
    monkeypatch.setattr(ad, "_POOL", None)
    before = _helper_threads()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda b: model.forward(b).data, batches, timeout=60))
        started = _helper_threads() - before
    finally:
        sys.setswitchinterval(interval)
        if ad._POOL is not None:
            ad._POOL[1].shutdown()
    assert len(started) == 1
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def _labelled_clips(n: int, seed: int) -> list[SkeletonClip]:
    rng = np.random.default_rng(seed)
    return [SkeletonClip(data=rng.normal(size=(2, 8, 5)), label=int(rng.integers(0, 2)))
            for _ in range(n)]


@pytest.mark.parametrize("tcn", ["separable", "dense"])
@pytest.mark.parametrize("n_clips", [17, 20])  # a one-clip and a partial last batch
def test_shared_evaluate_matches_a_serial_loop_of_forwards(monkeypatch, tcn, n_clips):
    model = ThreeStreamModel(tiny_model_config(tcn=tcn), ring_adjacency(5))
    clips = _labelled_clips(n_clips, n_clips)
    data = np.stack([c.data for c in clips])
    monkeypatch.setattr(ad, "_BATCH_PARTS", 1)
    serial = {}
    want = np.zeros((2, 2), dtype=np.int64)
    for start in range(0, n_clips, EVAL_BATCH):
        batch = data[start:start + EVAL_BATCH]
        serial[batch.tobytes()] = probs = model.forward(Tensor(batch)).data
        for clip, p in zip(clips[start:start + EVAL_BATCH], probs.argmax(axis=1)):
            want[clip.label, p] += 1
    forward = model.forward
    seen = {}

    def recording_forward(x, training=False, rng=None):
        probs = forward(x, training=training, rng=rng)
        seen[x.data.tobytes()] = probs.data
        return probs

    monkeypatch.setattr(model, "forward", recording_forward)
    interval = sys.getswitchinterval()
    for parts in (1, 2, 3):
        monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
        seen.clear()
        sys.setswitchinterval(1e-6)
        try:
            counts = evaluate(model, clips).counts
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(counts, want), f"{parts} parts"
        assert seen.keys() == serial.keys()
        for key, probs in serial.items():
            assert np.array_equal(seen[key].view(np.uint64), probs.view(np.uint64))


def test_work_shared_from_a_helper_runs_in_order_on_that_thread(monkeypatch):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    pool_calls = []
    pool = ad._pool

    def first_call_only_pool():
        if pool_calls:  # a second caller would queue work behind busy helpers
            raise AssertionError("shared work reached the helper threads")
        pool_calls.append(threading.get_ident())
        return pool()

    monkeypatch.setattr(ad, "_pool", first_call_only_pool)
    both_running = threading.Barrier(2, timeout=30)
    slices = {}

    def outer(name):
        both_running.wait()  # so a helper thread runs one of the two calls
        ad._split_batch(np.empty(4), lambda s: slices.setdefault(name, []).append(
            (threading.get_ident(), s.start)))
        return threading.get_ident()

    idents = ad._run_shared([partial(outer, "a"), partial(outer, "b")])
    assert pool_calls == [threading.get_ident()]
    assert idents[0] != idents[1]
    for name, ident in zip("ab", idents):
        assert slices[name] == [(ident, 0), (ident, 1), (ident, 2), (ident, 3)]


def test_evaluate_under_a_tape_never_reaches_the_helper_threads(monkeypatch, tiny_model):
    def no_pool():
        raise AssertionError("the helper threads were used")

    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1 << 17)  # no op splits its batch
    monkeypatch.setattr(ad, "_pool", no_pool)
    with GradTape():
        evaluate(tiny_model, _labelled_clips(17, 3))


def test_every_evaluate_batch_runs_before_an_error_is_raised(monkeypatch, tiny_model):
    monkeypatch.setattr(ad, "_BATCH_PARTS", 3)
    clips = _labelled_clips(3 * EVAL_BATCH, 4)
    first = {clips[i].data[0, 0, 0]: i for i in range(0, len(clips), EVAL_BATCH)}
    forward = tiny_model.forward
    for failing in (0, 2 * EVAL_BATCH):  # the first batch is taken first, the last last
        done = []

        def batch_forward(x, training=False, rng=None):
            start = first[x.data[0, 0, 0, 0]]
            if start == failing:
                raise ValueError(f"batch {start}")
            time.sleep(0.2)
            done.append(start)
            return forward(x, training=training, rng=rng)

        monkeypatch.setattr(tiny_model, "forward", batch_forward)
        with pytest.raises(ValueError, match=f"batch {failing}"):
            evaluate(tiny_model, clips)
        assert sorted(done) == sorted({0, EVAL_BATCH, 2 * EVAL_BATCH} - {failing})
