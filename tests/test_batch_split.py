"""Ops that split a batch over helper threads: every forward value and
every gradient is bit-identical to a one-thread run, the helpers share
the caller's floating-point error state, an error in any slice is
raised only after every slice has run, and a batch of one or of small
arrays never reaches the helper threads."""
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import ring_adjacency, tiny_model_config
from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, Tensor, parameter
from fallgcn.model import ThreeStreamModel

C_IN, C_OUT, T, V = 3, 5, 4, 3


@pytest.fixture(autouse=True)
def split_small_arrays(monkeypatch):
    """Let the tests' small arrays be split."""
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1)


def _op_cases(rng, n, k_t):
    """name -> (op over the tensors, input arrays); every input needs a
    gradient, so every backward output is formed."""
    x = rng.normal(size=(n, C_IN, T, V))
    y = rng.normal(size=(n, C_IN, T, V))
    keep = (rng.random((n, 1, T, V)) >= 0.3) * 1.0
    return {
        "pointwise_conv": (ad.pointwise_conv, [x, rng.normal(size=(C_IN, C_OUT))]),
        "depthwise_tconv": (ad.depthwise_tconv, [x, rng.normal(size=(C_IN, k_t))]),
        "dense_tconv": (ad.dense_tconv, [x, rng.normal(size=(C_OUT, C_IN, k_t))]),
        "pointwise_conv_bias": (ad.pointwise_conv, [x, rng.normal(size=(C_IN, C_OUT)),
                                                    rng.normal(size=C_OUT)]),
        "dense_tconv_bias": (ad.dense_tconv, [x, rng.normal(size=(C_OUT, C_IN, k_t)),
                                              rng.normal(size=C_OUT)]),
        "spatial_aggregate": (ad.spatial_aggregate, [x, rng.normal(size=(V, V))]),
        "add": (ad.add, [x, y]),
        "bias_add": (ad.bias_add, [x, rng.normal(size=C_IN)]),
        "scale_per_sample": (lambda a: ad.scale(a, keep), [x]),
        "scale_per_channel": (lambda a: ad.scale(a, np.arange(1.0, C_IN + 1)[:, None, None]),
                              [x]),
        "relu": (ad.relu, [x]),
        "relu_of_three_terms": (lambda a, b: ad.relu(a, b, ad.max_pool_frames(b)), [x, y]),
        "max_pool_frames": (ad.max_pool_frames, [x]),
        "max_pool_joints": (ad.max_pool_joints, [x]),
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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("k_t", [1, 3])
@pytest.mark.parametrize("transposed", [False, True])
def test_split_ops_are_bit_identical_to_one_part(monkeypatch, n, k_t, transposed):
    cases = _op_cases(np.random.default_rng([n, k_t]), n, k_t)
    for name, (op, arrays) in cases.items():
        runs = []
        for parts in (1, 2, 4):
            monkeypatch.setattr(ad, "_BATCH_PARTS", parts)
            runs.append(_run(op, arrays, np.random.default_rng(7), transposed))
        for parts, run in zip((2, 4), runs[1:]):
            for i, (want, got) in enumerate(zip(runs[0], run)):
                assert got.shape == want.shape
                assert np.array_equal(got, want), f"{name}, {parts} parts, output {i}"


def test_elementwise_outputs_keep_numpys_memory_layout(monkeypatch):
    # a later matmul sums in another order when a reshape of its input
    # is a strided view rather than a contiguous copy
    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    x = np.random.default_rng(5).normal(size=(4, T, V, C_IN)).transpose(0, 3, 1, 2)
    keep = np.ones((4, 1, T, V))
    for got, want in [(ad.add(Tensor(x), Tensor(x)), x + x),
                      (ad.scale(Tensor(x), keep), x * keep),
                      (ad.bias_add(Tensor(x), Tensor(np.ones(C_IN))), x + 1.0),
                      (ad.relu(Tensor(x)), np.maximum(x, 0.0)),
                      (ad.relu(Tensor(x), Tensor(x), Tensor(x)), np.maximum(x + x + x, 0.0))]:
        assert got.data.strides == want.strides


@pytest.mark.parametrize("cpus, blas, parts", [
    (2, 1, 2), (8, 2, 4), (2, 2, 1), (4, 3, 1), (1, 1, 1), (2, None, 1)])
def test_part_count_is_usable_cpus_over_blas_threads(monkeypatch, cpus, blas, parts):
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(ad, "_blas_threads", lambda: blas)
    assert ad._batch_parts() == parts


def test_one_clip_or_small_arrays_never_reach_the_helper_threads(monkeypatch, tiny_model):
    def no_pool():
        raise AssertionError("the helper threads were used")

    monkeypatch.setattr(ad, "_BATCH_PARTS", 2)
    monkeypatch.setattr(ad, "_pool", no_pool)
    clip = np.random.default_rng(3).normal(size=(2, 8, 5))
    tiny_model.forward(clip)
    tiny_model.forward(clip[None])
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1 << 17)
    tiny_model.forward(np.stack([clip] * 4))


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
