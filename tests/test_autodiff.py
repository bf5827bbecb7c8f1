"""Forward values and tape gradients of every engine op, checked
against hand arithmetic and central finite differences, and what the
tape keeps alive between the forward and backward passes."""
import inspect
import weakref

import numpy as np
import pytest

from fallgcn import autodiff as ad
from fallgcn.autodiff import GradTape, ShapeError, Tensor, grad_check, parameter


def test_relu_values():
    out = ad.relu(Tensor([-2.0, 0.0, 3.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 3.0])


def test_relu_propagates_nan_and_masks_gradient():
    x = parameter(np.array([np.nan, -1.0, 2.0]))
    with GradTape() as tape:
        out = ad.relu(x)
        loss = ad.sum_all(ad.mul(out, Tensor(np.array([5.0, 6.0, 7.0]))))
    assert np.isnan(out.data[0])
    assert np.array_equal(out.data[1:], [0.0, 2.0])
    (gx,) = tape.gradients(loss, [x])
    assert np.array_equal(gx, [0.0, 0.0, 7.0])


def test_softmax_symmetry():
    out = ad.softmax(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.normal(0, 5, (4, 6)))
        p = ad.softmax(x).data
        assert np.all(p > 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_dense_tconv_constant_input():
    # kernel (1,1,1) over constant 2.0 with zero same padding:
    # interior 6.0, boundaries 4.0
    x = Tensor(np.full((1, 1, 5, 1), 2.0))
    k = Tensor(np.ones((1, 1, 3)))
    out = ad.dense_tconv(x, k).data[0, 0, :, 0]
    assert np.allclose(out, [4.0, 6.0, 6.0, 6.0, 4.0])


def test_layer_norm_moments():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(3.0, 2.0, (2, 8, 3, 4)))
    gamma = Tensor(np.ones(8))
    beta = Tensor(np.zeros(8))
    out = ad.layer_norm(x, gamma, beta).data
    assert np.abs(out.mean(axis=1)).max() < 1e-9
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6


def test_dropout_identity_cases():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 4)))
    assert ad.dropout(x, 0.0, rng, active=True) is x
    assert ad.dropout(x, 0.9, rng, active=False) is x
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, rng, active=True)


def test_dropout_inverted_scaling_preserves_mean():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((200, 200)))
    out = ad.dropout(x, 0.3, np.random.default_rng(0), active=True).data
    assert abs(out.mean() - 1.0) < 0.02


def test_cross_entropy_reference_values():
    one_hot = Tensor(np.array([[1.0, 0.0, 0.0]]))
    assert ad.cross_entropy(one_hot, np.array([0])).item() < 1e-9
    uniform = Tensor(np.full((1, 4), 0.25))
    assert abs(ad.cross_entropy(uniform, np.array([2])).item() - np.log(4)) < 1e-9


@pytest.mark.parametrize("labels, first_bad", [
    (np.array([0, -1]), "label -1 at index 1"),  # would score the last class
    (np.array([2, 1]), "label 2 at index 0"),
    (np.array([0.0, 1.0]), "label 0.0 at index 0"),
])
def test_cross_entropy_rejects_labels_outside_the_classes(labels, first_bad):
    probs = Tensor(np.array([[0.2, 0.8], [0.6, 0.4]]))
    with pytest.raises(ShapeError, match=rf"cross_entropy: {first_bad} .*\[0, 2\)"):
        ad.cross_entropy(probs, labels)


def test_cross_entropy_accepts_any_integer_label_dtype():
    probs = Tensor(np.array([[0.2, 0.8], [0.6, 0.4]]))
    expected = -(np.log(0.8) + np.log(0.6)) / 2
    for dtype in (np.int64, np.int32, np.uint8):
        assert ad.cross_entropy(probs, np.array([1, 0], dtype=dtype)).item() == expected


def test_allocator_policy_is_a_no_op_without_mallopt(monkeypatch):
    # macOS has no mallopt; Windows cannot open the running program
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())
    ad._keep_freed_heap_mapped()

    def cannot_open(name):
        raise TypeError("no program handle")

    monkeypatch.setattr(ad.ctypes, "CDLL", cannot_open)
    ad._keep_freed_heap_mapped()


def test_linear_loss_gradient_is_input():
    # loss = sum(x @ W) with x fixed: dW[k, m] = sum_n x[n, k]
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(4, 3)))
    w = parameter(rng.normal(size=(3, 2)))
    with GradTape() as tape:
        loss = ad.sum_all(ad.matmul(x, w))
    (gw,) = tape.gradients(loss, [w])
    expected = np.repeat(x.data.sum(axis=0)[:, None], 2, axis=1)
    assert np.allclose(gw, expected)


def test_unused_parameter_gets_exact_zero_gradient():
    rng = np.random.default_rng(5)
    used = parameter(rng.normal(size=(3,)))
    unused = parameter(rng.normal(size=(2, 2)))
    with GradTape() as tape:
        loss = ad.sum_all(ad.mul(used, used))
    g_used, g_unused = tape.gradients(loss, [used, unused])
    assert np.array_equal(g_unused, np.zeros((2, 2)))
    assert np.allclose(g_used, 2 * used.data)


def test_diamond_dependency_accumulates_both_paths():
    # x feeds two consumers whose results are re-joined: reverse-order
    # replay must accumulate both contributions before reaching x
    x = parameter(np.array([2.0, 3.0]))
    y = Tensor(np.array([5.0, 7.0]))
    with GradTape() as tape:
        left = ad.mul(x, y)        # d/dx = y
        right = ad.mul(x, x)       # d/dx = 2x
        loss = ad.sum_all(ad.add(left, right))
    (gx,) = tape.gradients(loss, [x])
    assert np.allclose(gx, y.data + 2 * x.data)


def test_second_replay_of_a_tape_raises():
    # replaying pops the records, so a second walk would find none and
    # return all-zero gradients
    x = parameter(np.array([2.0, 3.0]))
    with GradTape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
    (gx,) = tape.gradients(loss, [x])
    assert np.array_equal(gx, 2 * x.data)
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.gradients(loss, [x])


def test_replay_frees_what_backward_read():
    x = parameter(np.random.default_rng(0).normal(size=(2, 3, 4, 5)))
    w = parameter(np.ones((3, 2)))
    with GradTape() as tape:
        h = ad.relu(x)
        loss = ad.sum_all(ad.pointwise_conv(h, w))
    saved = weakref.ref(h.data)
    del h
    assert saved() is not None  # the weight gradient reads h
    tape.gradients(loss, [x, w])
    assert saved() is None


def test_backward_requires_scalar_loss():
    x = parameter(np.ones(3))
    with GradTape() as tape:
        out = ad.relu(x)
    with pytest.raises(ValueError, match="scalar"):
        tape.gradients(out, [x])


def test_shape_errors_name_op_and_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 2\)"):
        ad.matmul(a, b)
    with pytest.raises(ShapeError, match="add"):
        ad.add(a, Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError, match="pointwise_conv"):
        ad.pointwise_conv(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((4, 5))))
    x = Tensor(np.ones((1, 3, 2, 2)))
    with pytest.raises(ShapeError, match=r"pointwise_conv: bias \(4,\) .* 5 output"):
        ad.pointwise_conv(x, Tensor(np.ones((3, 5))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match=r"dense_tconv: bias \(3,\) .* 2 output"):
        ad.dense_tconv(x, Tensor(np.ones((2, 3, 1))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match=r"relu: shapes differ, \(2, 3\) vs \(2, 4\)"):
        ad.relu(a, a, Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError, match="relu: no terms"):
        ad.relu()


def test_grad_check_eps_validation():
    x = parameter(np.array(3.0))
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda: ad.mul(x, x), [x], eps=1e-8)


def test_grad_check_quadratic_and_relu():
    x = parameter(np.array(3.0))
    assert grad_check(lambda: ad.mul(x, x), [x], eps=1e-5) < 1e-9
    y = parameter(np.array(1.0))
    assert grad_check(lambda: ad.relu(y), [y], eps=1e-5) < 1e-9


def _op_cases(rng):
    """One differentiable scalar function per core op, random small shapes."""
    n, c, t, v = 2, 3, 4, 3
    x4 = parameter(rng.normal(size=(n, c, t, v)))
    cases = {}

    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(4, 2)))
    cases["matmul"] = (lambda: ad.sum_all(ad.matmul(a, b)), [a, b])

    e1 = parameter(rng.normal(size=(2, 3)))
    e2 = parameter(rng.normal(size=(2, 3)))
    cases["add"] = (lambda: ad.sum_all(ad.mul(ad.add(e1, e2), e2)), [e1, e2])
    cases["mul"] = (lambda: ad.sum_all(ad.mul(e1, e2)), [e1, e2])

    r = parameter(rng.normal(size=(4, 5)))
    cases["relu"] = (lambda: ad.sum_all(ad.relu(r)), [r])
    r2 = parameter(rng.normal(size=(4, 5)))
    r3 = parameter(rng.normal(size=(4, 5)))
    cases["relu_of_three_terms"] = (
        lambda: ad.sum_all(ad.mul(ad.relu(r, r2, r3), r3)), [r, r2, r3])
    factor = rng.normal(size=(4, 5))
    cases["scale"] = (lambda: ad.sum_all(ad.mul(ad.scale(r, factor), r)), [r])

    bias = parameter(rng.normal(size=(c,)))
    cases["bias_add"] = (lambda: ad.sum_all(ad.bias_add(x4, bias)), [x4, bias])

    dw = parameter(rng.normal(size=(c, 3)))
    cases["depthwise_tconv"] = (lambda: ad.sum_all(ad.depthwise_tconv(x4, dw)), [x4, dw])

    dk = parameter(rng.normal(size=(2, c, 3)))
    cases["dense_tconv"] = (lambda: ad.sum_all(ad.dense_tconv(x4, dk)), [x4, dk])

    pw = parameter(rng.normal(size=(c, 2)))
    cases["pointwise_conv"] = (lambda: ad.sum_all(ad.pointwise_conv(x4, pw)), [x4, pw])

    # square the output so the bias gradient depends on the output
    b2 = parameter(rng.normal(size=(2,)))
    cases["dense_tconv_bias"] = (
        lambda: ad.sum_all(ad.mul(ad.dense_tconv(x4, dk, b2), ad.dense_tconv(x4, dk, b2))),
        [x4, dk, b2])
    cases["pointwise_conv_bias"] = (
        lambda: ad.sum_all(ad.mul(ad.pointwise_conv(x4, pw, b2),
                                  ad.pointwise_conv(x4, pw, b2))),
        [x4, pw, b2])

    adj = parameter(rng.normal(size=(v, v)))
    cases["spatial_aggregate"] = (
        lambda: ad.sum_all(ad.spatial_aggregate(x4, adj)), [x4, adj])

    # square the pooled value so the gradient depends on the max position
    cases["max_pool_frames"] = (
        lambda: ad.sum_all(ad.mul(ad.max_pool_frames(x4), ad.max_pool_frames(x4))), [x4])
    cases["max_pool_joints"] = (
        lambda: ad.sum_all(ad.mul(ad.max_pool_joints(x4), ad.max_pool_joints(x4))), [x4])
    cases["global_avg_pool"] = (
        lambda: ad.sum_all(ad.mul(ad.global_avg_pool(x4), ad.global_avg_pool(x4))), [x4])

    gamma = parameter(rng.normal(1.0, 0.2, size=(c,)))
    beta = parameter(rng.normal(size=(c,)))
    cases["layer_norm"] = (
        lambda: ad.sum_all(ad.mul(ad.layer_norm(x4, gamma, beta),
                                  ad.layer_norm(x4, gamma, beta))),
        [x4, gamma, beta])

    c1 = parameter(rng.normal(size=(2, 3)))
    c2 = parameter(rng.normal(size=(2, 4)))
    cases["concat_channels"] = (
        lambda: ad.sum_all(ad.mul(ad.concat_channels([c1, c2]),
                                  ad.concat_channels([c1, c2]))),
        [c1, c2])

    logits = parameter(rng.normal(size=(3, 4)))
    labels = rng.integers(0, 4, size=3)
    cases["softmax_cross_entropy"] = (
        lambda: ad.cross_entropy(ad.softmax(logits), labels), [logits])

    drop_rng_seed = int(rng.integers(0, 2 ** 31))
    d = parameter(rng.normal(size=(3, 5)))

    def dropped():
        # fresh rng per call so the mask is identical across evaluations
        return ad.sum_all(
            ad.dropout(d, 0.4, np.random.default_rng(drop_rng_seed), active=True))

    cases["dropout"] = (dropped, [d])
    return cases


def test_every_op_matches_finite_differences_over_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, (f, params) in _op_cases(rng).items():
            err = grad_check(f, params, eps=1e-5)
            assert err < 1e-4, f"op {name} seed {seed}: error {err:.3e}"


def test_all_op_outputs_finite():
    rng = np.random.default_rng(7)
    for name, (f, _) in _op_cases(rng).items():
        assert np.isfinite(f().data).all(), name


def test_no_backward_writes_into_its_upstream_gradient(monkeypatch):
    # global_avg_pool hands on a read-only broadcast view, and relu one
    # array for all its terms: a backward that wrote into its g would
    # corrupt another input's gradient
    record = GradTape.record

    def read_only_upstream(tape, out, inputs, backward):
        def guarded(g):
            g = g.view()
            g.flags.writeable = False
            return backward(g)

        record(tape, out, inputs, guarded)

    monkeypatch.setattr(GradTape, "record", read_only_upstream)
    for name, (f, params) in _op_cases(np.random.default_rng(0)).items():
        with GradTape() as tape:
            loss = f()
        tape.gradients(loss, params)


PUBLIC_OPS = frozenset(
    name for name, fn in vars(ad).items()
    if inspect.isfunction(fn) and fn.__module__ == ad.__name__
    and not name.startswith("_") and name not in ("parameter", "grad_check")
)


def _holds_tensor(obj) -> bool:
    """True if ``obj`` is a Tensor, or a tuple, list or closure reaching one."""
    if isinstance(obj, Tensor):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_holds_tensor(o) for o in obj)
    if inspect.isfunction(obj):
        return any(_holds_tensor(cell.cell_contents) for cell in obj.__closure__ or ())
    return False


def test_tape_records_pin_no_tensor(monkeypatch):
    # a record that holds a Tensor keeps its whole activation alive until
    # the step ends, whether or not backward reads it
    called = set()
    for name in PUBLIC_OPS:
        def counted(*args, _op=getattr(ad, name), _name=name, **kwargs):
            called.add(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    for name, (f, _) in _op_cases(np.random.default_rng(0)).items():
        with GradTape() as tape:
            f()
        assert len(tape) > 0, name
        for record in tape._ops:
            assert not _holds_tensor(record), f"{name}: record {record} holds a Tensor"
    assert called == PUBLIC_OPS
