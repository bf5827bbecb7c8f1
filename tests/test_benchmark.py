"""Latency measurement contract and Welch's t-test arithmetic."""
import numpy as np
import pytest
from scipy import stats

from conftest import ring_adjacency, tiny_model_config
from fallgcn.benchmark import LatencySample, benchmark_pair, welch_t_test
from fallgcn.model import ThreeStreamModel


def test_welch_identical_samples_is_zero():
    t, df = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert df > 0


def test_welch_shift_direction():
    a = [1.0, 2.0, 3.0]
    b = [11.0, 12.0, 13.0]
    t, _ = welch_t_test(a, b)
    assert t < -5  # a well below b
    t2, _ = welch_t_test(b, a)
    assert t2 == pytest.approx(-t)


def test_welch_hand_computed_example():
    # means 3.0 and 5.6; variances 0.02 and 0.18:
    # t = -2.6 / sqrt(0.1), df = 0.01 / 0.0082
    t, df = welch_t_test([2.9, 3.1], [5.3, 5.9])
    assert t == pytest.approx(-2.6 / np.sqrt(0.1), abs=1e-9)
    assert df == pytest.approx(0.01 / 0.0082, abs=1e-9)


def test_welch_matches_scipy_on_random_samples():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.normal(0, 1, size=int(rng.integers(2, 40)))
        b = rng.normal(0.5, 2, size=int(rng.integers(2, 40)))
        t, df = welch_t_test(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, rel=1e-12)
        assert df == pytest.approx(ref.df, rel=1e-12)


def test_welch_degenerate_cases():
    t, _ = welch_t_test([2.0, 2.0], [2.0, 2.0])
    assert t == 0.0
    with pytest.raises(ValueError, match="zero combined variance"):
        welch_t_test([2.0, 2.0], [3.0, 3.0])
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0], [1.0, 2.0])


def test_latency_sample_summary():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    sample = LatencySample.from_times(times)
    assert sample.mean == pytest.approx(times.mean())
    assert sample.std == pytest.approx(times.std(ddof=1))


def test_benchmark_collects_exact_sample_count():
    model = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    for sample in benchmark_pair(model, model, n_warmup=2, n_samples=30):
        assert sample.times_ms.shape == (30,)
        assert sample.mean == pytest.approx(sample.times_ms.mean())
        assert (sample.times_ms > 0).all()


def test_benchmark_requires_30_samples():
    model = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    with pytest.raises(ValueError, match="30"):
        benchmark_pair(model, model, n_samples=10)


def test_benchmark_pair_interleaves_both_variants():
    sep = ThreeStreamModel(tiny_model_config(), ring_adjacency(5))
    dense = ThreeStreamModel(tiny_model_config(tcn="dense"), ring_adjacency(5))
    a, b = benchmark_pair(sep, dense, n_warmup=2, n_samples=30)
    assert a.times_ms.shape == b.times_ms.shape == (30,)
