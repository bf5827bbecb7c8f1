"""Single-clip inference timing and Welch's unequal-variance t-test for
comparing model variants.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import ThreeStreamModel


@dataclass
class LatencySample:
    """Per-inference wall times in milliseconds with summary stats."""

    times_ms: np.ndarray
    mean: float
    std: float

    @classmethod
    def from_times(cls, times_ms: np.ndarray) -> "LatencySample":
        times_ms = np.asarray(times_ms, dtype=np.float64)
        return cls(
            times_ms=times_ms,
            mean=float(times_ms.mean()),
            std=float(times_ms.std(ddof=1)) if times_ms.size > 1 else 0.0,
        )


def _random_clip(model: ThreeStreamModel, rng: np.random.Generator) -> np.ndarray:
    cfg = model.config
    return rng.normal(0.0, 1.0, (cfg.dims, cfg.clip_len, cfg.joint_count))


def benchmark_pair(model_a: ThreeStreamModel, model_b: ThreeStreamModel,
                   n_warmup: int = 10, n_samples: int = 30,
                   seed: int = 0) -> tuple[LatencySample, LatencySample]:
    """Interleaved timing of two variants on the same clip, so drift in
    machine load hits both samples equally."""
    if n_samples < 30:
        raise ValueError(f"benchmark_pair: need n_samples >= 30, got {n_samples}")
    rng = np.random.default_rng(seed)
    clip = _random_clip(model_a, rng)
    for _ in range(n_warmup):
        model_a.forward(clip, training=False)
        model_b.forward(clip, training=False)
    times_a = np.empty(n_samples)
    times_b = np.empty(n_samples)
    for i in range(n_samples):
        t0 = time.perf_counter()
        model_a.forward(clip, training=False)
        times_a[i] = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        model_b.forward(clip, training=False)
        times_b[i] = (time.perf_counter() - t0) * 1e3
    return LatencySample.from_times(times_a), LatencySample.from_times(times_b)


def welch_t_test(a, b) -> tuple[float, float]:
    """Welch's t statistic and Welch-Satterthwaite degrees of freedom.

    Both samples need size >= 2 and a nonzero combined variance; two
    constant samples with equal means define t = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("welch_t_test: each sample needs at least 2 observations")
    sea = a.var(ddof=1) / a.size
    seb = b.var(ddof=1) / b.size
    se2 = sea + seb
    if se2 == 0.0:
        if a.mean() == b.mean():
            return 0.0, float(a.size + b.size - 2)
        raise ValueError("welch_t_test: zero combined variance with unequal means")
    t = (a.mean() - b.mean()) / np.sqrt(se2)
    df = se2 ** 2 / (sea ** 2 / (a.size - 1) + seb ** 2 / (b.size - 1))
    return float(t), float(df)
