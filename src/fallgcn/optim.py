"""Stochastic gradient descent with classic momentum."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor


@dataclass
class SgdState:
    """Optimizer state: one velocity buffer per parameter.

    Update rule (classic momentum):
        v <- momentum * v + g
        p <- p - learning_rate * v
    """

    learning_rate: float = 0.01
    momentum: float = 0.9
    velocities: list[np.ndarray] = field(default_factory=list)


def sgd_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: SgdState) -> None:
    """Apply one update in place; velocity buffers are created lazily."""
    if len(params) != len(grads):
        raise ValueError(f"sgd_step: {len(params)} params but {len(grads)} grads")
    if not state.velocities:
        state.velocities = [np.zeros_like(p.data) for p in params]
    if len(state.velocities) != len(params):
        raise ValueError("sgd_step: velocity count does not match parameter count")
    for i, (p, g, v) in enumerate(zip(params, grads, state.velocities)):
        if p.data.shape != g.shape or v.shape != g.shape:
            raise ValueError(
                f"sgd_step: shape mismatch for parameter {i}: "
                f"param {p.data.shape}, grad {g.shape}"
            )
        v *= state.momentum
        v += g
        p.data -= state.learning_rate * v
