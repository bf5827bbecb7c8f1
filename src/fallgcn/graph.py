"""The aggregation operator of spatial graph convolution.

Each joint is coupled to itself and its anatomical neighbors through
the symmetrically degree-normalized adjacency with self-loops,
``D^(-1/2) (A + I) D^(-1/2)``, whose spectral radius stays <= 1.
"""
from __future__ import annotations

import numpy as np

from .layouts import JointLayout


def normalized_adjacency(layout: JointLayout) -> np.ndarray:
    """Read-only ``D^(-1/2) (A + I) D^(-1/2)`` of the layout's bones.

    A[i][j] = 1 iff joints i and j share an edge; D is the degree matrix
    of A + I. The self-loop guarantees every degree >= 1, so the result
    is finite, symmetric, and in [0, 1]. Its nonzero entries in row v
    are the neighbor set B(v) = {v} plus the joints sharing an edge
    with v. The layout already rejects self, duplicate, out-of-range and
    disconnecting edges, so A is a valid binary adjacency.
    """
    with_loops = np.eye(layout.joint_count)
    for a, b in layout.edges:
        with_loops[a, b] = with_loops[b, a] = 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(with_loops.sum(axis=1))
    norm = with_loops * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
    norm.flags.writeable = False
    return norm
