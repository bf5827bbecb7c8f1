"""Network building blocks: spatial graph convolution with a learnable
adjacency mask, separable and dense temporal convolutions, the combined
GSTCN block with its residual paths, and joint/frame masking.

All layer forwards take and return [N, C, T, V] tensors; frame count T
and joint count V are preserved everywhere. Every module derives from
:class:`Layer`, which names its parameters from its attributes.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, parameter


class Layer:
    """A module whose trainable tensors are found by walking its attributes.

    ``parameters`` visits ``vars(self)`` in the order the attributes were
    set: a tensor with ``requires_grad`` is listed as ``prefix.attr``, a
    held :class:`Layer` adds its own under ``prefix.attr``, and a held dict
    adds each entry under its key alone. The names are the checkpoint
    record names, so setting a tensor is all it takes to train and save it.
    """

    def parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for attr, value in vars(self).items():
            for name, child in value.items() if isinstance(value, dict) else [(attr, value)]:
                name = f"{prefix}.{name}" if prefix else name
                if isinstance(child, Layer):
                    out += child.parameters(name)
                elif isinstance(child, Tensor) and child.requires_grad:
                    out.append((name, child))
        return out

    def param_tensors(self) -> list[Tensor]:
        return [p for _, p in self.parameters()]


class Linear(Layer):
    """Fully connected layer on [N, F] features: y = x @ weight + bias."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_features)
        self.weight = parameter(rng.normal(0.0, scale, (in_features, out_features)))
        self.bias = parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return ad.bias_add(ad.matmul(x, self.weight), self.bias)


class SgcLayer(Layer):
    """Spatial graph convolution with a trainable multiplicative mask.

    Computes ``(A ⊙ M) · X · W``: neighbors are aggregated through the
    normalized adjacency A refined elementwise by the mask M, then the
    C_in channels are embedded to C_out with a weight shared across each
    joint's neighbor set (uni-labeling). Both maps are linear and one
    mixes only joints while the other mixes only channels, so this order
    is the paper's embed-then-aggregate function; aggregating the C_in
    input channels costs C_in/C_out of aggregating the C_out outputs.
    M starts at all-ones, so training begins from the anatomical graph.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 norm_adj: np.ndarray, rng: np.random.Generator):
        v = norm_adj.shape[0]
        if norm_adj.shape != (v, v):
            raise ValueError(f"SgcLayer: adjacency must be square, got {norm_adj.shape}")
        scale = np.sqrt(2.0 / in_channels)
        self.weight = parameter(rng.normal(0.0, scale, (in_channels, out_channels)))
        self.mask = parameter(np.ones((v, v)))
        self.adjacency = Tensor(norm_adj)

    def forward(self, x: Tensor) -> Tensor:
        effective = ad.mul(self.adjacency, self.mask)
        return ad.pointwise_conv(ad.spatial_aggregate(x, effective), self.weight)


class SepTcnLayer(Layer):
    """Separable temporal convolution: depthwise k_t x 1 then pointwise 1x1.

    The depthwise stage never mixes channels; the pointwise stage never
    mixes time steps. Needs k_t * C + C * C' multiplies per output
    position instead of the dense k_t * C * C'.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, kernel_t: int = 3):
        self.depthwise = parameter(
            rng.normal(0.0, np.sqrt(1.0 / kernel_t), (in_channels, kernel_t))
        )
        self.pointwise = parameter(
            rng.normal(0.0, np.sqrt(2.0 / in_channels), (in_channels, out_channels))
        )
        self.bias = parameter(np.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        h = ad.depthwise_tconv(x, self.depthwise)
        return ad.bias_add(ad.pointwise_conv(h, self.pointwise), self.bias)


class DenseTcnLayer(Layer):
    """Unfactored k_t x 1 temporal convolution, the efficiency baseline."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, kernel_t: int = 3):
        self.kernel = parameter(
            rng.normal(0.0, np.sqrt(2.0 / (in_channels * kernel_t)),
                       (out_channels, in_channels, kernel_t))
        )
        self.bias = parameter(np.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return ad.bias_add(ad.dense_tconv(x, self.kernel), self.bias)


def septcn_flops(c_in: int, c_out: int, t: int, v: int, k_t: int) -> tuple[int, int]:
    """Multiply counts of one separable vs one dense temporal convolution.

    Per output position the separable form costs k_t*c_in + c_in*c_out
    against the dense k_t*c_in*c_out; totals scale by t*v. Separable is
    cheaper whenever c_out > k_t / (k_t - 1); for k_t = 1 it is never
    cheaper (the extra depthwise term has nothing to amortize).
    """
    if min(c_in, c_out, t, v, k_t) < 1:
        raise ValueError("septcn_flops: all arguments must be positive")
    separable = (k_t * c_in + c_in * c_out) * t * v
    dense = (k_t * c_in * c_out) * t * v
    return separable, dense


def is_int(value) -> bool:
    """An integer setting; ``True`` and ``False`` are refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real-number setting; ``True`` and ``False`` are refused."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class MaskingConfig:
    """Training-time random zeroing of whole joints and whole frames."""

    p_joint: float = 0.1
    p_frame: float = 0.1

    def __post_init__(self) -> None:
        for name, p in (("p_joint", self.p_joint), ("p_frame", self.p_frame)):
            if not is_real(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"MaskingConfig: {name} must be a number in [0, 1], got {p!r}")


def apply_masking(x: Tensor, cfg: MaskingConfig,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Zero whole joint columns (prob p_joint) and frame slices (p_frame).

    Identity when both probabilities are zero; otherwise masks are drawn
    independently per sample from ``rng``, which must be given so that
    runs stay deterministic. Callers skip masking in evaluation mode.
    """
    if cfg.p_joint == 0.0 and cfg.p_frame == 0.0:
        return x
    if rng is None:
        raise ValueError("apply_masking: masking needs an explicit rng for determinism")
    n, _, t, v = x.shape
    keep = np.ones((n, 1, t, v))
    if cfg.p_joint > 0.0:
        keep = keep * (rng.random((n, 1, 1, v)) >= cfg.p_joint)
    if cfg.p_frame > 0.0:
        keep = keep * (rng.random((n, 1, t, 1)) >= cfg.p_frame)
    return ad.scale(x, keep)


class GstcnBlock(Layer):
    """One SGC + temporal-convolution stage with residual emphasis paths.

        y = ReLU( TCN(SGC(mask(x))) + proj(x) + tpool(proj(x)) )

    proj is a pointwise projection when the channel width changes and
    the identity otherwise. tpool (max over frames, broadcast back)
    emphasizes the most important frames. Masking touches only the
    convolutional path, never the residual.
    """

    def __init__(self, in_channels: int, out_channels: int, norm_adj: np.ndarray,
                 rng: np.random.Generator, tcn: str = "separable", kernel_t: int = 3):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.sgc = SgcLayer(in_channels, out_channels, norm_adj, rng)
        if tcn == "separable":
            self.tcn = SepTcnLayer(out_channels, out_channels, rng, kernel_t)
        elif tcn == "dense":
            self.tcn = DenseTcnLayer(out_channels, out_channels, rng, kernel_t)
        else:
            raise ValueError(f"GstcnBlock: unknown tcn kind {tcn!r}")
        self.proj = None
        if in_channels != out_channels:
            self.proj = parameter(
                rng.normal(0.0, np.sqrt(2.0 / in_channels), (in_channels, out_channels))
            )

    def forward(self, x: Tensor, masking: MaskingConfig | None = None,
                rng: np.random.Generator | None = None) -> Tensor:
        """``masking`` is given only in training; None means evaluation."""
        h = x
        if masking is not None:
            h = apply_masking(h, masking, rng)
        h = self.tcn.forward(self.sgc.forward(h))
        res = x if self.proj is None else ad.pointwise_conv(x, self.proj)
        return ad.relu(ad.add(ad.add(h, res), ad.max_pool_frames(res)))
