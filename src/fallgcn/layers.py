"""Network building blocks: spatial graph convolution with a learnable
adjacency mask, separable and dense temporal convolutions, the combined
GSTCN block with its residual paths, and joint/frame masking.

All layer forwards take and return [N, C, T, V] tensors; frame count T
and joint count V are preserved everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, parameter


class Linear:
    """Fully connected layer on [N, F] features: y = x @ weight + bias."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_features)
        self.weight = parameter(rng.normal(0.0, scale, (in_features, out_features)))
        self.bias = parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return ad.bias_add(ad.matmul(x, self.weight), self.bias)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class SgcLayer:
    """Spatial graph convolution with a trainable multiplicative mask.

    Channels are first embedded with a weight shared across each joint's
    neighbor set (uni-labeling), then aggregated over neighbors through
    the normalized adjacency refined elementwise by the mask M. M starts
    at all-ones, so training begins from the anatomical graph.
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
        return ad.spatial_aggregate(ad.pointwise_conv(x, self.weight), effective)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.mask", self.mask)]


class SepTcnLayer:
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

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.depthwise", self.depthwise),
            (f"{prefix}.pointwise", self.pointwise),
            (f"{prefix}.bias", self.bias),
        ]


class DenseTcnLayer:
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

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.kernel", self.kernel), (f"{prefix}.bias", self.bias)]


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


@dataclass
class MaskingConfig:
    """Training-time random zeroing of whole joints and whole frames."""

    p_joint: float = 0.1
    p_frame: float = 0.1

    def __post_init__(self) -> None:
        for name, p in (("p_joint", self.p_joint), ("p_frame", self.p_frame)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"MaskingConfig: {name} must be in [0, 1], got {p}")


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


class GstcnBlock:
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

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = self.sgc.parameters(f"{prefix}.sgc") + self.tcn.parameters(f"{prefix}.tcn")
        if self.proj is not None:
            out.append((f"{prefix}.proj", self.proj))
        return out
