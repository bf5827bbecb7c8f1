"""The three-stream network: joint stream, frame-difference motion
stream, and a pointwise-projected skip stream, fused by global average
pooling and concatenation, followed by the classification head.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, parameter
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .layers import GstcnBlock, Linear, MaskingConfig, septcn_flops

STREAM_NAMES = ("joint", "motion", "skip")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    """Architecture settings; defaults give the full-size network."""

    dims: int = 2
    clip_len: int = 64
    joint_count: int = 18
    num_classes: int = 2
    channels: tuple[int, int] = (64, 128)
    head_hidden: int = 64
    dropout: float = 0.1
    masking: MaskingConfig = field(default_factory=MaskingConfig)
    tcn: str = "separable"
    kernel_t: int = 3
    streams: tuple[str, ...] = STREAM_NAMES
    init_seed: int = 0
    layout_name: str = "coco18"

    def __post_init__(self) -> None:
        for name in ("channels", "streams"):
            value = getattr(self, name)
            try:
                setattr(self, name, tuple(value))
            except TypeError:
                raise ValueError(f"ModelConfig: {name} must be a list, got {value!r}") from None
        if len(self.channels) != 2:
            raise ValueError("ModelConfig: channel plan must list exactly 2 stages")
        if (not self.streams or any(s not in STREAM_NAMES for s in self.streams)
                or len(set(self.streams)) != len(self.streams)):
            raise ValueError(
                f"ModelConfig: streams must be a non-empty subset of {STREAM_NAMES}"
            )
        if not _is_int(self.dims) or self.dims not in (2, 3):
            raise ValueError(f"ModelConfig: dims must be 2 or 3, got {self.dims}")
        if self.tcn not in ("separable", "dense"):
            raise ValueError(f"ModelConfig: unknown tcn kind {self.tcn!r}")
        sizes = [("clip_len", self.clip_len, 2), ("joint_count", self.joint_count, 1),
                 ("num_classes", self.num_classes, 1), ("head_hidden", self.head_hidden, 1),
                 ("kernel_t", self.kernel_t, 1), ("init_seed", self.init_seed, 0)]
        sizes += [(f"channels[{i}]", c, 1) for i, c in enumerate(self.channels)]
        for name, value, least in sizes:
            if not _is_int(value) or value < least:
                raise ValueError(f"ModelConfig: {name} must be an int >= {least}, got {value!r}")
        if self.kernel_t % 2 == 0:
            raise ValueError(f"ModelConfig: kernel_t must be odd, got {self.kernel_t}")
        if not isinstance(self.dropout, numbers.Real) or not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"ModelConfig: dropout must be in [0, 1), got {self.dropout!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["channels"] = list(self.channels)
        d["streams"] = list(self.streams)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of :meth:`to_dict`; keys this version does not know are
        rejected by their dotted name."""
        d = dict(d)
        masking = d.pop("masking", {})
        if not isinstance(masking, dict):
            raise ValueError(f"ModelConfig: masking must be an object, got {masking!r}")
        unknown = [k for k in d if k not in cls.__dataclass_fields__] + [
            f"masking.{k}" for k in masking if k not in MaskingConfig.__dataclass_fields__
        ]
        if unknown:
            raise ValueError(f"ModelConfig: unknown keys {sorted(unknown)}")
        return cls(**d, masking=MaskingConfig(**masking))


def compute_motion(clip):
    """Frame-difference motion: out[t] = x[t] - x[t-1], zero at frame 0.

    Accepts an [.., T, V] array or Tensor with T on the second-to-last
    axis; applies per coordinate channel. The cumulative sum of the
    result added to frame 0 reconstructs the input exactly.
    """
    data = clip.data if isinstance(clip, Tensor) else np.asarray(clip, dtype=np.float64)
    if data.shape[-2] < 2:
        raise ValueError(f"compute_motion: need at least 2 frames, got {data.shape[-2]}")
    out = np.zeros_like(data)
    out[..., 1:, :] = data[..., 1:, :] - data[..., :-1, :]
    return Tensor(out) if isinstance(clip, Tensor) else out


class ClassifierHead:
    """FC -> ReLU -> layer norm -> dropout -> FC -> softmax."""

    def __init__(self, in_features: int, hidden: int, num_classes: int,
                 dropout_rate: float, rng: np.random.Generator):
        self.fc1 = Linear(in_features, hidden, rng)
        self.ln_gamma = parameter(np.ones(hidden))
        self.ln_beta = parameter(np.zeros(hidden))
        self.fc2 = Linear(hidden, num_classes, rng)
        self.dropout_rate = dropout_rate

    def forward(self, features: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        h = ad.relu(self.fc1.forward(features))
        h = ad.layer_norm(h, self.ln_gamma, self.ln_beta)
        h = ad.dropout(h, self.dropout_rate, rng, active=training)
        return ad.softmax(self.fc2.forward(h))

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return (
            self.fc1.parameters(f"{prefix}.fc1")
            + [(f"{prefix}.ln_gamma", self.ln_gamma), (f"{prefix}.ln_beta", self.ln_beta)]
            + self.fc2.parameters(f"{prefix}.fc2")
        )


class ThreeStreamModel:
    """Joint, motion, and skip streams pooled into one feature vector.

    Streams 1 and 2 are two stacked GSTCN blocks each (the second block
    extends the temporal receptive field); stream 3 is a pointwise
    projection of the raw clip. Each stream is globally average-pooled
    over frames and joints before concatenation, so the skip stream
    aligns with the convolutional streams without extra plumbing.
    Motion is derived internally from the same clip the joint stream
    sees. The two convolutional streams keep independent adjacency
    masks.
    """

    def __init__(self, config: ModelConfig, norm_adj: np.ndarray):
        norm_adj = np.asarray(norm_adj, dtype=np.float64)
        if norm_adj.shape != (config.joint_count, config.joint_count):
            raise ValueError(
                f"model: adjacency {norm_adj.shape} does not match joint_count "
                f"{config.joint_count}"
            )
        self.config = config
        self.norm_adj = norm_adj
        rng = np.random.default_rng(config.init_seed)
        c1, c2 = config.channels

        def make_block(c_in, c_out):
            return GstcnBlock(c_in, c_out, norm_adj, rng, tcn=config.tcn,
                              kernel_t=config.kernel_t)

        self.joint_blocks = (
            [make_block(config.dims, c1), make_block(c1, c2)]
            if "joint" in config.streams else []
        )
        self.motion_blocks = (
            [make_block(config.dims, c1), make_block(c1, c2)]
            if "motion" in config.streams else []
        )
        self.skip_proj = (
            parameter(rng.normal(0.0, np.sqrt(2.0 / config.dims), (config.dims, c2)))
            if "skip" in config.streams else None
        )
        self.head = ClassifierHead(
            len(config.streams) * c2, config.head_hidden, config.num_classes,
            config.dropout, rng,
        )

    # --- forward ---------------------------------------------------------

    def _check_input(self, data: np.ndarray) -> None:
        c = self.config
        if data.shape[1:] != (c.dims, c.clip_len, c.joint_count):
            raise ValueError(
                f"model: clip shape {data.shape[1:]} does not match configured "
                f"({c.dims}, {c.clip_len}, {c.joint_count})"
            )

    def stream_features(self, x: Tensor, training: bool = False,
                        rng: np.random.Generator | None = None) -> list[Tensor]:
        """Pooled per-stream feature vectors, in config stream order."""
        masking = self.config.masking if training else None
        feats = []
        for name in self.config.streams:
            if name == "joint":
                h = x
                for block in self.joint_blocks:
                    h = block.forward(h, masking, rng)
                f = ad.global_avg_pool(h)
            elif name == "motion":
                h = compute_motion(x)
                for block in self.motion_blocks:
                    h = block.forward(h, masking, rng)
                f = ad.global_avg_pool(h)
            else:
                f = ad.global_avg_pool(ad.pointwise_conv(x, self.skip_proj))
            feats.append(f)
        return feats

    def forward(self, clip, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Class probabilities for one clip [C, T, V] or a batch [N, C, T, V].

        ``training=True`` turns on masking and dropout, which draw from
        ``rng``; it must be given so that training stays deterministic.
        """
        if training and rng is None:
            raise ValueError("model: a training forward needs an explicit rng for determinism")
        data = clip.data if isinstance(clip, Tensor) else np.asarray(clip, dtype=np.float64)
        single = data.ndim == 3
        if single:
            data = data[None]
        self._check_input(data)
        x = clip if isinstance(clip, Tensor) and not single else Tensor(data)
        feats = self.stream_features(x, training, rng)
        probs = self.head.forward(ad.concat_channels(feats), training, rng)
        if single:
            return Tensor(probs.data[0])
        return probs

    # --- bookkeeping -----------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for i, block in enumerate(self.joint_blocks):
            out += block.parameters(f"joint.block{i + 1}")
        for i, block in enumerate(self.motion_blocks):
            out += block.parameters(f"motion.block{i + 1}")
        if self.skip_proj is not None:
            out.append(("skip.proj", self.skip_proj))
        out += self.head.parameters("head")
        return out

    def param_tensors(self) -> list[Tensor]:
        return [p for _, p in self.parameters()]


def count_parameters(model: ThreeStreamModel) -> int:
    """Exact number of trainable scalars, adjacency masks included."""
    return sum(p.size for _, p in model.parameters())


def _block_flops(c_in: int, c_out: int, t: int, v: int, kind: str, k_t: int,
                 has_proj: bool) -> int:
    embed = t * v * c_in * c_out
    aggregate = t * v * v * c_out
    separable, dense = septcn_flops(c_out, c_out, t, v, k_t)
    tcn = separable if kind == "separable" else dense
    proj = t * v * c_in * c_out if has_proj else 0
    return embed + aggregate + tcn + proj


def count_flops(model: ThreeStreamModel, input_shape: tuple[int, int, int] | None = None) -> int:
    """Multiplies in one single-clip forward pass: SGC matmuls, temporal
    convolutions, residual/skip projections, and the head."""
    cfg = model.config
    dims, t, v = input_shape or (cfg.dims, cfg.clip_len, cfg.joint_count)
    c1, c2 = cfg.channels
    total = 0
    for name in cfg.streams:
        if name in ("joint", "motion"):
            total += _block_flops(dims, c1, t, v, cfg.tcn, cfg.kernel_t, dims != c1)
            total += _block_flops(c1, c2, t, v, cfg.tcn, cfg.kernel_t, c1 != c2)
        else:
            total += t * v * dims * c2
    total += len(cfg.streams) * c2 * cfg.head_hidden
    total += cfg.head_hidden * cfg.num_classes
    return total


# --- persistence ----------------------------------------------------------


def save_model(model: ThreeStreamModel, path: str | Path) -> None:
    """Checkpoint: every parameter bit-exact plus the config to rebuild."""
    arrays = {name: p.data for name, p in model.parameters()}
    arrays["adjacency"] = model.norm_adj
    save_arrays(path, arrays, meta={"model_config": model.config.to_dict()})


def load_model(path: str | Path) -> ThreeStreamModel:
    arrays, meta = load_arrays(path)
    if "model_config" not in meta:
        raise CheckpointError(f"{path}: missing model_config metadata")
    try:
        config = ModelConfig.from_dict(meta["model_config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model_config: {exc}") from exc
    if "adjacency" not in arrays:
        raise CheckpointError(f"{path}: missing adjacency record")
    try:
        model = ThreeStreamModel(config, arrays.pop("adjacency"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: cannot build the model from model_config: {exc}") from exc
    expected = dict(model.parameters())
    missing = set(expected) - set(arrays)
    extra = set(arrays) - set(expected)
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter records do not match config "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    for name, tensor in expected.items():
        if arrays[name].shape != tensor.data.shape:
            raise CheckpointError(
                f"{path}: record '{name}' has shape {arrays[name].shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = arrays[name]
    return model
