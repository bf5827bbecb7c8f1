"""The three-stream network: joint stream, frame-difference motion
stream, and a pointwise-projected skip stream, fused by global average
pooling and concatenation, followed by the classification head.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, parameter
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .layers import GstcnBlock, Layer, Linear, MaskingConfig, is_int, is_real, septcn_flops

STREAM_NAMES = ("joint", "motion", "skip")


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
        if not is_int(self.dims) or self.dims not in (2, 3):
            raise ValueError(f"ModelConfig: dims must be 2 or 3, got {self.dims}")
        if self.tcn not in ("separable", "dense"):
            raise ValueError(f"ModelConfig: unknown tcn kind {self.tcn!r}")
        sizes = [("clip_len", self.clip_len, 2), ("joint_count", self.joint_count, 1),
                 ("num_classes", self.num_classes, 1), ("head_hidden", self.head_hidden, 1),
                 ("kernel_t", self.kernel_t, 1), ("init_seed", self.init_seed, 0)]
        sizes += [(f"channels[{i}]", c, 1) for i, c in enumerate(self.channels)]
        for name, value, least in sizes:
            if not is_int(value) or value < least:
                raise ValueError(f"ModelConfig: {name} must be an int >= {least}, got {value!r}")
        if self.kernel_t % 2 == 0:
            raise ValueError(f"ModelConfig: kernel_t must be odd, got {self.kernel_t}")
        if not is_real(self.dropout) or not 0.0 <= self.dropout < 1.0:
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


class ClassifierHead(Layer):
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


@dataclass(eq=False)
class Stream(Layer):
    """One input stream: the clip, or its frame differences if ``motion``
    is set, through GSTCN blocks and an optional pointwise projection,
    average-pooled over frames and joints. ``compute_motion`` is looked
    up when the stream runs, so a wrapper on the module global sees it."""

    blocks: dict[str, GstcnBlock]
    proj: Tensor | None = None
    motion: bool = False

    def forward(self, x: Tensor, masking: MaskingConfig | None = None,
                rng: np.random.Generator | None = None) -> Tensor:
        """Pooled [N, C] features; ``masking`` is given only in training."""
        h = compute_motion(x) if self.motion else x
        for block in self.blocks.values():
            h = block.forward(h, masking, rng)
        if self.proj is not None:
            h = ad.pointwise_conv(h, self.proj)
        return ad.global_avg_pool(h)


def _build_stream(name: str, config: ModelConfig, norm_adj: np.ndarray,
                  rng: np.random.Generator) -> Stream:
    c1, c2 = config.channels
    if name == "skip":
        return Stream({}, proj=parameter(
            rng.normal(0.0, np.sqrt(2.0 / config.dims), (config.dims, c2))))
    blocks = {f"block{i}": GstcnBlock(c_in, c_out, norm_adj, rng, tcn=config.tcn,
                                      kernel_t=config.kernel_t)
              for i, (c_in, c_out) in enumerate(((config.dims, c1), (c1, c2)), 1)}
    return Stream(blocks, motion=name == "motion")


class ThreeStreamModel(Layer):
    """Joint, motion and skip :class:`Stream` features, concatenated in
    ``config.streams`` order and classified by the head.

    Joint and motion are two GSTCN blocks each (the second extends the
    temporal receptive field) with independent adjacency masks; skip is
    a pointwise projection of the raw clip. ``streams`` holds them by
    name in the order joint, motion, skip, whatever the config order, so
    ``init_seed`` draws and parameter records do not depend on it.
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
        self.streams = {name: _build_stream(name, config, norm_adj, rng)
                        for name in STREAM_NAMES if name in config.streams}
        self.head = ClassifierHead(len(config.streams) * config.channels[1], config.head_hidden,
                                   config.num_classes, config.dropout, rng)

    # --- forward ---------------------------------------------------------

    def stream_features(self, x: Tensor, training: bool = False,
                        rng: np.random.Generator | None = None) -> list[Tensor]:
        """Pooled per-stream feature vectors, in config stream order.

        A one-clip evaluation forward with no tape active shares its
        streams between the caller and the batch-split helper threads
        (``autodiff._run_shared``): a batch of one never reaches the
        batch split, and the streams are independent. Each stream makes
        the same ops, BLAS calls and ufunc loops on whichever thread runs
        it, so the result has the same bits as the serial run. Training
        draws from ``rng`` and a tape records in execution order, so both
        run the streams serially, as does a batch of two or more, which
        the batch split already spreads over the CPUs. Inside shared
        work, such as one of ``evaluate``'s batches, the streams run in
        order on that batch's thread.
        """
        masking = self.config.masking if training else None
        runs = [partial(self.streams[name].forward, x, masking, rng)
                for name in self.config.streams]
        if training or ad._tape() is not None or x.shape[0] != 1:
            return [run() for run in runs]
        return ad._run_shared(runs)

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
        c = self.config
        if data.shape[1:] != (c.dims, c.clip_len, c.joint_count):
            raise ValueError(
                f"model: clip shape {data.shape[1:]} does not match configured "
                f"({c.dims}, {c.clip_len}, {c.joint_count})"
            )
        x = clip if isinstance(clip, Tensor) and not single else Tensor(data)
        feats = self.stream_features(x, training, rng)
        probs = self.head.forward(ad.concat_channels(feats), training, rng)
        return Tensor(probs.data[0]) if single else probs


def count_parameters(model: ThreeStreamModel) -> int:
    """Exact number of trainable scalars, adjacency masks included."""
    return sum(p.size for _, p in model.parameters())


def count_flops(model: ThreeStreamModel) -> int:
    """Multiplies in one single-clip forward pass of the paper's model:
    SGC matmuls, temporal convolutions, residual/skip projections, and
    the head. The SGC is counted in the paper's order, embed then
    aggregate: ``t·v·c_in·c_out + t·v·v·c_out``. ``SgcLayer`` aggregates
    first, so the aggregate the engine performs is ``t·v·v·c_in``."""
    cfg = model.config
    t, v = cfg.clip_len, cfg.joint_count
    total = 0
    for stream in model.streams.values():
        for block in stream.blocks.values():
            c_in, c_out = block.in_channels, block.out_channels
            separable, dense = septcn_flops(c_out, c_out, t, v, cfg.kernel_t)
            total += t * v * c_in * c_out + t * v * v * c_out  # SGC embed, aggregate
            total += separable if cfg.tcn == "separable" else dense
            if block.proj is not None:
                total += t * v * c_in * c_out
        if stream.proj is not None:
            total += t * v * stream.proj.size
    return total + model.head.fc1.weight.size + model.head.fc2.weight.size


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
    for name, array in arrays.items():
        bad = np.flatnonzero(~np.isfinite(array))
        if bad.size:
            raise CheckpointError(f"{path}: record '{name}' is not finite at flat index {bad[0]}")
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
