"""Run configuration: one JSON file holding data, model, masking, train
and output settings. Unknown keys are rejected by name so typos never
silently fall back to defaults. Each section takes its keys and defaults
from its dataclass in :data:`SECTIONS`, which checks the values when the
file loads, so every command refuses a bad value with the file and
section named.
"""
from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

from .layers import MaskingConfig, is_int, is_real
from .layouts import JointLayout, open_utf8
from .model import ModelConfig
from .skeleton_io import SkeletonClip
from .training import Hyperparams

# The ModelConfig fields a clip archive fixes, each read off the
# ``(clips, class_names, layout)`` that ``load_clip_archive`` returns:
# ``train`` builds the model from them, ``eval`` checks a checkpoint
# against them, and the model section has no key for them.
ARCHIVE_FIELDS = {
    "dims": lambda clips, class_names, layout: clips[0].data.shape[0],
    "clip_len": lambda clips, class_names, layout: clips[0].data.shape[1],
    "joint_count": lambda clips, class_names, layout: layout.joint_count,
    "num_classes": lambda clips, class_names, layout: len(class_names),
    "layout_name": lambda clips, class_names, layout: layout.name,
}


def archive_fields(clips: list[SkeletonClip], class_names: list[str],
                   layout: JointLayout) -> dict:
    """:data:`ARCHIVE_FIELDS` evaluated on one clip archive."""
    return {name: read(clips, class_names, layout) for name, read in ARCHIVE_FIELDS.items()}


@dataclasses.dataclass
class DataConfig:
    """Input paths, windowing and train/validation split. A path that is
    not a string would reach open() as a file descriptor."""

    layout: str = "coco18"
    manifest: str | None = None
    archive: str | None = None
    clip_len: int = 64
    stride: int = 32
    train_fraction: float = 0.9
    split_seed: int = 7

    def __post_init__(self) -> None:
        if not isinstance(self.layout, str):
            raise ValueError(f"DataConfig: layout must be a string, got {self.layout!r}")
        for name in ("manifest", "archive"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"DataConfig: {name} must be a string or null, got {value!r}")
        for name, least in (("clip_len", 2), ("stride", 1), ("split_seed", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ValueError(f"DataConfig: {name} must be an int >= {least}, got {value!r}")
        if not (is_real(self.train_fraction) and 0.0 < self.train_fraction < 1.0):
            raise ValueError("DataConfig: train_fraction must be a number in (0, 1), "
                             f"got {self.train_fraction!r}")


@dataclasses.dataclass
class OutConfig:
    """The default output path of each command."""

    checkpoint: str = "model.fgcn"
    history: str = "history.csv"
    report: str = "report.json"
    archive: str = "clips.fgcn"

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if not isinstance(value, str):
                raise ValueError(f"OutConfig: {name} must be a string, got {value!r}")


# The dataclass that gives each section its keys and defaults and checks
# its values; the model section is checked with the archive fields and the
# masking at their defaults.
SECTIONS = {"data": DataConfig, "model": ModelConfig, "masking": MaskingConfig,
            "train": Hyperparams, "out": OutConfig}

# The model section has no key for the archive fields, and the masking
# settings have a section of their own.
DEFAULTS: dict = {
    section: {key: list(value) if isinstance(value, tuple) else value
              for key, value in dataclasses.asdict(cls()).items()
              if section != "model" or key not in {*ARCHIVE_FIELDS, "masking"}}
    for section, cls in SECTIONS.items()
}


class ConfigError(ValueError):
    """Raised for unknown keys, values that a section's dataclass refuses
    or unreadable config files."""


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key '{dotted}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{dotted}' must be a section")
            _merge(base[key], value, f"{dotted}.")
        else:
            base[key] = value


def load_run_config(path: str | Path | None) -> dict:
    """Defaults overlaid with the JSON file at ``path`` (if any)."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            with open_utf8(p, ConfigError) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc.msg} at line {exc.lineno})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{p}: config root must be an object")
        try:
            _merge(cfg, user)
        except ConfigError as exc:
            raise ConfigError(f"{p}: {exc}") from None
        for section, cls in SECTIONS.items():
            try:
                cls(**cfg[section])
            except ValueError as exc:
                raise ConfigError(f"{p}: config section '{section}': {exc}") from None
    return cfg


def apply_seed_override(cfg: dict, seed: int) -> None:
    """--seed controls every source of run randomness at once."""
    cfg["train"]["seed"] = seed
    cfg["model"]["init_seed"] = seed
