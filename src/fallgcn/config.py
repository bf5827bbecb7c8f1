"""Run configuration: one JSON file holding data, model, masking, and
training settings. Unknown keys are rejected by name so typos never
silently fall back to defaults, and a data or output setting of the
wrong type by its dotted key. The model, masking and train sections take their keys
and defaults from ``ModelConfig``, ``MaskingConfig`` and
``Hyperparams``, which check their values when the file loads, so every
command refuses a bad value with the file and section named.
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


DEFAULTS: dict = {
    "data": {
        "layout": "coco18",
        "manifest": None,
        "archive": None,
        "clip_len": 64,
        "stride": 32,
        "train_fraction": 0.9,
        "split_seed": 7,
    },
    # masking settings have a section of their own
    "model": {key: value for key, value in ModelConfig().to_dict().items()
              if key not in ARCHIVE_FIELDS and key != "masking"},
    "masking": dataclasses.asdict(MaskingConfig()),
    "train": dataclasses.asdict(Hyperparams()),
    "out": {
        "checkpoint": "model.fgcn",
        "history": "history.csv",
        "report": "report.json",
        "archive": "clips.fgcn",
    },
}


def _is_text(value) -> bool:
    return isinstance(value, str)


def _is_text_or_null(value) -> bool:
    return value is None or isinstance(value, str)


# What each data and output setting must be: the model, masking and train
# sections are checked by their dataclasses, these by load_run_config. A
# path that is not a string would reach open() as a file descriptor.
_SETTING_TYPES = {
    "data": {
        "layout": (_is_text, "a string"),
        "manifest": (_is_text_or_null, "a string or null"),
        "archive": (_is_text_or_null, "a string or null"),
        "clip_len": (is_int, "an integer"),
        "stride": (is_int, "an integer"),
        "train_fraction": (is_real, "a number"),
        "split_seed": (is_int, "an integer"),
    },
    "out": {key: (_is_text, "a string") for key in DEFAULTS["out"]},
}


# The dataclass that checks each setting of a section; the model section
# is built with the archive fields and the masking at their defaults.
_SECTION_CLASSES = {"model": ModelConfig, "masking": MaskingConfig, "train": Hyperparams}


class ConfigError(ValueError):
    """Raised for unknown keys, settings of the wrong type, values that a
    section's dataclass refuses or unreadable config files."""


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
            for section, types in _SETTING_TYPES.items():
                for key, (valid, kind) in types.items():
                    value = cfg[section][key]
                    if not valid(value):
                        raise ConfigError(f"config key '{section}.{key}' must be {kind}, "
                                          f"got {value!r}")
            for section, cls in _SECTION_CLASSES.items():
                try:
                    cls(**cfg[section])
                except ValueError as exc:
                    raise ConfigError(f"config section '{section}': {exc}") from None
        except ConfigError as exc:
            raise ConfigError(f"{p}: {exc}") from None
    return cfg


def apply_seed_override(cfg: dict, seed: int) -> None:
    """--seed controls every source of run randomness at once."""
    cfg["train"]["seed"] = seed
    cfg["model"]["init_seed"] = seed
