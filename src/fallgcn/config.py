"""Run configuration: one JSON file holding data, model, masking, and
training settings. Unknown keys are rejected by name so typos never
silently fall back to defaults. The model, masking and train sections
take their keys and defaults from ``ModelConfig``, ``MaskingConfig`` and
``Hyperparams``.
"""
from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

from .layers import MaskingConfig
from .layouts import JointLayout
from .model import ModelConfig
from .training import Hyperparams

# The ModelConfig fields a clip archive fixes, each read off the
# ``(class_names, layout, meta)`` that ``load_clip_archive`` returns:
# ``train`` builds the model from them, ``eval`` checks a checkpoint
# against them, and the model section has no key for them.
ARCHIVE_FIELDS = {
    "dims": lambda class_names, layout, meta: meta["dims"],
    "clip_len": lambda class_names, layout, meta: meta["clip_len"],
    "joint_count": lambda class_names, layout, meta: layout.joint_count,
    "num_classes": lambda class_names, layout, meta: len(class_names),
    "layout_name": lambda class_names, layout, meta: layout.name,
}


def archive_fields(class_names: list[str], layout: JointLayout, meta: dict) -> dict:
    """:data:`ARCHIVE_FIELDS` evaluated on one clip archive."""
    return {name: read(class_names, layout, meta) for name, read in ARCHIVE_FIELDS.items()}


def _section(defaults, skip: frozenset = frozenset()) -> dict:
    """A dataclass instance's fields as a JSON-shaped config section."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in dataclasses.asdict(defaults).items()
        if key not in skip
    }


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
    "model": _section(ModelConfig(), skip=frozenset(ARCHIVE_FIELDS) | {"masking"}),
    "masking": _section(MaskingConfig()),
    "train": _section(Hyperparams()),
    "out": {
        "checkpoint": "model.fgcn",
        "history": "history.csv",
        "report": "report.json",
        "archive": "clips.fgcn",
    },
}


class ConfigError(ValueError):
    """Raised for unknown keys or unreadable config files."""


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
            user = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc.msg} at line {exc.lineno})") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{p}: config root must be an object")
        _merge(cfg, user)
    return cfg


def apply_seed_override(cfg: dict, seed: int) -> None:
    """--seed controls every source of run randomness at once."""
    cfg["train"]["seed"] = seed
    cfg["model"]["init_seed"] = seed
