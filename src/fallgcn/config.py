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
from .model import ModelConfig
from .training import Hyperparams

# ModelConfig fields that ``train`` reads from the clip archive, plus the
# masking settings, which have their own section.
_NOT_IN_MODEL_SECTION = frozenset(
    {"dims", "clip_len", "joint_count", "num_classes", "layout_name", "masking"}
)


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
    "model": _section(ModelConfig(), skip=_NOT_IN_MODEL_SECTION),
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
