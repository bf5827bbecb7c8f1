"""Seeded synthetic skeleton data for desk-scale end-to-end checks.

Two classes on the 9-joint stick figure:

* ``fall``: the pelvis (root) descends monotonically over the sequence
  while the limbs hold the standing pose with jitter, so after
  root-centering the rest of the body drifts upward.
* ``walk``: joints oscillate sinusoidally with per-joint amplitude and
  phase (arm/leg swing plus body bob).

Each sequence also gets a random global offset and scale, which the
normalization step removes; class identity lives purely in the relative
dynamics.
"""
from __future__ import annotations

import numpy as np

from .layouts import JointLayout, builtin_layout
from .skeleton_io import SkeletonClip, SkeletonSequence, clips_from_sequences, split_dataset

CLASS_NAMES = ["fall", "walk"]
# standard deviation of the per-joint coordinate jitter
_NOISE = 0.02
# make_dataset: sequence lengths span one stride, so each gives one clip
_STRIDE = 32
_TRAIN_FRACTION = 0.8

# standing pose for stick9: head, neck, l_hand, r_hand, pelvis, l_knee,
# r_knee, l_foot, r_foot
_BASE_POSE = np.array([
    [0.00, 1.70],
    [0.00, 1.40],
    [-0.45, 1.00],
    [0.45, 1.00],
    [0.00, 0.90],
    [-0.15, 0.45],
    [0.15, 0.45],
    [-0.18, 0.00],
    [0.18, 0.00],
])

# walking-gait oscillation: per-joint (x amplitude, y amplitude, phase)
_GAIT = np.array([
    [0.02, 0.03, 0.0],   # head bobs
    [0.02, 0.03, 0.0],   # neck bobs
    [0.22, 0.05, 0.0],   # hands swing in antiphase
    [0.22, 0.05, np.pi],
    [0.03, 0.04, 0.0],   # pelvis bob
    [0.15, 0.05, np.pi],  # knees opposite to same-side hand
    [0.15, 0.05, 0.0],
    [0.20, 0.08, np.pi],
    [0.20, 0.08, 0.0],
])


def generate_sequences(n_per_class: int, seed: int,
                       length_range: tuple[int, int] = (32, 48),
                       invalid_rate: float = 0.0,
                       layout: JointLayout | None = None) -> list[SkeletonSequence]:
    """Labeled sequences, ``n_per_class`` of each class, fall first."""
    layout = layout or builtin_layout("stick9")
    rng = np.random.default_rng(seed)
    root = layout.root_joint
    sequences = []
    for label, name in enumerate(CLASS_NAMES):
        for k in range(n_per_class):
            length = int(rng.integers(length_range[0], length_range[1] + 1))
            t = np.arange(length)
            offset = rng.uniform(-2.0, 2.0, size=2)
            scale = rng.uniform(0.8, 1.6)
            frames_xy = np.repeat(_BASE_POSE[None], length, axis=0)  # [T, V, 2]
            if name == "fall":
                drop = rng.uniform(0.5, 0.8)
                descent = drop * t / max(length - 1, 1)
                jitter = rng.normal(0.0, _NOISE, frames_xy.shape)
                jitter[:, root, :] = 0.0  # keep the root descent exactly monotonic
                frames_xy = frames_xy + jitter
                frames_xy[:, root, 1] -= descent
            else:
                freq = rng.uniform(1.5, 2.5)
                phase0 = rng.uniform(0.0, 2 * np.pi)
                angle = 2 * np.pi * freq * t / length + phase0
                swing = np.sin(angle[:, None] + _GAIT[None, :, 2])
                frames_xy = frames_xy + np.stack(
                    [swing * _GAIT[None, :, 0], swing * _GAIT[None, :, 1]], axis=2
                )
                frames_xy = frames_xy + rng.normal(0.0, _NOISE, frames_xy.shape)
            frames_xy = frames_xy * scale + offset
            valid = rng.random(length) >= invalid_rate
            valid[-1] = True  # keep a valid pad source for short sequences
            sequences.append(SkeletonSequence(id=f"{name}{k:04d}", label=label,
                                              coords=frames_xy, valid=valid, layout=layout))
    return sequences


def make_dataset(n_per_class: int = 250, seed: int = 0,
                 clip_len: int = 32) -> tuple[list[SkeletonClip], list[SkeletonClip]]:
    """Full pipeline: generate, ingest (filter, window, normalize), split.

    Defaults produce 250 sequences per class, one clip each, split
    400 train / 100 test.
    """
    layout = builtin_layout("stick9")
    sequences = generate_sequences(
        n_per_class, seed, length_range=(clip_len, clip_len + _STRIDE - 1), layout=layout)
    return split_dataset(clips_from_sequences(sequences, layout, clip_len, _STRIDE),
                         _TRAIN_FRACTION, seed)
