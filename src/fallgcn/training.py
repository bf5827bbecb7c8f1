"""Mini-batch training with the reference hyperparameters, and argmax
evaluation into a confusion matrix.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, ShapeError, Tensor
from .metrics import ConfusionMatrix
from .model import ThreeStreamModel, _is_int
from .optim import SgdState, sgd_step
from .skeleton_io import SkeletonClip

# Clips per evaluation forward. With freed heap kept mapped (see
# ``autodiff``) no batch size pays page faults. 128 desk clips on a 2-core
# Xeon with 1 BLAS thread, where ``autodiff`` splits each batch over both
# cores, ran at 230-234 clips/s in batches of 8, 263-266 in 16, 276-277 in
# 32 and 296-309 in one batch of 128 (medians of 5, two rounds); unsplit,
# on the same host, at 210-240, 197-206, 182-209 and 160-173. Larger
# batches now run faster but hold more activations at once; the recorded
# benchmark figures, peak memory included, use 16.
EVAL_BATCH = 16


@dataclass
class Hyperparams:
    """Training settings; defaults follow the reference configuration
    (SGD, lr 0.01, momentum 0.9, batch size 32, 100 epochs)."""

    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("batch_size", 1), ("epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ValueError(f"Hyperparams: {name} must be an int >= {least}, got {value!r}")
        lr, momentum = self.learning_rate, self.momentum
        if not (_is_number(lr) and 0.0 <= lr < math.inf):
            raise ValueError(f"Hyperparams: learning_rate must be a finite number >= 0, got {lr!r}")
        if not (_is_number(momentum) and 0.0 <= momentum < 1.0):
            raise ValueError(f"Hyperparams: momentum must be a number in [0, 1), got {momentum!r}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_accuracy: float


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def _stack(clips: list[SkeletonClip]) -> tuple[np.ndarray, np.ndarray]:
    data = np.stack([c.data for c in clips])
    labels = np.array([c.label for c in clips], dtype=np.int64)
    return data, labels


def train(model: ThreeStreamModel, train_clips: list[SkeletonClip],
          val_clips: list[SkeletonClip], hp: Hyperparams) -> list[EpochRecord]:
    """SGD over seeded shuffled mini-batches; the model is updated in
    place and the last epoch's weights are kept (no early stopping).

    Returns one record per epoch with the mean train loss and the
    validation accuracy. Bit-reproducible for fixed seeds and config.
    """
    if not train_clips or not val_clips:
        raise ValueError("train: both splits must be non-empty")
    if hp.batch_size > len(train_clips):
        raise ValueError(
            f"train: batch_size {hp.batch_size} exceeds train size {len(train_clips)}"
        )
    data, labels = _stack(train_clips)
    n = len(train_clips)
    shuffle_rng = np.random.default_rng([hp.seed, 0])
    mask_rng = np.random.default_rng([hp.seed, 1])
    params = model.param_tensors()
    state = SgdState(learning_rate=hp.learning_rate, momentum=hp.momentum)
    history = []
    for epoch in range(hp.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, hp.batch_size)):
            take = perm[start:start + hp.batch_size]
            with GradTape() as tape:
                probs = model.forward(Tensor(data[take]), training=True, rng=mask_rng)
                loss = ad.cross_entropy(probs, labels[take])
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(epoch, batch_idx)
            grads = tape.gradients(loss, params)
            sgd_step(params, grads, state)
            loss_sum += loss.item() * len(take)
        cm = evaluate(model, val_clips)
        val_acc = 100.0 * float(np.trace(cm.counts)) / cm.total
        history.append(EpochRecord(epoch=epoch, train_loss=loss_sum / n, val_accuracy=val_acc))
    return history


def evaluate(model: ThreeStreamModel, clips: list[SkeletonClip],
             class_names: list[str] | None = None) -> ConfusionMatrix:
    """Argmax predictions with dropout and masking disabled, in batches
    of ``EVAL_BATCH`` clips; the model is not modified."""
    if not clips:
        raise ValueError("evaluate: empty clip set")
    data, labels = _stack(clips)
    k = model.config.num_classes
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        i = int(bad.argmax())
        raise ShapeError(f"evaluate: label {int(labels[i])} of clip {i} is not a class in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    for start in range(0, len(clips), EVAL_BATCH):
        batch = data[start:start + EVAL_BATCH]
        probs = model.forward(Tensor(batch), training=False)
        preds = probs.data.argmax(axis=1)
        for y, p in zip(labels[start:start + EVAL_BATCH], preds):
            counts[y, p] += 1
    return ConfusionMatrix(counts=counts, class_names=class_names or [])


def write_history(path: str | Path, history: list[EpochRecord]) -> None:
    """Per-epoch records as delimited text; floats keep full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_accuracy"])
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.train_loss), repr(rec.val_accuracy)])


def read_history(path: str | Path) -> list[EpochRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            EpochRecord(
                epoch=int(row["epoch"]),
                train_loss=float(row["train_loss"]),
                val_accuracy=float(row["val_accuracy"]),
            )
            for row in reader
        ]
