"""Mini-batch training with the reference hyperparameters, and argmax
evaluation into a confusion matrix.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, ShapeError, Tensor
from .layers import is_int, is_real
from .metrics import ConfusionMatrix
from .model import ThreeStreamModel
from .optim import SgdState, sgd_step
from .skeleton_io import SkeletonClip, stack_clips

# Clips per evaluation forward. ``evaluate`` shares whole batches between
# the CPUs, so two batches are in memory at once. 128 desk clips on a
# 2-core Xeon with 1 BLAS thread ran at 1264-1268 clips/s in batches of 4,
# 1335-1339 in 8, 1304-1309 in 12 and 1370-1387 in 16 (medians of 7, two
# rounds), against 1074-1079 in 16 when each op split its batch over both
# cores. Peak RSS read 52, 60-61, 72-76 and 83-85 MB, against 60 MB for
# the op split at 16: batch 8 keeps peak memory level.
EVAL_BATCH = 8


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
            if not is_int(value) or value < least:
                raise ValueError(f"Hyperparams: {name} must be an int >= {least}, got {value!r}")
        lr, momentum = self.learning_rate, self.momentum
        if not (is_real(lr) and 0.0 <= lr < math.inf):
            raise ValueError(f"Hyperparams: learning_rate must be a finite number >= 0, got {lr!r}")
        if not (is_real(momentum) and 0.0 <= momentum < 1.0):
            raise ValueError(f"Hyperparams: momentum must be a number in [0, 1), got {momentum!r}")


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
    data, labels = stack_clips(train_clips)
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
    of ``EVAL_BATCH`` clips; the model is not modified.

    With no tape active the batches are shared between the caller and
    the helper threads (``autodiff._run_shared``), and each op inside a
    batch runs its slices in order on that batch's thread. Each batch
    makes the same BLAS calls and ufunc loops as a serial run, so the
    probabilities have the same bits. A batch that raises is raised
    once every other batch has run. Under an active tape the batches run
    in order on the caller, so the tape records keep their order.
    """
    if not clips:
        raise ValueError("evaluate: empty clip set")
    data, labels = stack_clips(clips)
    k = model.config.num_classes
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        i = int(bad.argmax())
        raise ShapeError(f"evaluate: label {int(labels[i])} of clip {i} is not a class in [0, {k})")
    batches = [partial(_predict, model, data[start:start + EVAL_BATCH])
               for start in range(0, len(clips), EVAL_BATCH)]
    if ad._tape() is None:
        preds = ad._run_shared(batches)
    else:
        preds = [batch() for batch in batches]
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (labels, np.concatenate(preds)), 1)
    return ConfusionMatrix(counts=counts, class_names=class_names or [])


def _predict(model: ThreeStreamModel, batch: np.ndarray) -> np.ndarray:
    """Argmax classes of one evaluation batch."""
    return model.forward(Tensor(batch), training=False).data.argmax(axis=1)


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
