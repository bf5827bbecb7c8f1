"""Confusion matrices and the derived accuracy/precision/sensitivity/F1
report, with macro (unweighted) class averages, all in percent.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .layers import is_int

_MAX_COUNT = np.iinfo(np.int64).max


@dataclass
class ConfusionMatrix:
    """counts[i, j] = clips of true class i predicted as class j.

    ``counts`` is an integer array or nested lists, as a saved report
    holds them; a count that is a bool, a float, a string or out of the
    int64 range is refused rather than cast, as is a class name that is
    not a string.
    """

    counts: np.ndarray
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # as Python objects, so that True, 1.7 and "3" are not cast to 1, 1, 3
        cells = np.asarray(self.counts, dtype=object)
        bad = [c for c in cells.flat if not (is_int(c) and 0 <= c <= _MAX_COUNT)]
        if bad:
            raise ValueError(f"confusion matrix counts must be non-negative integers, "
                             f"got {bad[0]!r}")
        self.counts = cells.astype(np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if not self.class_names:
            self.class_names = [f"class{i}" for i in range(self.counts.shape[0])]
        if (not isinstance(self.class_names, (list, tuple))
                or not all(isinstance(name, str) for name in self.class_names)):
            raise ValueError(f"class names must be a list of strings, got {self.class_names!r}")
        if len(self.class_names) != self.counts.shape[0]:
            raise ValueError("class name count does not match matrix size")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class ClassMetrics:
    name: str
    precision: float | None
    sensitivity: float | None
    f1: float | None
    support: int


@dataclass
class MetricsReport:
    per_class: list[ClassMetrics]
    accuracy: float
    macro_precision: float | None
    macro_sensitivity: float | None
    macro_f1: float | None

    def as_dict(self) -> dict:
        """The report as JSON-ready data; ``format_report(..., "machine")``
        prints this."""
        return {
            "accuracy": self.accuracy,
            "macro": {
                "precision": self.macro_precision,
                "sensitivity": self.macro_sensitivity,
                "f1": self.macro_f1,
            },
            "classes": [
                {
                    "label": c.name,
                    "precision": c.precision,
                    "sensitivity": c.sensitivity,
                    "f1": c.f1,
                    "support": c.support,
                }
                for c in self.per_class
            ],
        }


def _percent(num: float, den: float) -> float | None:
    return None if den == 0 else 100.0 * num / den


def _macro(values: list[float | None], what: str) -> float | None:
    defined = [v for v in values if v is not None]
    if len(defined) < len(values):
        warnings.warn(
            f"{what}: {len(values) - len(defined)} class(es) undefined "
            f"(zero denominator); excluded from the macro average",
            stacklevel=3,
        )
    return sum(defined) / len(defined) if defined else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """One-vs-rest metrics per class plus overall accuracy.

    accuracy    = (TP + TN) / (TP + TN + FP + FN)  over all clips
    precision   = TP / (TP + FP)
    sensitivity = TP / (TP + FN)
    F1          = TP / (TP + (FP + FN) / 2)

    Zero-denominator cases are reported as undefined (None) and left
    out of the macro averages with a warning.
    """
    if cm.total == 0:
        raise ValueError("metrics: empty confusion matrix")
    counts = cm.counts
    per_class = []
    for k, name in enumerate(cm.class_names):
        tp = float(counts[k, k])
        fp = float(counts[:, k].sum() - counts[k, k])
        fn = float(counts[k, :].sum() - counts[k, k])
        per_class.append(
            ClassMetrics(
                name=name,
                precision=_percent(tp, tp + fp),
                sensitivity=_percent(tp, tp + fn),
                f1=_percent(tp, tp + (fp + fn) / 2.0),
                support=int(counts[k, :].sum()),
            )
        )
    return MetricsReport(
        per_class=per_class,
        accuracy=100.0 * float(np.trace(counts)) / cm.total,
        macro_precision=_macro([c.precision for c in per_class], "precision"),
        macro_sensitivity=_macro([c.sensitivity for c in per_class], "sensitivity"),
        macro_f1=_macro([c.f1 for c in per_class], "F1"),
    )


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def format_report(report: MetricsReport, fmt: str = "text") -> str:
    """Render the report; 'text' is the standard benchmark-table layout
    (Accuracy / Precision / Sensitivity / F1, percent, 2 decimals),
    'machine' emits JSON."""
    if fmt == "machine":
        return json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"format_report: unknown format {fmt!r}")
    width = max([len("Average")] + [len(c.name) for c in report.per_class]) + 2
    header = (
        f"{'Label':<{width}}{'Accuracy [%]':>14}{'Precision [%]':>15}"
        f"{'Sensitivity [%]':>17}{'F1-Score [%]':>14}"
    )
    lines = [header, "-" * len(header)]
    for c in report.per_class:
        lines.append(
            f"{c.name:<{width}}{'n/a':>14}{_fmt(c.precision):>15}"
            f"{_fmt(c.sensitivity):>17}{_fmt(c.f1):>14}"
        )
    lines.append(
        f"{'Average':<{width}}{_fmt(report.accuracy):>14}"
        f"{_fmt(report.macro_precision):>15}{_fmt(report.macro_sensitivity):>17}"
        f"{_fmt(report.macro_f1):>14}"
    )
    return "\n".join(lines)
