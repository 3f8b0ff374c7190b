"""Confidence-based rejection gate, threshold sweep, and confusion counts.

A rejection gate accepts a prediction when its score clears the threshold:
confidence uses ``score >= threshold`` (a sample exactly at the threshold is
accepted), entropy and mutual_info use ``score <= threshold`` so that low
uncertainty is always the accepted side. Everything in this module is a pure
function of its inputs — no RNG, no hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import write_lines
from .inference import UncertaintyScores

__all__ = [
    "RejectionReport",
    "RejectionCurve",
    "apply_rejection",
    "threshold_sweep",
    "confusion_matrix",
    "save_curve_csv",
    "save_confusion_csv",
]

MEASURES = ("confidence", "entropy", "mutual_info")

DEFAULT_GRID = tuple(i / 100 for i in range(50, 91, 5))


@dataclass(frozen=True, eq=False)
class RejectionReport:
    """Outcome of one rejection gate over a labeled prediction batch.

    selective_accuracy is None (not 0, not 1) when nothing is accepted —
    0/0 must not masquerade as a number. confusion_accepted counts only
    accepted samples; confusion_all counts everything, so their difference
    shows exactly what the gate removed. accepted_mask records per-sample
    gate decisions so downstream views (accepted-only calibration, sample
    listings) need not re-derive the comparison.
    """

    threshold: float
    measure: str
    accepted_count: int
    rejected_count: int
    coverage: float
    rejection_rate: float
    selective_accuracy: float | None
    overall_accuracy: float
    confusion_accepted: np.ndarray
    confusion_all: np.ndarray
    accepted_mask: np.ndarray


@dataclass(frozen=True)
class RejectionCurve:
    """Reports for a strictly increasing threshold grid, one per threshold."""

    measure: str
    reports: tuple[RejectionReport, ...]

    def __post_init__(self):
        object.__setattr__(self, "reports", tuple(self.reports))
        if not self.reports:
            raise ValueError("grid must be nonempty")
        thresholds = [r.threshold for r in self.reports]
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("grid must be strictly increasing")
        if self.measure == "confidence":
            coverages = [r.coverage for r in self.reports]
            if any(a < b for a, b in zip(coverages, coverages[1:])):
                raise ValueError(
                    "coverage must be nonincreasing for increasing "
                    "confidence thresholds"
                )


def _gate_mask(scores: UncertaintyScores, threshold: float, measure: str):
    """The acceptance mask of the chosen measure's gate at threshold."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; use one of {MEASURES}")
    values = getattr(scores, measure)
    if measure == "confidence":
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"threshold must lie in [0, 1] for confidence, got {threshold}"
            )
        return values >= threshold
    if not threshold >= 0.0:
        raise ValueError(
            f"threshold must be nonnegative for {measure}, got {threshold}"
        )
    return values <= threshold


def confusion_matrix(predicted, labels, mask, num_classes=None) -> np.ndarray:
    """K x K counts of (true, predicted) pairs over masked samples."""
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if not predicted.shape == labels.shape == mask.shape:
        raise ValueError("predicted, labels, and mask must share one length")
    if num_classes is None:
        num_classes = int(max(predicted.max(), labels.max())) + 1
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels[mask], predicted[mask]), 1)
    return counts


def apply_rejection(
    scores: UncertaintyScores,
    predicted,
    labels,
    threshold: float,
    measure: str = "confidence",
    num_classes: int | None = None,
) -> RejectionReport:
    """Gate predictions at the threshold and report selective metrics."""
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predicted.shape != labels.shape or predicted.ndim != 1:
        raise ValueError("predicted and labels must share one length")
    if predicted.shape[0] != scores.confidence.shape[0]:
        raise ValueError("scores and predictions must share one length")
    if predicted.shape[0] == 0:
        raise ValueError("cannot gate an empty prediction set")
    threshold = float(threshold)
    mask = _gate_mask(scores, threshold, measure)
    n = predicted.shape[0]
    accepted = int(mask.sum())
    correct_accepted = int(np.sum(mask & (predicted == labels)))
    correct_all = int(np.sum(predicted == labels))
    mask.flags.writeable = False
    return RejectionReport(
        threshold=threshold,
        measure=measure,
        accepted_count=accepted,
        rejected_count=n - accepted,
        coverage=accepted / n,
        rejection_rate=(n - accepted) / n,
        selective_accuracy=correct_accepted / accepted if accepted else None,
        overall_accuracy=correct_all / n,
        confusion_accepted=confusion_matrix(predicted, labels, mask, num_classes),
        confusion_all=confusion_matrix(
            predicted, labels, np.ones(n, dtype=bool), num_classes
        ),
        accepted_mask=mask,
    )


def threshold_sweep(
    scores: UncertaintyScores,
    predicted,
    labels,
    grid=None,
    measure: str = "confidence",
    num_classes: int | None = None,
) -> RejectionCurve:
    """One apply_rejection per grid threshold (default 0.50..0.90 step 0.05)."""
    if grid is None:
        grid = DEFAULT_GRID
    return RejectionCurve(measure, tuple(
        apply_rejection(scores, predicted, labels, t, measure, num_classes)
        for t in grid
    ))


def save_curve_csv(curve: RejectionCurve, path: str) -> None:
    """Write `threshold,coverage,rejection_rate,selective_accuracy` rows.

    The selective_accuracy cell is left empty when nothing was accepted.
    """
    lines = ["threshold,coverage,rejection_rate,selective_accuracy"]
    for report in curve.reports:
        selective = (
            "" if report.selective_accuracy is None
            else repr(float(report.selective_accuracy))
        )
        lines.append(
            f"{float(report.threshold)!r},{float(report.coverage)!r},"
            f"{float(report.rejection_rate)!r},{selective}"
        )
    write_lines(path, lines)


def save_confusion_csv(matrix: np.ndarray, path: str) -> None:
    """Write a K x K count grid with class-index headers."""
    matrix = np.asarray(matrix, dtype=np.int64)
    k = matrix.shape[0]
    lines = ["true_class," + ",".join(str(j) for j in range(k))]
    for c in range(k):
        lines.append(f"{c}," + ",".join(str(v) for v in matrix[c]))
    write_lines(path, lines)
