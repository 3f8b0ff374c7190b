"""Confidence-based rejection gate, threshold sweep, and confusion counts.

A rejection gate accepts a prediction when its score clears the threshold:
confidence uses ``score >= threshold`` (a sample exactly at the threshold is
accepted), entropy and mutual_info use ``score <= threshold`` so that low
uncertainty is always the accepted side. The gate and the sweep take a
``PosteriorSummary`` whole: its predictions and the gated score come from
one object. ``check_threshold`` and ``check_grid`` own the rules on a
threshold and a grid, so a caller can apply them before it scores anything.
Everything in this module is a pure function of its inputs — no RNG, no
hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import write_lines
from .inference import PosteriorSummary

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
    0/0 must not masquerade as a number. accepted_mask records per-sample
    gate decisions so downstream views (accepted-only calibration, the
    accepted-only confusion matrix) need not re-derive the comparison.
    """

    threshold: float
    measure: str
    accepted_count: int
    rejected_count: int
    coverage: float
    rejection_rate: float
    selective_accuracy: float | None
    overall_accuracy: float
    accepted_mask: np.ndarray


@dataclass(frozen=True)
class RejectionCurve:
    """Reports for a strictly increasing threshold grid, one per threshold."""

    measure: str
    reports: tuple[RejectionReport, ...]

    def __post_init__(self):
        object.__setattr__(self, "reports", tuple(self.reports))
        check_grid([r.threshold for r in self.reports], self.measure)


def check_threshold(threshold: float, measure: str) -> float:
    """The threshold as a float, if `measure` is known and it lies in its range."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; use one of {MEASURES}")
    threshold = float(threshold)
    if measure == "confidence":
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"threshold must lie in [0, 1] for confidence, got {threshold}"
            )
    elif not threshold >= 0.0:
        raise ValueError(
            f"threshold must be nonnegative for {measure}, got {threshold}"
        )
    return threshold


def check_grid(grid, measure: str) -> tuple[float, ...]:
    """The grid (None: DEFAULT_GRID) as floats, checked in one fixed order.

    Each threshold's range comes first, in grid order, then that the grid
    is nonempty and strictly increasing.
    """
    thresholds = tuple(
        check_threshold(t, measure) for t in (DEFAULT_GRID if grid is None else grid)
    )
    if not thresholds:
        raise ValueError("grid must be nonempty")
    if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("grid must be strictly increasing")
    return thresholds


def confusion_matrix(predicted, labels, mask, num_classes: int) -> np.ndarray:
    """K x K counts of (true, predicted) pairs over masked samples."""
    predicted = np.asarray(predicted, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if not predicted.shape == labels.shape == mask.shape:
        raise ValueError("predicted, labels, and mask must share one length")
    for name, classes in (("predicted", predicted), ("labels", labels)):
        if classes.size and (classes.min() < 0 or classes.max() >= num_classes):
            raise ValueError(f"{name} must lie in [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels[mask], predicted[mask]), 1)
    return counts


def apply_rejection(
    posterior: PosteriorSummary,
    labels,
    threshold: float,
    measure: str = "confidence",
) -> RejectionReport:
    """Gate the posterior's predictions at the threshold and report selective metrics."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != posterior.predicted.shape:
        raise ValueError("predicted and labels must share one length")
    if labels.shape[0] == 0:
        raise ValueError("cannot gate an empty prediction set")
    threshold = check_threshold(threshold, measure)
    values = getattr(posterior, measure)
    if values is None:
        raise ValueError(
            f"the scores hold no {measure}; score the posterior with mutual_info=True"
        )
    mask = values >= threshold if measure == "confidence" else values <= threshold
    n = labels.shape[0]
    correct = posterior.predicted == labels
    accepted = int(mask.sum())
    correct_accepted = int(np.sum(mask & correct))
    correct_all = int(np.sum(correct))
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
        accepted_mask=mask,
    )


def threshold_sweep(
    posterior: PosteriorSummary,
    labels,
    grid=None,
    measure: str = "confidence",
) -> RejectionCurve:
    """One apply_rejection per grid threshold (default 0.50..0.90 step 0.05)."""
    return RejectionCurve(measure, tuple(
        apply_rejection(posterior, labels, t, measure) for t in check_grid(grid, measure)
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
