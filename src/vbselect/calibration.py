"""Expected calibration error and confidence histograms.

Binning convention used everywhere in this module: M equal-width bins where
bin b covers (b/M, (b+1)/M], and 0.0 is folded into bin 0 so the partition
covers [0, 1] exactly. Confidence 1.0 therefore always lands in the top bin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    count: int
    mean_confidence: float | None
    accuracy: float | None


@dataclass(frozen=True)
class CalibrationReport:
    """ECE plus the per-bin table it was computed from."""

    ece: float
    num_bins: int
    bins: tuple[CalibrationBin, ...]
    total_count: int


@dataclass(frozen=True)
class ConfidenceHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    threshold: float | None


def _validate_confidences(confidences) -> np.ndarray:
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.ndim != 1:
        raise ValueError("confidences must be a 1-D array")
    if conf.size == 0:
        raise ValueError("confidences must be nonempty")
    if not np.all(np.isfinite(conf)):
        raise ValueError("confidences contain non-finite values")
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    return conf


def _bin_edges(num_bins: int) -> np.ndarray:
    # b / num_bins reproduces the float arithmetic of the interval definition;
    # linspace would round differently at some edges.
    return np.array([b / num_bins for b in range(num_bins + 1)])


def _bin_indices(conf: np.ndarray, edges: np.ndarray, num_bins: int) -> np.ndarray:
    # searchsorted(left) gives the first edge >= value, so value v maps to the
    # bin with edges[b] < v <= edges[b+1]; clipping folds 0.0 into bin 0.
    return np.clip(np.searchsorted(edges, conf, side="left") - 1, 0, num_bins - 1)


def ece(confidences, correctness, num_bins: int = 15) -> CalibrationReport:
    """Expected calibration error over M equal-width confidence bins.

    ece = sum over nonempty bins of (n_b / N) * |accuracy_b - confidence_b|.
    """
    conf = _validate_confidences(confidences)
    correct = np.asarray(correctness, dtype=bool)
    if correct.shape != conf.shape:
        raise ValueError("correctness must have the same length as confidences")
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")

    edges = _bin_edges(num_bins)
    idx = _bin_indices(conf, edges, num_bins)

    n = conf.size
    total = 0.0
    bins = []
    for b in range(num_bins):
        mask = idx == b
        count = int(np.count_nonzero(mask))
        if count == 0:
            bins.append(CalibrationBin(float(edges[b]), float(edges[b + 1]), 0, None, None))
            continue
        mean_conf = float(np.mean(conf[mask]))
        accuracy = float(np.mean(correct[mask]))
        total += (count / n) * abs(accuracy - mean_conf)
        bins.append(
            CalibrationBin(float(edges[b]), float(edges[b + 1]), count, mean_conf, accuracy)
        )
    return CalibrationReport(ece=float(total), num_bins=num_bins, bins=tuple(bins), total_count=n)


def confidence_histogram(
    confidences, num_bins: int = 20, threshold: float | None = None
) -> ConfidenceHistogram:
    """Counts per equal-width bin, with the rejection threshold carried along
    so downstream plotting can mark it."""
    conf = _validate_confidences(confidences)
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    edges = _bin_edges(num_bins)
    idx = _bin_indices(conf, edges, num_bins)
    counts = np.bincount(idx, minlength=num_bins)
    return ConfidenceHistogram(
        bin_edges=edges, counts=counts, threshold=None if threshold is None else float(threshold)
    )


def calibration_report_to_dict(report: CalibrationReport) -> dict:
    return {
        "ece": report.ece,
        "num_bins": report.num_bins,
        "total_count": report.total_count,
        "bins": [
            {
                "lower": b.lower,
                "upper": b.upper,
                "count": b.count,
                "mean_confidence": b.mean_confidence,
                "accuracy": b.accuracy,
            }
            for b in report.bins
        ],
    }


def save_calibration_json(report: CalibrationReport, path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(calibration_report_to_dict(report), sort_keys=True, indent=2) + "\n")


def save_histogram_csv(hist: ConfidenceHistogram, path) -> None:
    """CSV rows bin_lower,bin_upper,count with the threshold in a trailing comment."""
    lines = ["bin_lower,bin_upper,count"]
    for b in range(hist.counts.size):
        lines.append(
            f"{float(hist.bin_edges[b])!r},{float(hist.bin_edges[b + 1])!r},{int(hist.counts[b])}"
        )
    if hist.threshold is not None:
        lines.append(f"# threshold={float(hist.threshold)!r}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
