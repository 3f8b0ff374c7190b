"""Tests for confidence-based rejection, threshold sweeps, and confusion counts."""

import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbselect.inference import UncertaintyScores
from vbselect.selection import (
    MEASURES,
    RejectionCurve,
    RejectionReport,
    apply_rejection,
    confusion_matrix,
    save_confusion_csv,
    save_curve_csv,
    threshold_sweep,
)


def scores_from_confidence(confidence):
    confidence = np.asarray(confidence, dtype=np.float64)
    zeros = np.zeros_like(confidence)
    return UncertaintyScores(
        confidence=confidence,
        entropy=zeros,
        expected_entropy=zeros,
        mutual_info=zeros,
    )


def scores_from_uncertainty(entropy, mutual_info=None):
    entropy = np.asarray(entropy, dtype=np.float64)
    if mutual_info is None:
        mutual_info = entropy
    return UncertaintyScores(
        confidence=np.full_like(entropy, 0.5),
        entropy=entropy,
        expected_entropy=np.zeros_like(entropy),
        mutual_info=np.asarray(mutual_info, dtype=np.float64),
    )


def brute_force_report(confidence, predicted, labels, threshold):
    """Plain-Python recount of every confidence-gate metric."""
    n = len(confidence)
    accepted = [i for i in range(n) if confidence[i] >= threshold]
    correct_accepted = sum(1 for i in accepted if predicted[i] == labels[i])
    correct_all = sum(1 for i in range(n) if predicted[i] == labels[i])
    return {
        "accepted_count": len(accepted),
        "rejected_count": n - len(accepted),
        "coverage": len(accepted) / n,
        "rejection_rate": (n - len(accepted)) / n,
        "selective_accuracy": (
            correct_accepted / len(accepted) if accepted else None
        ),
        "overall_accuracy": correct_all / n,
    }


def random_case(rng, n=40, k=4):
    confidence = rng.random(n) * (1.0 - 1.0 / k) + 1.0 / k
    predicted = rng.integers(0, k, size=n)
    labels = rng.integers(0, k, size=n)
    return scores_from_confidence(confidence), predicted, labels


class TestApplyRejection:
    def test_hand_enumerated_four_samples(self):
        scores = scores_from_confidence([0.9, 0.6, 0.8, 0.5])
        predicted = np.array([0, 1, 2, 0])
        labels = np.array([0, 0, 1, 0])  # correctness T, F, F, T
        report = apply_rejection(scores, predicted, labels, threshold=0.7)
        assert report.accepted_count == 2
        assert report.rejected_count == 2
        assert report.coverage == 0.5
        assert report.rejection_rate == 0.5
        assert report.selective_accuracy == 0.5
        assert report.overall_accuracy == 0.5
        assert report.threshold == 0.7
        assert report.measure == "confidence"

    def test_threshold_zero_accepts_everything(self):
        rng = np.random.default_rng(0)
        scores, predicted, labels = random_case(rng)
        report = apply_rejection(scores, predicted, labels, threshold=0.0)
        assert report.accepted_count == 40
        assert report.coverage == 1.0
        assert report.rejection_rate == 0.0
        assert report.selective_accuracy == report.overall_accuracy

    def test_boundary_sample_is_accepted(self):
        scores = scores_from_confidence([0.7, 0.69])
        report = apply_rejection(
            scores, np.array([0, 0]), np.array([0, 0]), threshold=0.7
        )
        assert report.accepted_count == 1

    def test_threshold_one_accepts_only_full_confidence(self):
        scores = scores_from_confidence([1.0, 0.999])
        report = apply_rejection(
            scores, np.array([1, 0]), np.array([1, 0]), threshold=1.0
        )
        assert report.accepted_count == 1
        assert report.selective_accuracy == 1.0

    def test_threshold_above_one_rejected(self):
        scores = scores_from_confidence([0.5])
        with pytest.raises(ValueError, match="threshold"):
            apply_rejection(
                scores, np.array([0]), np.array([0]), threshold=1.0000001
            )

    def test_nothing_accepted_reports_absent_accuracy(self):
        scores = scores_from_confidence([0.55, 0.6, 0.65])
        predicted = np.array([0, 1, 2])
        report = apply_rejection(scores, predicted, predicted, threshold=0.9)
        assert report.accepted_count == 0
        assert report.selective_accuracy is None
        assert report.coverage == 0.0
        assert report.rejection_rate == 1.0
        np.testing.assert_array_equal(
            confusion_matrix(predicted, predicted, report.accepted_mask, 3),
            np.zeros((3, 3), dtype=np.int64),
        )

    def test_empty_input_rejected(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty prediction set"):
            apply_rejection(scores_from_confidence([]), empty, empty, 0.7)

    def test_entropy_gate_accepts_low_uncertainty(self):
        scores = scores_from_uncertainty([0.1, 0.9])
        predicted = np.array([0, 1])
        labels = np.array([0, 0])
        report = apply_rejection(
            scores, predicted, labels, threshold=0.5, measure="entropy"
        )
        assert report.accepted_count == 1
        assert report.selective_accuracy == 1.0
        assert report.measure == "entropy"

    def test_mutual_info_gate_accepts_low_uncertainty(self):
        scores = scores_from_uncertainty([0.0, 0.0], mutual_info=[0.4, 0.01])
        report = apply_rejection(
            scores,
            np.array([0, 1]),
            np.array([1, 1]),
            threshold=0.1,
            measure="mutual_info",
        )
        assert report.accepted_count == 1
        assert report.selective_accuracy == 1.0

    def test_entropy_threshold_may_exceed_one(self):
        scores = scores_from_uncertainty([1.3, 0.2])
        report = apply_rejection(
            scores,
            np.array([0, 0]),
            np.array([0, 0]),
            threshold=1.5,
            measure="entropy",
        )
        assert report.accepted_count == 2

    def test_negative_threshold_rejected_for_entropy(self):
        scores = scores_from_uncertainty([0.1])
        with pytest.raises(ValueError, match="threshold"):
            apply_rejection(
                scores, np.array([0]), np.array([0]),
                threshold=-0.1, measure="entropy",
            )

    def test_unknown_measure_rejected(self):
        scores = scores_from_confidence([0.5])
        with pytest.raises(ValueError, match="measure"):
            apply_rejection(
                scores, np.array([0]), np.array([0]),
                threshold=0.5, measure="variance",
            )

    @pytest.mark.parametrize("confidence,labels,message", [
        ([0.5, 0.6], [0], "predicted and labels must share one length"),
        ([0.5, 0.6, 0.7], [0, 1], "scores and predictions must share one length"),
    ], ids=["labels", "scores"])
    def test_length_mismatch_rejected(self, confidence, labels, message):
        scores = scores_from_confidence(confidence)
        with pytest.raises(ValueError) as info:
            apply_rejection(scores, np.array([0, 1]), np.array(labels), threshold=0.5)
        assert str(info.value) == message

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            scores, predicted, labels = random_case(rng)
            threshold = float(rng.random())
            report = apply_rejection(scores, predicted, labels, threshold)
            expected = brute_force_report(
                scores.confidence, predicted, labels, threshold
            )
            for field, value in expected.items():
                assert getattr(report, field) == value, field

    def test_internal_consistency_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            scores, predicted, labels = random_case(rng, n=25, k=3)
            report = apply_rejection(scores, predicted, labels, float(rng.random()))
            assert report.accepted_count + report.rejected_count == 25
            assert abs(report.coverage + report.rejection_rate - 1.0) <= 1e-12
            accepted = confusion_matrix(predicted, labels, report.accepted_mask, 3)
            everything = confusion_matrix(predicted, labels, np.ones(25, dtype=bool), 3)
            assert accepted.sum() == report.accepted_count
            assert everything.sum() == 25
            assert np.all(everything - accepted >= 0)
            if report.accepted_count > 0:
                trace_accuracy = np.trace(accepted) / report.accepted_count
                assert abs(trace_accuracy - report.selective_accuracy) <= 1e-12
            overall = np.trace(everything) / 25
            assert abs(overall - report.overall_accuracy) <= 1e-12


class TestScoresWithoutMutualInfo:
    """Scores taken with score_posterior(..., mutual_info=False)."""

    def test_mutual_info_gate_rejects_them_in_one_line(self):
        scores = UncertaintyScores(np.array([0.9, 0.6]), np.array([0.1, 0.5]), None, None)
        predicted, labels = np.array([0, 1]), np.array([0, 0])
        for gate in (
            lambda: apply_rejection(scores, predicted, labels, 0.1, measure="mutual_info"),
            lambda: threshold_sweep(scores, predicted, labels, measure="mutual_info"),
        ):
            with pytest.raises(ValueError, match="no mutual_info") as info:
                gate()
            assert "\n" not in str(info.value)

    def test_confidence_and_entropy_gates_still_work(self):
        full = scores_from_uncertainty([0.1, 0.5])
        lean = UncertaintyScores(full.confidence, full.entropy, None, None)
        predicted, labels = np.array([0, 1]), np.array([0, 0])
        for measure, threshold in (("confidence", 0.5), ("entropy", 0.2)):
            assert_same_report(
                apply_rejection(lean, predicted, labels, threshold, measure=measure),
                apply_rejection(full, predicted, labels, threshold, measure=measure),
            )


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0, 2, 2])
        matrix = confusion_matrix(labels, labels, np.ones(7, dtype=bool), 3)
        np.testing.assert_array_equal(matrix, np.diag([2, 2, 3]))

    def test_empty_mask_is_zero(self):
        labels = np.array([0, 1, 2])
        matrix = confusion_matrix(labels, labels, np.zeros(3, dtype=bool), 3)
        np.testing.assert_array_equal(matrix, np.zeros((3, 3), dtype=np.int64))

    def test_hand_case(self):
        predicted = np.array([0, 1, 1, 2, 0])
        labels = np.array([0, 0, 1, 2, 2])
        mask = np.array([True, True, True, True, False])
        matrix = confusion_matrix(predicted, labels, mask, num_classes=3)
        expected = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(matrix, expected)

    def test_row_sums_count_masked_true_labels(self):
        rng = np.random.default_rng(11)
        predicted = rng.integers(0, 4, size=60)
        labels = rng.integers(0, 4, size=60)
        mask = rng.random(60) < 0.5
        matrix = confusion_matrix(predicted, labels, mask, num_classes=4)
        for c in range(4):
            assert matrix[c].sum() == int(np.sum(mask & (labels == c)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion_matrix(
                np.array([0, 1]), np.array([0]), np.array([True, True]), 2
            )

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("column", ["predicted", "labels"])
    def test_class_outside_range_rejected(self, bad, column):
        # Even on a masked-out row: a class index outside [0, K) is a bug
        # upstream, not a count to wrap around or drop.
        classes = {"predicted": np.array([0, 1, 2]), "labels": np.array([0, 1, 2])}
        classes[column][1] = bad
        mask = np.array([True, False, True])
        with pytest.raises(ValueError, match=rf"^{column} must lie in \[0, 3\)$"):
            confusion_matrix(classes["predicted"], classes["labels"], mask, 3)


class TestThresholdSweep:
    def test_default_grid(self):
        rng = np.random.default_rng(1)
        scores, predicted, labels = random_case(rng)
        curve = threshold_sweep(scores, predicted, labels)
        assert len(curve.reports) == 9
        thresholds = [r.threshold for r in curve.reports]
        assert thresholds == [i / 100 for i in range(50, 91, 5)]
        assert 0.7 in thresholds

    def test_singleton_grid_matches_apply_rejection(self):
        rng = np.random.default_rng(2)
        scores, predicted, labels = random_case(rng)
        curve = threshold_sweep(scores, predicted, labels, grid=[0.7])
        single = apply_rejection(scores, predicted, labels, threshold=0.7)
        swept = curve.reports[0]
        assert swept.threshold == single.threshold
        assert swept.measure == single.measure
        assert swept.accepted_count == single.accepted_count
        assert swept.rejected_count == single.rejected_count
        assert swept.coverage == single.coverage
        assert swept.rejection_rate == single.rejection_rate
        assert swept.selective_accuracy == single.selective_accuracy
        assert swept.overall_accuracy == single.overall_accuracy
        np.testing.assert_array_equal(swept.accepted_mask, single.accepted_mask)

    def test_constant_confidence_step_function(self):
        scores = scores_from_confidence(np.full(12, 0.8))
        predicted = np.zeros(12, dtype=np.int64)
        curve = threshold_sweep(
            scores, predicted, predicted, grid=[0.5, 0.7, 0.9]
        )
        assert [r.coverage for r in curve.reports] == [1.0, 1.0, 0.0]

    def test_coverage_nonincreasing_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scores, predicted, labels = random_case(rng, n=30, k=3)
            curve = threshold_sweep(scores, predicted, labels)
            coverages = [r.coverage for r in curve.reports]
            assert all(a >= b for a, b in zip(coverages, coverages[1:]))

    def test_entropy_sweep_coverage_nondecreasing(self):
        rng = np.random.default_rng(4)
        entropy = rng.random(30) * 1.5
        scores = scores_from_uncertainty(entropy)
        predicted = rng.integers(0, 3, size=30)
        curve = threshold_sweep(
            scores, predicted, predicted,
            grid=[0.25, 0.5, 0.75, 1.0, 1.25], measure="entropy",
        )
        coverages = [r.coverage for r in curve.reports]
        assert all(a <= b for a, b in zip(coverages, coverages[1:]))

    def test_unsorted_grid_rejected(self):
        rng = np.random.default_rng(5)
        scores, predicted, labels = random_case(rng)
        with pytest.raises(ValueError, match="grid"):
            threshold_sweep(scores, predicted, labels, grid=[0.7, 0.5])

    def test_duplicate_grid_rejected(self):
        rng = np.random.default_rng(6)
        scores, predicted, labels = random_case(rng)
        with pytest.raises(ValueError, match="grid"):
            threshold_sweep(scores, predicted, labels, grid=[0.5, 0.5])

    def test_empty_grid_rejected(self):
        rng = np.random.default_rng(7)
        scores, predicted, labels = random_case(rng)
        with pytest.raises(ValueError, match="grid"):
            threshold_sweep(scores, predicted, labels, grid=[])

    def test_empty_input_rejected(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty prediction set"):
            threshold_sweep(scores_from_confidence([]), empty, empty)

    def test_curve_type_rejects_nonincreasing_violation(self):
        # Direct construction is validated too, not just the sweep path.
        rng = np.random.default_rng(8)
        scores, predicted, labels = random_case(rng)
        r1 = apply_rejection(scores, predicted, labels, 0.5)
        r2 = apply_rejection(scores, predicted, labels, 0.8)
        with pytest.raises(ValueError, match="increasing"):
            RejectionCurve(measure="confidence", reports=(r2, r1))


class TestSelectionExports:
    def test_curve_csv_layout(self, tmp_path):
        rng = np.random.default_rng(9)
        scores, predicted, labels = random_case(rng)
        curve = threshold_sweep(scores, predicted, labels)
        path = os.path.join(tmp_path, "curve.csv")
        save_curve_csv(curve, path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "threshold,coverage,rejection_rate,selective_accuracy"
        assert len(lines) == 10
        for report, line in zip(curve.reports, lines[1:]):
            cells = line.split(",")
            assert float(cells[0]) == report.threshold
            assert float(cells[1]) == report.coverage
            assert float(cells[2]) == report.rejection_rate
            assert float(cells[3]) == report.selective_accuracy

    def test_curve_csv_empty_cell_when_nothing_accepted(self, tmp_path):
        scores = scores_from_confidence([0.55, 0.6])
        predicted = np.array([0, 1])
        curve = threshold_sweep(scores, predicted, predicted, grid=[0.5, 0.9])
        path = os.path.join(tmp_path, "curve.csv")
        save_curve_csv(curve, path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[2].endswith(",")
        assert lines[2].split(",")[3] == ""

    def test_confusion_csv_layout(self, tmp_path):
        predicted = np.array([0, 1, 1, 2, 0])
        labels = np.array([0, 0, 1, 2, 2])
        matrix = confusion_matrix(
            predicted, labels, np.ones(5, dtype=bool), num_classes=3
        )
        path = os.path.join(tmp_path, "confusion.csv")
        save_confusion_csv(matrix, path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "true_class,0,1,2"
        assert len(lines) == 4
        for c, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(c)
            np.testing.assert_array_equal(
                np.array([int(x) for x in cells[1:]]), matrix[c]
            )


# Scores and thresholds share a pool of exact eighths, so many scores tie
# with a threshold; the gates accept a tie on the confidence side (>=) and
# on the uncertainty side (<=) alike.
EIGHTHS = [i / 8 for i in range(9)]
GATE_VALUES = st.sampled_from(EIGHTHS) | st.floats(0.0, 1.0)


@st.composite
def gate_cases(draw):
    """(scores, predicted, labels, grid, measure) for the gates."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(2, 4))
    classes = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    values = st.lists(GATE_VALUES, min_size=n, max_size=n)
    scores = UncertaintyScores(
        confidence=draw(values), entropy=draw(values),
        expected_entropy=np.zeros(n), mutual_info=draw(values),
    )
    grid = sorted(draw(st.sets(GATE_VALUES, min_size=1, max_size=6)))
    return (
        scores, np.array(draw(classes)), np.array(draw(classes)), grid,
        draw(st.sampled_from(MEASURES)),
    )


def assert_same_report(actual, expected):
    for field in fields(RejectionReport):
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(e, np.ndarray):
            assert a.dtype == e.dtype and a.shape == e.shape, field.name
            np.testing.assert_array_equal(a, e, err_msg=field.name)
        else:
            assert a == e, field.name


TIED = (scores_from_confidence([0.5, 0.5, 0.75]), np.array([0, 1, 1]),
        np.array([0, 1, 0]), [0.5, 0.75], "confidence")


@settings(max_examples=200, deadline=None)
@given(case=gate_cases())
@example(case=TIED)
def test_sweep_report_equals_apply_rejection(case):
    scores, predicted, labels, grid, measure = case
    curve = threshold_sweep(scores, predicted, labels, grid, measure)
    assert [r.threshold for r in curve.reports] == grid
    for threshold, swept in zip(grid, curve.reports):
        single = apply_rejection(scores, predicted, labels, threshold, measure)
        assert_same_report(swept, single)


@settings(max_examples=200, deadline=None)
@given(case=gate_cases())
@example(case=TIED)
def test_gate_splits_every_row(case):
    scores, predicted, labels, grid, measure = case
    values = getattr(scores, measure)
    for threshold in grid:
        report = apply_rejection(scores, predicted, labels, threshold, measure)
        assert report.accepted_count + report.rejected_count == len(predicted)
        expected = values >= threshold if measure == "confidence" else values <= threshold
        np.testing.assert_array_equal(report.accepted_mask, expected)
        assert report.accepted_count == int(expected.sum())


@settings(max_examples=200, deadline=None)
@given(case=gate_cases())
@example(case=TIED)
def test_coverage_monotone_in_threshold(case):
    scores, predicted, labels, grid, measure = case
    curve = threshold_sweep(scores, predicted, labels, grid, measure)
    coverages = [r.coverage for r in curve.reports]
    if measure == "confidence":
        coverages.reverse()
    assert coverages == sorted(coverages)
