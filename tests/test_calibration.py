"""Calibration error and confidence histogram tests.

The brute-force oracle below re-bins samples by explicit interval
membership and must stay independent of the library's vectorized path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbselect.calibration import (
    CalibrationBin,
    CalibrationReport,
    check_num_bins,
    confidence_histogram,
    ece,
)


def brute_force_ece(confidences, correctness, num_bins):
    """Independent ECE: per-sample interval membership, plain Python sums.

    Bin b covers (b/num_bins, (b+1)/num_bins], with 0.0 folded into bin 0.
    """
    n = len(confidences)
    total = 0.0
    for b in range(num_bins):
        lower = b / num_bins
        upper = (b + 1) / num_bins
        members = [
            i
            for i in range(n)
            if (lower < confidences[i] <= upper) or (b == 0 and confidences[i] == 0.0)
        ]
        if not members:
            continue
        acc = sum(1.0 for i in members if correctness[i]) / len(members)
        conf = sum(confidences[i] for i in members) / len(members)
        total += (len(members) / n) * abs(acc - conf)
    return total


class TestEceClosedForms:
    def test_single_bin_constant_confidence(self):
        """All samples at confidence 0.8, 75% correct, one bin: |0.75 - 0.8|."""
        conf = np.full(40, 0.8)
        correct = np.zeros(40, dtype=bool)
        correct[:30] = True
        report = ece(conf, correct, num_bins=1)
        assert report.ece == abs(0.75 - 0.8)
        assert report.ece == pytest.approx(0.05, abs=1e-12)

    def test_perfectly_calibrated_degenerate(self):
        conf = np.ones(25)
        correct = np.ones(25, dtype=bool)
        report = ece(conf, correct, num_bins=10)
        assert report.ece == 0.0

    def test_zero_when_every_bin_matches(self):
        # two bins, each internally calibrated
        conf = np.array([0.25, 0.25, 0.25, 0.25, 0.75, 0.75, 0.75, 0.75])
        correct = np.array([True, False, False, False, True, True, True, False])
        report = ece(conf, correct, num_bins=2)
        assert report.ece == 0.0


class TestEceAgainstBruteForce:
    """Library binning must agree with the sample-by-sample oracle."""

    @pytest.mark.parametrize("num_bins", [1, 5, 10, 15, 20])
    def test_random_instances(self, num_bins):
        rng = np.random.default_rng(2024 + num_bins)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            conf = rng.random(n)
            correct = rng.random(n) < conf
            report = ece(conf, correct, num_bins=num_bins)
            expected = brute_force_ece(conf.tolist(), correct.tolist(), num_bins)
            assert abs(report.ece - expected) <= 1e-12

    def test_boundary_confidences(self):
        # values sitting exactly on bin edges, plus the two endpoints
        m = 15
        conf = np.array([0.0, 1.0] + [b / m for b in range(1, m)])
        correct = np.ones(conf.size, dtype=bool)
        report = ece(conf, correct, num_bins=m)
        expected = brute_force_ece(conf.tolist(), correct.tolist(), m)
        assert abs(report.ece - expected) <= 1e-12
        assert sum(b.count for b in report.bins) == conf.size


@st.composite
def edge_heavy_instances(draw):
    """(num_bins, confidences, correctness) with many values at 0.0, at 1.0,
    exactly on a bin edge b/num_bins or one float away from one."""
    m = draw(st.integers(1, 30))
    edge = st.integers(0, m).map(lambda b: b / m)
    near = st.tuples(edge, st.sampled_from([0.0, 1.0])).map(
        lambda pair: float(np.nextafter(*pair))
    )
    value = edge | near | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    conf = draw(st.lists(value, min_size=1, max_size=60))
    correct = draw(st.lists(st.booleans(), min_size=len(conf), max_size=len(conf)))
    return m, conf, correct


@settings(max_examples=200, deadline=None)
@given(instance=edge_heavy_instances())
def test_ece_binning_matches_brute_force_at_edges(instance):
    m, conf, correct = instance
    report = ece(conf, correct, num_bins=m)
    for b, row in enumerate(report.bins):
        members = [
            c for c in conf if b / m < c <= (b + 1) / m or (b == 0 and c == 0.0)
        ]
        assert row.count == len(members)
        if members:
            assert row.mean_confidence == pytest.approx(sum(members) / len(members), abs=1e-15)
    assert abs(report.ece - brute_force_ece(conf, correct, m)) <= 1e-12


def masked_loop_ece(confidences, correctness, num_bins):
    """ece() as it was written before its sort-and-slice form: one mask over
    the whole input per bin. The oracle for the bits of every bin and of ece."""
    conf = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correctness, dtype=bool)
    edges = np.arange(num_bins + 1) / num_bins
    idx = np.clip(np.searchsorted(edges, conf, side="left") - 1, 0, num_bins - 1)
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


@st.composite
def seeded_instances(draw):
    """(num_bins, confidences, correctness) of up to 1000 cases, skewed so
    that some bins hold hundreds (past numpy's pairwise-sum blocks) and
    others none, with a share snapped onto bin edges."""
    m = draw(st.integers(1, 300))
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conf = rng.random(n) ** draw(st.sampled_from([1.0, 0.1, 8.0]))
    snapped = rng.random(n) < 0.2
    conf[snapped] = rng.integers(0, m + 1, int(snapped.sum())) / m
    return m, conf.tolist(), (rng.random(n) < conf).tolist()


@settings(max_examples=150, deadline=None)
@given(instance=edge_heavy_instances() | seeded_instances())
def test_ece_keeps_the_masked_loops_bits(instance):
    m, conf, correct = instance
    # repr shows every bit of each float, and None for an empty bin's means.
    # The flag keeps pytest from diffing two long reprs on every failing
    # example while Hypothesis shrinks.
    same = repr(ece(conf, correct, num_bins=m)) == repr(masked_loop_ece(conf, correct, m))
    assert same


class TestEceReportStructure:
    def test_bin_partition_and_counts(self):
        rng = np.random.default_rng(7)
        conf = rng.random(200)
        correct = rng.random(200) < 0.5
        report = ece(conf, correct, num_bins=15)
        assert isinstance(report, CalibrationReport)
        assert report.total_count == 200
        assert sum(b.count for b in report.bins) == 200
        assert len(report.bins) == 15
        for b, bin_ in enumerate(report.bins):
            assert bin_.lower == pytest.approx(b / 15)
            assert bin_.upper == pytest.approx((b + 1) / 15)

    def test_empty_bins_report_absent_stats(self):
        conf = np.full(10, 0.95)
        correct = np.ones(10, dtype=bool)
        report = ece(conf, correct, num_bins=10)
        for bin_ in report.bins[:-1]:
            assert bin_.count == 0
            assert bin_.mean_confidence is None
            assert bin_.accuracy is None
        top = report.bins[-1]
        assert top.count == 10
        assert top.mean_confidence == pytest.approx(0.95)

    def test_ece_definition_holds_on_report(self):
        rng = np.random.default_rng(11)
        conf = rng.random(300)
        correct = rng.random(300) < conf
        report = ece(conf, correct, num_bins=15)
        recomputed = sum(
            (b.count / report.total_count) * abs(b.accuracy - b.mean_confidence)
            for b in report.bins
            if b.count > 0
        )
        assert abs(report.ece - recomputed) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        conf = rng.random(150)
        correct = rng.random(150) < 0.7
        base = ece(conf, correct, num_bins=15).ece
        perm = rng.permutation(150)
        assert ece(conf[perm], correct[perm], num_bins=15).ece == pytest.approx(
            base, abs=1e-14
        )

    def test_merge_counts_add(self):
        rng = np.random.default_rng(17)
        conf_a, conf_b = rng.random(80), rng.random(120)
        corr_a, corr_b = rng.random(80) < 0.5, rng.random(120) < 0.5
        rep_a = ece(conf_a, corr_a, num_bins=10)
        rep_b = ece(conf_b, corr_b, num_bins=10)
        rep_ab = ece(
            np.concatenate([conf_a, conf_b]),
            np.concatenate([corr_a, corr_b]),
            num_bins=10,
        )
        for ba, bb, bab in zip(rep_a.bins, rep_b.bins, rep_ab.bins):
            assert ba.count + bb.count == bab.count

    def test_ece_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            conf = rng.random(50)
            correct = rng.random(50) < 0.5
            value = ece(conf, correct, num_bins=int(rng.integers(1, 25))).ece
            assert 0.0 <= value <= 1.0


class TestEceValidation:
    def test_confidence_out_of_range(self):
        with pytest.raises(ValueError):
            ece(np.array([0.5, 1.2]), np.array([True, False]), num_bins=5)
        with pytest.raises(ValueError):
            ece(np.array([-0.1, 0.5]), np.array([True, False]), num_bins=5)

    @pytest.mark.parametrize("call,message", [
        (lambda: ece(np.zeros((1, 1)), np.array([True])), "confidences must be a 1-D array"),
        (lambda: ece(np.zeros(0), np.zeros(0, dtype=bool)), "confidences must be nonempty"),
        (lambda: ece(np.array([np.nan]), np.array([True])),
         "confidences contain non-finite values"),
        (lambda: ece(np.array([0.5]), np.array([True]), num_bins=0),
         "num_bins must be at least 1"),
        (lambda: confidence_histogram(np.array([0.5]), num_bins=0),
         "num_bins must be at least 1"),
        (lambda: check_num_bins(-2), "num_bins must be at least 1"),
    ], ids=["two_dimensional", "empty", "non_finite", "ece_bins", "histogram_bins",
            "rule"])
    def test_rejected_with_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ece(np.array([0.5, 0.6]), np.array([True]), num_bins=5)


class TestConfidenceHistogram:
    def test_identical_confidences_single_nonzero_bin(self):
        hist = confidence_histogram(np.full(30, 0.63), num_bins=20, threshold=0.7)
        assert hist.counts.sum() == 30
        assert np.count_nonzero(hist.counts) == 1

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            conf = rng.random(n)
            hist = confidence_histogram(conf, num_bins=int(rng.integers(1, 30)), threshold=0.7)
            assert hist.counts.sum() == n

    def test_single_bin(self):
        hist = confidence_histogram(np.array([0.1, 0.5, 0.99]), num_bins=1, threshold=0.5)
        assert hist.counts.tolist() == [3]

    @pytest.mark.parametrize("num_bins", [
        1, 2, 3, 7, 10, 15, 20, 49, 100, 997, 1000, 65537, 10**6,
    ])
    def test_edges_are_b_over_m_bit_for_bit(self, num_bins):
        # The edges are the Python floats b / M of the interval definition.
        edges = confidence_histogram(np.array([0.5]), num_bins=num_bins).bin_edges
        expected = np.array([b / num_bins for b in range(num_bins + 1)])
        assert edges.dtype == expected.dtype
        assert edges.tobytes() == expected.tobytes()

    def test_threshold_recorded(self):
        hist = confidence_histogram(np.array([0.4]), num_bins=4, threshold=0.7)
        assert hist.threshold == 0.7
        assert hist.bin_edges.shape == (5,)
