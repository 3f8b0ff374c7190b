"""Tests for Monte Carlo predictive inference and uncertainty scores."""

import io
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vbselect import inference
from vbselect.blas import blas_info, one_blas_thread
from vbselect.dataset import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    stratified_split,
)
from vbselect.inference import (
    PosteriorSummary,
    PredictionSet,
    check_mc_samples,
    predictive_posterior,
    save_predictions_csv,
    save_prob_samples_csv,
    score_posterior,
    uncertainty_scores,
)
from vbselect.training import LayerInitConfig, TrainConfig, train
from vbselect.vbll import VBLinearLayer, init_layer, sample_weights, softmax


def softplus_ref(x):
    """The formula vbll.softplus documents, written out here.

    np.logaddexp(0, x) differs from it by up to 2 ulp on some inputs, and
    those ulps move probabilities this file compares bit for bit;
    tests/test_vbll.py checks the two agree within a few ulp.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def entropy_ref(p):
    """Plain-Python Shannon entropy in nats with 0 ln 0 = 0."""
    return float(-sum(pi * math.log(pi) for pi in p if pi > 0.0))


def reference_posterior(layer, features, mc_samples, seed):
    """Independent re-implementation of the posterior sampling loop.

    Draws weight noise in the same documented stream order as
    ``sample_weights`` (weight matrix first, then bias) from
    ``default_rng([seed, s])`` and applies a shift-stabilized softmax.
    """
    n, d = features.shape
    k = layer.num_classes
    sigma_w = softplus_ref(layer.weight_rho)
    sigma_b = softplus_ref(layer.bias_rho)
    out = np.zeros((n, mc_samples, k))
    for s in range(mc_samples):
        rng = np.random.default_rng([seed, s])
        eps_w = rng.standard_normal((k, d))
        eps_b = rng.standard_normal(k)
        weight = layer.weight_mu + sigma_w * eps_w
        bias = layer.bias_mu + sigma_b * eps_b
        logits = features @ weight.T + bias
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expz = np.exp(shifted)
        out[:, s, :] = expz / expz.sum(axis=-1, keepdims=True)
    return out


def full_grid_reference(layer, features, mc_samples, seed):
    """The grid-first algorithm the streaming engine replaced.

    Fills the whole N x S x K grid with one full-batch product per draw,
    then reduces it: the engine must reproduce every result bit for bit.
    Both entropies are clamped at ln K. Returns (grid, mean_probs, scores
    dict).
    """
    n = features.shape[0]
    grid = np.zeros((n, mc_samples, layer.num_classes))
    for s in range(mc_samples):
        draw = sample_weights(layer, np.random.default_rng([seed, s]))
        grid[:, s, :] = softmax(features @ draw.weights.T + draw.biases, axis=-1)
    mean = grid.mean(axis=1)

    def entropy(p, axis):
        terms = np.zeros_like(p)
        mask = p > 0.0
        terms[mask] = p[mask] * np.log(p[mask])
        return -terms.sum(axis=axis)

    log_k = math.log(layer.num_classes)
    total = np.minimum(entropy(mean, -1), log_k)
    expected = np.minimum(entropy(grid, 2).mean(axis=1), log_k)
    scores = {
        "confidence": mean.max(axis=1),
        "entropy": total,
        "expected_entropy": expected,
        "mutual_info": np.maximum(0.0, total - expected),
    }
    return grid, mean, scores


def npy_bytes(grid):
    """What np.save writes for `grid`: the bytes samples.npy must hold."""
    handle = io.BytesIO()
    np.save(handle, grid)
    return handle.getvalue()


def samples_csv_text(grid):
    """save_prob_samples_csv's text for `grid`, one line per (row, sample)."""
    n, s, k = grid.shape
    lines = ["index,sample," + ",".join(f"p{j}" for j in range(k))]
    for i in range(n):
        for t in range(s):
            values = ",".join(repr(float(v)) for v in grid[i, t])
            lines.append(f"{i},{t},{values}")
    return "\n".join(lines) + "\n"


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def make_prediction_set(prob_samples):
    prob_samples = np.asarray(prob_samples, dtype=np.float64)
    mean_probs = prob_samples.mean(axis=1)
    predicted = np.argmax(mean_probs, axis=1)
    return PredictionSet(
        prob_samples=prob_samples,
        mean_probs=mean_probs,
        predicted=predicted,
        mc_samples=prob_samples.shape[1],
    )


def random_prob_samples(rng, n, s, k):
    raw = rng.gamma(shape=1.0, scale=1.0, size=(n, s, k)) + 1e-12
    return raw / raw.sum(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def trained_model():
    config = SyntheticConfig(
        num_classes=3,
        feature_dim=8,
        samples_per_class=(60, 60, 60),
        class_separation=3.0,
        noise_scale=1.0,
    )
    full = generate_synthetic(config, seed=97)
    train_ds, val_ds, _ = stratified_split(
        full, SplitRatios(0.7, 0.15, 0.15), seed=97
    )
    layer, _ = train(
        train_ds,
        val_ds,
        LayerInitConfig(seed=97),
        TrainConfig(epochs=10, batch_size=32, seed=97),
    )
    return layer, val_ds


class TestPredictivePosterior:
    def test_matches_reference_implementation_exactly(self, trained_model):
        layer, val_ds = trained_model
        pred = predictive_posterior(layer, val_ds, mc_samples=25, seed=31)
        expected = reference_posterior(layer, val_ds.features, 25, seed=31)
        np.testing.assert_array_equal(pred.prob_samples, expected)
        np.testing.assert_array_equal(pred.mean_probs, expected.mean(axis=1))

    def test_shapes_and_fields(self, trained_model):
        layer, val_ds = trained_model
        pred = predictive_posterior(layer, val_ds, mc_samples=7, seed=0)
        n = val_ds.n_samples
        assert pred.prob_samples.shape == (n, 7, 3)
        assert pred.mean_probs.shape == (n, 3)
        assert pred.predicted.shape == (n,)
        assert pred.mc_samples == 7
        assert pred.predicted.dtype == np.int64

    def test_deterministic_for_equal_seeds(self, trained_model):
        layer, val_ds = trained_model
        a = predictive_posterior(layer, val_ds, mc_samples=9, seed=5)
        b = predictive_posterior(layer, val_ds, mc_samples=9, seed=5)
        c = predictive_posterior(layer, val_ds, mc_samples=9, seed=6)
        np.testing.assert_array_equal(a.prob_samples, b.prob_samples)
        assert np.max(np.abs(a.prob_samples - c.prob_samples)) > 0.0

    def test_sample_streams_are_prefix_stable(self, trained_model):
        # Sample s draws from rng([seed, s]), so a longer run extends a
        # shorter one rather than reshuffling it.
        layer, val_ds = trained_model
        short = predictive_posterior(layer, val_ds, mc_samples=6, seed=21)
        long = predictive_posterior(layer, val_ds, mc_samples=12, seed=21)
        np.testing.assert_array_equal(
            long.prob_samples[:, :6, :], short.prob_samples
        )

    def test_deterministic_weights_make_identical_samples(self):
        layer = init_layer(4, 3, rho_init=-40.0, seed=8)
        features = np.random.default_rng(3).standard_normal((10, 4))
        ds = FeatureDataset(features, np.zeros(10, dtype=np.int64), 3)
        pred = predictive_posterior(layer, ds, mc_samples=15, seed=2)
        for s in range(15):
            np.testing.assert_allclose(
                pred.prob_samples[:, s, :],
                pred.prob_samples[:, 0, :],
                rtol=0.0,
                atol=1e-12,
            )
        scores = uncertainty_scores(pred)
        # sigma ~ 4e-18 still flips last-ulp bits of mu, so "identical" means
        # up to rounding, and mutual information is zero only to that order.
        np.testing.assert_allclose(scores.mutual_info, 0.0, rtol=0.0, atol=1e-12)

    def test_single_sample_identities(self, trained_model):
        layer, val_ds = trained_model
        pred = predictive_posterior(layer, val_ds, mc_samples=1, seed=11)
        np.testing.assert_array_equal(pred.mean_probs, pred.prob_samples[:, 0, :])
        scores = uncertainty_scores(pred)
        np.testing.assert_allclose(
            scores.expected_entropy, scores.entropy, rtol=0.0, atol=1e-12
        )
        np.testing.assert_array_equal(scores.mutual_info, np.zeros(val_ds.n_samples))

    def test_small_run_tracks_large_reference_run(self, trained_model):
        layer, val_ds = trained_model
        small = predictive_posterior(layer, val_ds, mc_samples=20, seed=77)
        reference = reference_posterior(layer, val_ds.features, 10_000, seed=77)
        gap = np.abs(small.mean_probs - reference.mean(axis=1)).max(axis=1)
        assert float(gap.mean()) <= 0.02

    def test_nested_seed_runs_converge(self, trained_model):
        layer, val_ds = trained_model
        sizes = [4, 8, 16, 32, 64, 128]
        means = [
            predictive_posterior(layer, val_ds, mc_samples=s, seed=13).mean_probs
            for s in sizes
        ]
        gaps = [
            float(np.max(np.abs(means[i] - means[i + 1])))
            for i in range(len(sizes) - 1)
        ]
        # Statistical trend over five doublings, not strict per-step decay.
        assert gaps[-1] < gaps[0]
        assert gaps[-1] + gaps[-2] < gaps[0] + gaps[1]

    def test_accepts_raw_feature_array(self, trained_model):
        layer, val_ds = trained_model
        via_ds = predictive_posterior(layer, val_ds, mc_samples=4, seed=9)
        via_arr = predictive_posterior(layer, val_ds.features, mc_samples=4, seed=9)
        np.testing.assert_array_equal(via_ds.prob_samples, via_arr.prob_samples)

    def test_argmax_ties_pick_lowest_class(self):
        mu = np.tile(np.linspace(-0.5, 0.5, 4), (3, 1))
        layer = VBLinearLayer(
            weight_mu=mu,
            weight_rho=np.full((3, 4), -40.0),
            bias_mu=np.zeros(3),
            bias_rho=np.full(3, -40.0),
            prior_scale=1.0,
        )
        features = np.random.default_rng(0).standard_normal((6, 4))
        ds = FeatureDataset(features, np.zeros(6, dtype=np.int64), 3)
        pred = predictive_posterior(layer, ds, mc_samples=3, seed=0)
        np.testing.assert_array_equal(pred.predicted, np.zeros(6, dtype=np.int64))

    @pytest.mark.parametrize("check", [
        check_mc_samples,
        lambda s: predictive_posterior(init_layer(8, 3, seed=0), np.zeros((2, 8)), s),
        lambda s: score_posterior(init_layer(8, 3, seed=0), np.zeros((2, 8)), s),
    ], ids=["rule", "predictive_posterior", "score_posterior"])
    @pytest.mark.parametrize("mc_samples", [0, -3])
    def test_rejects_bad_mc_samples(self, check, mc_samples):
        with pytest.raises(ValueError) as info:
            check(mc_samples)
        assert str(info.value) == f"mc_samples must be at least 1, got {mc_samples}"

    def test_rejects_dimension_mismatch(self, trained_model):
        layer, _ = trained_model
        bad = FeatureDataset(np.zeros((4, 5)), np.zeros(4, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="feature"):
            predictive_posterior(layer, bad, mc_samples=3, seed=0)


def summary_fields(n=2, k=3):
    """Keyword arguments of a well-shaped N-row, K-class PosteriorSummary."""
    scores = ("confidence", "entropy", "expected_entropy", "mutual_info")
    return {"mean_probs": np.zeros((n, k)), "predicted": np.zeros(n, dtype=np.int64),
            **{name: np.zeros(n) for name in scores}}


class TestPosteriorSummary:
    def test_entropy_terms_absent_only_together(self):
        lean = PosteriorSummary(**{**summary_fields(3), "expected_entropy": None,
                                   "mutual_info": None})
        assert lean.expected_entropy is None and lean.mutual_info is None
        for absent in ("expected_entropy", "mutual_info"):
            with pytest.raises(ValueError) as info:
                PosteriorSummary(**{**summary_fields(3), absent: None})
            assert str(info.value) == (
                "expected_entropy and mutual_info must both be given or both be None"
            )

    @pytest.mark.parametrize("given,message", [
        ({"mean_probs": np.zeros(2)}, "mean_probs must be N x K, got shape (2,)"),
        ({"predicted": np.zeros(3, dtype=np.int64)},
         "predicted must have length 2, got shape (3,)"),
        ({"confidence": np.zeros((2, 1))}, "confidence must have length 2, got shape (2, 1)"),
        ({"entropy": np.zeros(1)}, "entropy must have length 2, got shape (1,)"),
        ({"expected_entropy": np.zeros(3)},
         "expected_entropy must have length 2, got shape (3,)"),
        ({"mutual_info": np.float64(0.0)}, "mutual_info must have length 2, got shape ()"),
    ], ids=["mean_probs", "predicted", "two_dimensional", "entropy", "expected_entropy",
            "scalar"])
    def test_rejected_with_message(self, given, message):
        with pytest.raises(ValueError) as info:
            PosteriorSummary(**{**summary_fields(2), **given})
        assert str(info.value) == message

    def test_arrays_frozen_without_copies(self):
        fields = summary_fields(4)
        summary = PosteriorSummary(**fields)
        for name, given in fields.items():
            held = getattr(summary, name)
            assert held is given, name
            assert not held.flags.writeable, name

    def test_arrays_coerced_to_their_dtypes(self):
        summary = PosteriorSummary(
            mean_probs=[[0.25, 0.75]], predicted=[1], confidence=[0.75], entropy=[0.5],
            expected_entropy=np.zeros(1, dtype=np.float32), mutual_info=[0],
        )
        assert summary.predicted.dtype == np.int64
        for name in ("mean_probs", "confidence", "entropy", "expected_entropy",
                     "mutual_info"):
            assert getattr(summary, name).dtype == np.float64, name

    def test_arithmetic_not_rechecked(self):
        # predicted is not the argmax and mean_probs rows do not sum to 1:
        # the summary holds what it is given.
        summary = PosteriorSummary(**{**summary_fields(2), "predicted": [2, 1]})
        assert summary.predicted.tolist() == [2, 1]


class TestUncertaintyScores:
    def test_summary_of_the_grid(self):
        rng = np.random.default_rng(5)
        pred = make_prediction_set(random_prob_samples(rng, 6, 4, 3))
        summary = uncertainty_scores(pred)
        assert isinstance(summary, PosteriorSummary)
        assert_same_bits(summary.mean_probs, pred.mean_probs)
        assert_same_bits(summary.predicted, pred.predicted)

    def test_uniform_mean_probabilities(self):
        pred = make_prediction_set(np.full((1, 1, 5), 0.2))
        scores = uncertainty_scores(pred)
        assert scores.confidence[0] == 0.2
        assert scores.entropy[0] == pytest.approx(math.log(5.0), rel=1e-12)

    def test_point_mass(self):
        probs = np.zeros((1, 2, 4))
        probs[:, :, 2] = 1.0
        scores = uncertainty_scores(make_prediction_set(probs))
        assert scores.confidence[0] == 1.0
        assert scores.entropy[0] == 0.0
        assert scores.expected_entropy[0] == 0.0
        assert scores.mutual_info[0] == 0.0

    def test_maximal_disagreement(self):
        probs = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        scores = uncertainty_scores(make_prediction_set(probs))
        assert scores.confidence[0] == 0.5
        assert scores.entropy[0] == pytest.approx(math.log(2.0), rel=1e-15)
        assert scores.expected_entropy[0] == 0.0
        assert scores.mutual_info[0] == pytest.approx(math.log(2.0), rel=1e-15)

    def test_matches_plain_python_entropies(self):
        rng = np.random.default_rng(7)
        pred = make_prediction_set(random_prob_samples(rng, 20, 6, 4))
        scores = uncertainty_scores(pred)
        for n in range(20):
            assert scores.entropy[n] == pytest.approx(
                entropy_ref(pred.mean_probs[n]), rel=1e-12
            )
            expected_ee = sum(
                entropy_ref(pred.prob_samples[n, s]) for s in range(6)
            ) / 6.0
            assert scores.expected_entropy[n] == pytest.approx(expected_ee, rel=1e-12)

    def test_bounds_hold_on_random_sets(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            s = int(rng.integers(1, 6))
            k = int(rng.integers(2, 7))
            scores = uncertainty_scores(
                make_prediction_set(random_prob_samples(rng, n, s, k))
            )
            assert np.all(scores.confidence >= 1.0 / k)
            assert np.all(scores.confidence <= 1.0)
            assert np.all(scores.entropy >= 0.0)
            assert np.all(scores.entropy <= math.log(k))
            assert np.all(scores.expected_entropy >= 0.0)
            assert np.all(scores.expected_entropy <= math.log(k))
            assert np.all(scores.mutual_info >= 0.0)
            assert np.all(scores.entropy + 1e-9 >= scores.expected_entropy)

    @pytest.mark.parametrize("row", [
        ["0x1.ffffffffed3c1p-2", "0x1.000000000961fp-1"],
        ["0x1.000000000961fp-1", "0x1.ffffffffed3c1p-2"],
    ], ids=["low_first", "high_first"])
    def test_entropies_clamped_at_log_k(self, row):
        # p = 0.5 -/+ 4.3e-12, a mean that 10^4 random heads produced: its
        # entropy rounds to one ulp above ln 2 before the clamp.
        probs = np.array([[[float.fromhex(p) for p in row]]])
        assert inference._entropy(probs)[0, 0] > math.log(2)
        scores = uncertainty_scores(make_prediction_set(probs))
        assert scores.entropy[0] == math.log(2)
        assert scores.expected_entropy[0] == math.log(2)
        assert scores.mutual_info[0] == 0.0

    def test_mutual_info_clamped_at_zero(self):
        # All samples identical: entropy == expected_entropy up to rounding,
        # and the clamp must never let round-off go negative.
        rng = np.random.default_rng(55)
        row = random_prob_samples(rng, 1, 1, 5)[0, 0]
        probs = np.tile(row, (30, 8, 1))
        scores = uncertainty_scores(make_prediction_set(probs))
        assert np.all(scores.mutual_info >= 0.0)
        np.testing.assert_allclose(scores.mutual_info, 0.0, rtol=0.0, atol=1e-12)

    def test_class_permutation_moves_predictions_not_scores(self):
        rng = np.random.default_rng(17)
        probs = random_prob_samples(rng, 25, 5, 6)
        perm = rng.permutation(6)
        inverse = np.empty(6, dtype=np.int64)
        inverse[perm] = np.arange(6)
        base = make_prediction_set(probs)
        permuted = make_prediction_set(probs[:, :, perm])
        np.testing.assert_array_equal(permuted.predicted, inverse[base.predicted])
        a = uncertainty_scores(base)
        b = uncertainty_scores(permuted)
        np.testing.assert_allclose(b.confidence, a.confidence, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(b.entropy, a.entropy, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            b.expected_entropy, a.expected_entropy, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            b.mutual_info, a.mutual_info, rtol=0.0, atol=1e-12
        )

    def test_scores_ignore_sample_order(self):
        rng = np.random.default_rng(29)
        probs = random_prob_samples(rng, 10, 7, 3)
        shuffled = probs[:, rng.permutation(7), :]
        a = uncertainty_scores(make_prediction_set(probs))
        b = uncertainty_scores(make_prediction_set(shuffled))
        np.testing.assert_allclose(b.confidence, a.confidence, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            b.expected_entropy, a.expected_entropy, rtol=0.0, atol=1e-12
        )


class TestPredictionExports:
    def test_predictions_csv_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        pred = make_prediction_set(random_prob_samples(rng, 4, 3, 3))
        scores = uncertainty_scores(pred)
        labels = np.array([2, 0, 1, 1], dtype=np.int64)
        path = os.path.join(tmp_path, "predictions.csv")
        save_predictions_csv(scores, labels, path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "index,label,predicted,confidence,entropy,mutual_info"
        assert len(lines) == 5
        for n, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(n)
            assert cells[1] == str(labels[n])
            assert cells[2] == str(pred.predicted[n])
            assert float(cells[3]) == scores.confidence[n]
            assert float(cells[4]) == scores.entropy[n]
            assert float(cells[5]) == scores.mutual_info[n]

    def test_prob_samples_csv_layout(self, tmp_path):
        rng = np.random.default_rng(4)
        pred = make_prediction_set(random_prob_samples(rng, 2, 3, 4))
        path = os.path.join(tmp_path, "samples.csv")
        save_prob_samples_csv(pred, path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "index,sample,p0,p1,p2,p3"
        assert len(lines) == 1 + 2 * 3
        row = 1
        for n in range(2):
            for s in range(3):
                cells = lines[row].split(",")
                assert cells[0] == str(n)
                assert cells[1] == str(s)
                recovered = np.array([float(c) for c in cells[2:]])
                np.testing.assert_array_equal(recovered, pred.prob_samples[n, s])
                row += 1

    def test_predictions_csv_rejects_length_mismatch(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = uncertainty_scores(make_prediction_set(random_prob_samples(rng, 4, 2, 3)))
        path = os.path.join(tmp_path, "bad.csv")
        with pytest.raises(ValueError) as info:
            save_predictions_csv(scores, np.zeros(3, dtype=np.int64), path)
        assert str(info.value) == "labels must match the prediction length"
        assert not os.path.exists(path)


CHUNK_ROWS = 4


def assert_engine_matches_reference(layer, features, s, tmp_path):
    """score_posterior and predictive_posterior equal full_grid_reference."""
    grid, mean, scores = full_grid_reference(layer, features, s, seed=11)

    samples = tmp_path / "samples.npy"
    streamed = score_posterior(layer, features, s, seed=11, samples=samples)
    assert_same_bits(streamed.mean_probs, mean)
    assert_same_bits(streamed.predicted, np.argmax(mean, axis=1))
    for name, expected in scores.items():
        assert_same_bits(getattr(streamed, name), expected)
    assert samples.read_bytes() == npy_bytes(grid)
    assert_same_bits(np.load(samples), grid)

    pred = predictive_posterior(layer, features, s, seed=11)
    assert_same_bits(pred.prob_samples, grid)
    assert_same_bits(pred.mean_probs, mean)
    for name, expected in scores.items():
        assert_same_bits(getattr(uncertainty_scores(pred), name), expected)
    path = os.path.join(tmp_path, "samples.csv")
    save_prob_samples_csv(pred, path)
    with open(path, encoding="utf-8", newline="") as f:
        assert f.read() == samples_csv_text(grid)


class TestStreamingEngine:
    @pytest.mark.parametrize("num_classes", [1, 2, 5, 7, 8, 9, 100])
    @pytest.mark.parametrize(
        "n", [1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
    )
    def test_matches_full_grid_reference_bit_for_bit(
        self, monkeypatch, tmp_path, n, num_classes
    ):
        # K below 8 takes the engine's class-major buffer and class folds,
        # K from 8 its draw-major buffer and numpy's own sum. S = 17 and
        # S = 9 put the mean over draws and the pairwise mean of the
        # per-draw entropies past numpy's 8-term blocks. A class-major chunk
        # takes its logits ceil(S / 4) draws at a time: S = 17 leaves a
        # short last block (5, 5, 5, 2), S = 1 and S = 3 blocks of one draw.
        draws = [17 if num_classes <= 8 else 9]
        if num_classes in (2, 5, 7, 8):
            draws += [1, 3]
        layer = init_layer(7, num_classes, rho_init=-1.0, seed=n)
        features = 3.0 * np.random.default_rng(n).standard_normal((n, 7))
        for s in draws:
            monkeypatch.setattr(
                inference, "_CHUNK_BYTES", CHUNK_ROWS * s * num_classes * 8
            )
            bounds = inference._chunk_bounds(n, s, num_classes)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert all(stop - start <= CHUNK_ROWS + 1 for start, stop in bounds)
            if n > 1:
                assert all(stop - start >= 2 for start, stop in bounds)
            assert_engine_matches_reference(layer, features, s, tmp_path)

    def test_all_equal_logits_match_reference(self, monkeypatch, tmp_path):
        # Zero means, a tiny weight sigma, no bias noise and -0.0 features:
        # every logit is zero, so all K classes tie for each row's maximum.
        n, s, k = 2 * CHUNK_ROWS + 1, 6, 5
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        layer = VBLinearLayer(
            weight_mu=np.zeros((k, 7)), weight_rho=np.full((k, 7), -30.0),
            bias_mu=np.full(k, -0.0), bias_rho=np.full(k, -1000.0), prior_scale=1.0,
        )
        features = np.full((n, 7), -0.0)
        draw = sample_weights(layer, np.random.default_rng([11, 0]))
        logits = features @ draw.weights.T + draw.biases
        assert not logits.any()
        assert_engine_matches_reference(layer, features, s, tmp_path)
        assert np.all(predictive_posterior(layer, features, s, seed=11).prob_samples == 1 / k)

    def test_overflowing_row_in_later_chunk_is_named(self, monkeypatch):
        # Row 9, in the third chunk, overflows only under the draws whose
        # class-0 weight on feature 0 exceeds 1.8; row 10 is NaN under every
        # draw. The lowest failing row is named, with its lowest draw.
        n, s, k = 3 * CHUNK_ROWS, 40, 3
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        layer = VBLinearLayer(
            weight_mu=np.eye(k, 4), weight_rho=np.full((k, 4), math.log(math.expm1(0.5))),
            bias_mu=np.zeros(k), bias_rho=np.full(k, -30.0), prior_scale=1.0,
        )
        features = np.random.default_rng(0).standard_normal((n, 4))
        features[9] = [1e308, 0.0, 0.0, 0.0]
        features[10, 2] = np.nan
        with np.errstate(all="ignore"):
            finite = [
                np.isfinite((features @ d.weights.T + d.biases).max(axis=1))
                for d in (
                    sample_weights(layer, np.random.default_rng([2, t]))
                    for t in range(s)
                )
            ]
        draw = next(t for t in range(s) if not finite[t][9])
        assert draw > 0 and all(f[:9].all() for f in finite)
        message = f"data row 9: logits are not finite under posterior draw {draw}$"
        with pytest.raises(ValueError, match=message):
            score_posterior(layer, features, s, seed=2)
        with pytest.raises(ValueError, match=message):
            predictive_posterior(layer, features, s, seed=2)
        features[9] = 0.0
        with pytest.raises(ValueError, match="data row 10: .* draw 0$"):
            score_posterior(layer, features, s, seed=2)

    @pytest.mark.parametrize("engine", [score_posterior, predictive_posterior])
    def test_overflow_raises_without_caller_errstate(self, engine):
        # pytest turns warnings into errors, so numpy's overflow warning from
        # the matmul would pre-empt the ValueError unless the engine silences
        # it itself.
        layer = init_layer(4, 3, mu_init_scale=1.0, seed=0)
        features = np.random.default_rng(0).standard_normal((6, 4))
        features[3] = 1.7e308 * np.sign(layer.weight_mu[0])
        state = np.geterr()
        with pytest.raises(ValueError, match="^data row 3: logits are not finite"):
            engine(layer, features, 5, seed=0)
        assert np.geterr() == state

    def test_chunks_leave_the_caller_error_state_in_force(self, monkeypatch):
        # The first two chunks meet at a barrier, so two threads score them,
        # each under the caller's error state.
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 4 * 5 * 3 * 8)
        use_workers(monkeypatch, 2)
        layer = init_layer(4, 3, seed=0)
        features = np.random.default_rng(0).standard_normal((12, 4))
        barrier = threading.Barrier(2, timeout=10)
        seen = []

        def before(start):
            seen.append((threading.get_ident(), np.geterr()))
            if start < 8:
                barrier.wait()

        wrap_kernel(monkeypatch, before)
        with np.errstate(all="raise"):
            state = np.geterr()
            score_posterior(layer, features, 5, seed=0)
        assert len({ident for ident, _ in seen}) == 2
        assert [errors for _, errors in seen] == [state] * 3

    def test_streaming_scorer_never_holds_the_grid(self):
        n, s, k = 20_000, 50, 5
        layer = init_layer(16, k, rho_init=-1.0, seed=0)
        features = np.random.default_rng(0).standard_normal((n, 16))
        grid_bytes = n * s * k * 8
        tracemalloc.start()
        try:
            score_posterior(layer, features, mc_samples=s, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 4

    def test_rejects_empty_input(self, trained_model):
        layer, _ = trained_model
        with pytest.raises(ValueError, match="at least one row"):
            score_posterior(layer, np.zeros((0, 8)), mc_samples=3, seed=0)


class TestWithoutMutualInfo:
    """score_posterior(..., mutual_info=False) skips the per-draw entropies."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_outputs_equal_the_default_call(self, monkeypatch, tmp_path, workers):
        n, s, k = 5 * CHUNK_ROWS + 1, 17, 5
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        use_workers(monkeypatch, workers)
        layer = init_layer(7, k, rho_init=-1.0, seed=3)
        features = 3.0 * np.random.default_rng(3).standard_normal((n, 7))
        full_samples, lean_samples = tmp_path / "full.npy", tmp_path / "lean.npy"
        full = score_posterior(layer, features, s, seed=3, samples=full_samples)
        for samples in (None, lean_samples):
            lean = score_posterior(
                layer, features, s, seed=3, samples=samples, mutual_info=False
            )
            assert_same_bits(lean.mean_probs, full.mean_probs)
            assert_same_bits(lean.predicted, full.predicted)
            assert_same_bits(lean.confidence, full.confidence)
            assert_same_bits(lean.entropy, full.entropy)
            assert lean.expected_entropy is None
            assert lean.mutual_info is None
        assert lean_samples.read_bytes() == full_samples.read_bytes()
        assert_same_bits(np.load(full_samples).mean(axis=1), full.mean_probs)

    def test_predictions_csv_rejects_the_summary_in_one_line(self, tmp_path):
        layer = init_layer(4, 3, rho_init=-1.0, seed=0)
        features = np.random.default_rng(0).standard_normal((6, 4))
        lean = score_posterior(layer, features, 3, seed=0, mutual_info=False)
        path = os.path.join(tmp_path, "predictions.csv")
        with pytest.raises(ValueError, match="mutual_info") as info:
            save_predictions_csv(lean, np.zeros(6, dtype=np.int64), path)
        assert "\n" not in str(info.value)
        assert not os.path.exists(path)

    def test_peak_memory_is_no_higher(self):
        n, s, k = 20_000, 50, 5
        layer = init_layer(16, k, rho_init=-1.0, seed=0)
        features = np.random.default_rng(0).standard_normal((n, 16))
        peaks = {}
        for mutual_info in (True, False):
            tracemalloc.start()
            try:
                score_posterior(layer, features, s, seed=0, mutual_info=mutual_info)
                peaks[mutual_info] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] <= peaks[True]


def engine_outputs(layer, features, s, samples, seed=11):
    """predictive_posterior's grid, score_posterior's arrays without and with
    a samples file, and that file's bytes; `samples` is its path."""
    results = [predictive_posterior(layer, features, s, seed=seed).prob_samples]
    for path in (None, samples):
        streamed = score_posterior(layer, features, s, seed=seed, samples=path)
        results += [streamed.mean_probs, streamed.predicted]
        results += [
            getattr(streamed, name)
            for name in ("confidence", "entropy", "expected_entropy", "mutual_info")
        ]
    return results, samples.read_bytes()


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(inference, "_worker_count", lambda chunks: workers)


def wrap_kernel(monkeypatch, before=None, after=None):
    """Run before(start) ahead of each chunk's kernel and after(start) behind it."""
    real = inference._softmax_chunk

    def kernel(features, start, *args):
        if before is not None:
            before(start)
        try:
            real(features, start, *args)
        finally:
            if after is not None:
                after(start)

    monkeypatch.setattr(inference, "_softmax_chunk", kernel)


def blas_threads():
    info = blas_info()
    return None if info is None else info[2]


class TestChunkPool:
    @pytest.mark.parametrize("k,d", [(5, 7), (100, 64)])
    @pytest.mark.parametrize("n", [
        CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS,
        3 * CHUNK_ROWS + 1, 5 * CHUNK_ROWS + 2,
    ])
    def test_outputs_do_not_depend_on_the_worker_count(
        self, monkeypatch, tmp_path, n, k, d
    ):
        s = 9
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        layer = init_layer(d, k, rho_init=-1.0, seed=n)
        features = 3.0 * np.random.default_rng(n).standard_normal((n, d))
        outputs = {}
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            outputs[workers] = engine_outputs(
                layer, features, s, tmp_path / f"samples_{workers}.npy"
            )
        arrays, text = outputs[1]
        assert text == npy_bytes(arrays[0])
        for workers in (2, 3):
            for got, expected in zip(outputs[workers][0], arrays):
                assert_same_bits(got, expected)
            assert outputs[workers][1] == text

    def test_many_threads_and_short_switches_keep_the_bits(self, monkeypatch, tmp_path):
        # More threads than cores, switching every microsecond: a lost
        # update, a chunk scored twice or a record at a wrong offset would
        # show.
        n, s, k = 40 * CHUNK_ROWS + 3, 5, 3
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        layer = init_layer(6, k, rho_init=-1.0, seed=3)
        features = np.random.default_rng(3).standard_normal((n, 6))
        use_workers(monkeypatch, 1)
        arrays, text = engine_outputs(layer, features, s, tmp_path / "one.npy")
        use_workers(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got, got_text = engine_outputs(layer, features, s, tmp_path / "eight.npy")
                for a, b in zip(got, arrays):
                    assert_same_bits(a, b)
                assert got_text == text
        finally:
            sys.setswitchinterval(interval)

    def test_lowest_failing_row_is_named_when_a_later_chunk_fails_first(
        self, monkeypatch
    ):
        # Chunk 1 (row 5) waits until chunk 2 (row 9) has failed on another
        # thread; the error still names row 5.
        n, s, k = 4 * CHUNK_ROWS, 3, 3
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        use_workers(monkeypatch, 3)
        layer = init_layer(4, k, seed=0)
        features = np.random.default_rng(0).standard_normal((n, 4))
        features[5, 1] = features[9, 2] = np.nan
        later_failed = threading.Event()
        waited = []

        def before(start):
            if start == CHUNK_ROWS:
                waited.append(later_failed.wait(timeout=10))

        def after(start):
            if start == 2 * CHUNK_ROWS:
                later_failed.set()

        wrap_kernel(monkeypatch, before, after)
        for engine in (score_posterior, predictive_posterior):
            later_failed.clear()
            with pytest.raises(ValueError, match="^data row 5: .* draw 0$"):
                engine(layer, features, s, seed=0)
        assert waited == [True, True]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_after_a_failure_are_skipped(self, monkeypatch, workers):
        # Row 5 fails in chunk 1 of 50. Chunks from 2 on wait until it has
        # failed; at most the ones already taken are scored after it.
        n, s, k = 50 * CHUNK_ROWS, 3, 3
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        use_workers(monkeypatch, workers)
        layer = init_layer(4, k, seed=0)
        features = np.random.default_rng(0).standard_normal((n, 4))
        features[5, 0] = np.inf
        failed = threading.Event()
        scored = []

        def before(start):
            scored.append(start)
            if start >= 2 * CHUNK_ROWS and failed.wait(timeout=10):
                time.sleep(0.05)  # lets the failing thread record its error

        wrap_kernel(monkeypatch, before, lambda start: start == CHUNK_ROWS and failed.set())
        with pytest.raises(ValueError, match="^data row 5: "):
            score_posterior(layer, features, s, seed=0)
        assert sorted(scored)[:2] == [0, CHUNK_ROWS]
        assert len(scored) <= 2 + workers

    def test_samples_file_is_written_out_of_order_by_the_pool(
        self, monkeypatch, tmp_path
    ):
        # Chunk 0's thread waits until another thread has written a later
        # chunk's records, so the file is filled out of row order; it must
        # still equal the one a single thread writes in row order.
        n, s, k = 6 * CHUNK_ROWS, 3, 3
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * s * k * 8)
        layer = init_layer(4, k, seed=0)
        features = np.random.default_rng(0).standard_normal((n, 4))
        use_workers(monkeypatch, 1)
        serial = tmp_path / "one.npy"
        score_posterior(layer, features, s, seed=0, samples=serial)

        header = len(serial.read_bytes()) - n * s * k * 8
        real_pwrite, offsets, later = inference._pwrite, [], threading.Event()

        def pwrite(fd, data, offset):
            real_pwrite(fd, data, offset)
            offsets.append(offset)
            if offset > header:
                later.set()

        waited, scored = [], []

        def before(start):
            scored.append(threading.get_ident())
            if start == 0:
                waited.append(later.wait(timeout=10))

        monkeypatch.setattr(inference, "_pwrite", pwrite)
        wrap_kernel(monkeypatch, before)
        use_workers(monkeypatch, 2)
        pooled = tmp_path / "two.npy"
        score_posterior(layer, features, s, seed=0, samples=pooled)
        assert waited == [True]
        assert threading.get_ident() not in scored
        assert len(set(scored)) == 2
        assert offsets[0] == 0 and offsets[1] > header
        assert sorted(offsets) == [0] + [
            header + start * s * k * 8 for start in range(0, n, CHUNK_ROWS)
        ]
        assert pooled.read_bytes() == serial.read_bytes()

    def test_samples_file_takes_several_writes_per_chunk(self, monkeypatch, tmp_path):
        # Rows of 20 000 bytes go out three at a time (about 64 KiB), so the
        # 10-, 10- and 5-row chunks take 4, 4 and 2 writes after the header.
        n, s, k = 25, 100, 25
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 10 * s * k * 8)
        use_workers(monkeypatch, 2)
        real_pwrite, offsets = inference._pwrite, []

        def pwrite(fd, data, offset):
            offsets.append(offset)
            real_pwrite(fd, data, offset)

        monkeypatch.setattr(inference, "_pwrite", pwrite)
        layer = init_layer(4, k, rho_init=-1.0, seed=5)
        features = np.random.default_rng(5).standard_normal((n, 4))
        assert_engine_matches_reference(layer, features, s, tmp_path)
        header = len(npy_bytes(np.zeros((n, s, k)))) - n * s * k * 8
        rows = [0, 3, 6, 9, 10, 13, 16, 19, 20, 23]
        assert sorted(offsets) == [0] + [header + row * s * k * 8 for row in rows]

    @pytest.mark.skipif(blas_threads() is None, reason="numpy's OpenBLAS not found")
    def test_blas_thread_count_is_pinned_then_restored(self, monkeypatch):
        use_workers(monkeypatch, 2)
        layer = init_layer(4, 3, mu_init_scale=1.0, seed=0)
        features = np.random.default_rng(0).standard_normal((600, 4))
        inside = []
        wrap_kernel(monkeypatch, lambda start: inside.append(blas_threads()))
        before = blas_threads()
        score_posterior(layer, features, 5, seed=0)
        assert blas_threads() == before
        features[300] = 1.7e308 * np.sign(layer.weight_mu[0])
        with pytest.raises(ValueError, match="^data row 300: "):
            predictive_posterior(layer, features, 5, seed=0)
        assert blas_threads() == before
        assert inside and set(inside) == {1}

    @pytest.mark.skipif(blas_threads() is None, reason="numpy's OpenBLAS not found")
    def test_overlapping_pins_restore_the_count_once_all_leave(self):
        before = blas_threads()
        entered, leave = threading.Barrier(2, timeout=10), threading.Event()
        counts = []

        def hold():
            with one_blas_thread():
                entered.wait()
                leave.wait(timeout=10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            with one_blas_thread() as pinned:
                entered.wait()
            counts.append(blas_threads())  # the thread still holds the pin
        finally:
            leave.set()
            thread.join(timeout=10)
        assert pinned and not thread.is_alive()
        assert counts == [1]
        assert blas_threads() == before

    @pytest.mark.parametrize("fails", [False, True])
    def test_every_worker_is_joined(self, monkeypatch, fails):
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * 5 * 3 * 8)
        use_workers(monkeypatch, 3)
        layer = init_layer(4, 3, seed=0)
        features = np.random.default_rng(0).standard_normal((10 * CHUNK_ROWS, 4))
        if fails:
            features[17, 3] = np.nan
        threads = threading.active_count()
        try:
            score_posterior(layer, features, 5, seed=0)
        except ValueError:
            assert fails
        assert threading.active_count() == threads

    @pytest.mark.parametrize("engine", [score_posterior, predictive_posterior])
    def test_interrupt_in_a_pool_thread_reaches_the_caller(self, monkeypatch, engine):
        # The first chunk another thread takes raises KeyboardInterrupt; any
        # chunk on the calling thread waits until it has.
        monkeypatch.setattr(inference, "_CHUNK_BYTES", CHUNK_ROWS * 5 * 3 * 8)
        use_workers(monkeypatch, 2)
        layer = init_layer(4, 3, seed=0)
        features = np.random.default_rng(0).standard_normal((10 * CHUNK_ROWS, 4))
        caller, interrupted = threading.get_ident(), threading.Event()

        def before(start):
            if threading.get_ident() == caller:
                interrupted.wait(timeout=10)
            elif not interrupted.is_set():
                interrupted.set()
                raise KeyboardInterrupt

        wrap_kernel(monkeypatch, before)
        threads, blas = threading.active_count(), blas_threads()
        with pytest.raises(KeyboardInterrupt):
            engine(layer, features, 5, seed=0)
        assert interrupted.is_set()
        assert threading.active_count() == threads
        assert blas_threads() == blas


class TestPosteriorDraws:
    @pytest.mark.parametrize("engine", [score_posterior, predictive_posterior])
    def test_overflowing_sigma_names_the_draw_not_a_row(self, engine):
        # Weight sigma 1e308: sigma * eps overflows wherever |eps| > 1.8.
        layer = VBLinearLayer(
            weight_mu=np.zeros((3, 4)), weight_rho=np.full((3, 4), 1e308),
            bias_mu=np.zeros(3), bias_rho=np.zeros(3), prior_scale=1.0,
        )
        with np.errstate(all="ignore"):
            finite = [
                np.isfinite(d.weights).all() and np.isfinite(d.biases).all()
                for d in (
                    sample_weights(layer, np.random.default_rng([0, t]))
                    for t in range(5)
                )
            ]
        draw = finite.index(False)
        features = np.random.default_rng(0).standard_normal((6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                engine(layer, features, 5, seed=0)
        assert str(info.value) == (
            f"posterior draw {draw} is not finite: "
            "the model's weight/bias sigma overflows float64"
        )


SUM_VALUES = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, np.inf, -np.inf, np.nan]
    ),
    st.floats(width=64),
)


@st.composite
def class_blocks(draw):
    """A float64 array of random leading shape with 0 to 20 classes last."""
    lead = draw(st.lists(st.integers(0, 4), max_size=3))
    k = draw(st.integers(0, 20))
    return draw(arrays(np.float64, (*lead, k), elements=SUM_VALUES))


def class_layouts(block):
    """(array, class axis, back) for `block` laid out as the engine may.

    First the block itself, classes last. Then, as in a chunk, classes on
    axis 1: a view of the block (a draw-major chunk's layout) and, below 8
    classes, a contiguous copy (a class-major chunk's). back(result) moves a
    keepdims result's class axis back to the end.
    """
    def back(result):
        return np.moveaxis(result, 1, -1)

    layouts = [(block, -1, lambda result: result)]
    if block.ndim >= 2:
        moved = np.moveaxis(block, -1, 1)
        layouts.append((moved, 1, back))
        if block.shape[-1] < 8:
            layouts.append((np.ascontiguousarray(moved), 1, back))
    return layouts


@settings(max_examples=400, deadline=None)
@given(block=class_blocks())
@example(block=np.full((2, 3), -0.0))
@example(block=np.array([[1e308, 1e308, -np.inf, 5e-324]]))
@example(block=np.array([np.nan, -np.nan]))
@example(block=np.arange(60.0).reshape(2, 3, 10) / 7)
def test_sum_classes_matches_numpy_sum(block):
    # Along the class axis of every layout: equal bits wherever numpy's sum
    # over the last axis is not NaN; NaN where it is, though the two may
    # keep different NaN terms (sign and payload).
    with np.errstate(all="ignore"):
        expected = block.sum(axis=-1, keepdims=True)
        folded = [back(inference._sum_classes(layout, axis))
                  for layout, axis, back in class_layouts(block)]
    nan = np.isnan(expected)
    for result in folded:
        assert_same_bits(np.isnan(result), nan)
        assert_same_bits(result[~nan], expected[~nan])


def entropy_where(p):
    """_entropy with a np.where zero guard: ln 1 = 0 stands in where p is 0."""
    terms = np.where(p > 0.0, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    return -inference._sum_classes(terms)[..., 0]


PROB_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def probability_rows(draw):
    """Rows of 1 to 20 values in [0, 1], each with a positive one."""
    lead = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    k = draw(st.integers(1, 20))
    p = draw(arrays(np.float64, (*lead, k), elements=PROB_VALUES))
    positive = draw(st.sampled_from([1.0, 0.25, 5e-324, 1e-310]))
    column = draw(st.integers(0, k - 1))
    p[..., column] = np.where(p[..., column] > 0.0, p[..., column], positive)
    return p


@settings(max_examples=400, deadline=None)
@given(p=probability_rows())
@example(p=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]))
@example(p=np.array([[0.0] * 9 + [1.0]]))
@example(p=np.array([[5e-324, 0.0, 0.0], [0.0, 0.5, 0.0]]))
def test_entropy_keeps_the_bits_of_the_where_guard(p):
    # _entropy's term for a zero p is -0.0 where this guard's is +0.0; on
    # probability rows neither the class fold (K < 8) nor numpy's pairwise
    # sum (K >= 8) can tell them apart.
    expected = entropy_where(p)
    for layout, axis, _ in class_layouts(p):
        assert_same_bits(inference._entropy(layout, axis), expected)
