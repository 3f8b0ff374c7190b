"""Tests for the variational Bayesian linear layer.

The statistical oracles here are independent re-implementations: the KL value
is checked against a Monte Carlo estimate of E_q[ln q - ln p], and the Flipout
forward pass is checked against plain reparameterized sampling in law.
"""

import json
import math
import re
import sys

import numpy as np
import pytest

from vbselect.dataset import FeatureDataset
from vbselect.inference import predictive_posterior, score_posterior
from vbselect.training import elbo_gradients, elbo_loss
from vbselect.vbll import (
    VBLinearLayer,
    check_features,
    flipout_noise,
    forward_flipout,
    forward_mean,
    init_layer,
    json_value_text,
    kl_to_prior,
    load_layer,
    log_softmax,
    sample_weights,
    save_layer,
    sigmoid,
    softmax,
    softplus,
    softplus_inverse,
)


def random_layer(rng, num_classes=3, feature_dim=4, prior_scale=1.0):
    return VBLinearLayer(
        weight_mu=rng.standard_normal((num_classes, feature_dim)),
        weight_rho=rng.uniform(-3.0, 1.0, (num_classes, feature_dim)),
        bias_mu=rng.standard_normal(num_classes),
        bias_rho=rng.uniform(-3.0, 1.0, num_classes),
        prior_scale=prior_scale,
    )


def layer_at_prior(num_classes, feature_dim, prior_scale):
    """Posterior exactly equal to the N(0, s^2) prior."""
    rho = softplus_inverse(prior_scale)
    return VBLinearLayer(
        weight_mu=np.zeros((num_classes, feature_dim)),
        weight_rho=np.full((num_classes, feature_dim), rho),
        bias_mu=np.zeros(num_classes),
        bias_rho=np.full(num_classes, rho),
        prior_scale=prior_scale,
    )


class TestScalarHelpers:
    def test_softplus_known_values(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(softplus(np.array([-40.0, 40.0])), [0.0, 40.0], atol=1e-12)

    def test_softplus_monotonic(self):
        x = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(softplus(x)) > 0)

    def test_softplus_inverse_round_trip(self):
        y = np.array([1e-8, 1e-3, 0.1, 0.693, 1.0, 5.0, 40.0, 700.0])
        np.testing.assert_allclose(softplus(softplus_inverse(y)), y, rtol=1e-12)

    def test_sigmoid_is_softplus_derivative(self):
        x = np.linspace(-8, 8, 101)
        h = 1e-6
        numeric = (softplus(x + h) - softplus(x - h)) / (2 * h)
        np.testing.assert_allclose(sigmoid(x), numeric, atol=1e-8)
        assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-15)


class TestInitLayer:
    def test_shapes_and_determinism(self):
        a = init_layer(7, 4, seed=13)
        b = init_layer(7, 4, seed=13)
        assert a.weight_mu.shape == (4, 7)
        assert a.bias_mu.shape == (4,)
        np.testing.assert_array_equal(a.weight_mu, b.weight_mu)
        np.testing.assert_array_equal(a.bias_mu, b.bias_mu)
        c = init_layer(7, 4, seed=14)
        assert not np.array_equal(a.weight_mu, c.weight_mu)

    def test_zero_mu_scale_gives_zero_means(self):
        layer = init_layer(5, 3, mu_init_scale=0.0, seed=1)
        assert np.all(layer.weight_mu == 0.0)
        assert np.all(layer.bias_mu == 0.0)

    def test_rho_zero_gives_sigma_ln2(self):
        layer = init_layer(2, 2, rho_init=0.0, seed=0)
        np.testing.assert_allclose(layer.weight_sigma, math.log(2.0), rtol=1e-15)
        np.testing.assert_allclose(layer.bias_sigma, math.log(2.0), rtol=1e-15)

    def test_mu_within_init_bounds(self):
        layer = init_layer(20, 10, mu_init_scale=0.1, seed=3)
        assert np.all(np.abs(layer.weight_mu) <= 0.1)
        assert np.all(np.abs(layer.bias_mu) <= 0.1)

    def test_bad_prior_scale_rejected(self):
        with pytest.raises(ValueError):
            init_layer(3, 2, prior_scale=0.0, seed=0)
        with pytest.raises(ValueError):
            init_layer(3, 2, prior_scale=-1.0, seed=0)


class TestLayerValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            VBLinearLayer(
                weight_mu=np.array([[np.nan]]),
                weight_rho=np.zeros((1, 1)),
                bias_mu=np.zeros(1),
                bias_rho=np.zeros(1),
                prior_scale=1.0,
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VBLinearLayer(
                weight_mu=np.zeros((2, 3)),
                weight_rho=np.zeros((2, 3)),
                bias_mu=np.zeros(3),
                bias_rho=np.zeros(3),
                prior_scale=1.0,
            )


class TestKlToPrior:
    def test_zero_when_posterior_equals_prior(self):
        for s in (0.5, 1.0, 2.0):
            layer = layer_at_prior(3, 4, s)
            assert abs(kl_to_prior(layer)) <= 1e-12

    def test_single_parameter_closed_form(self):
        # one weight with mu=1, sigma=1 against s=1; bias pinned at the prior
        # so it contributes exactly zero: KL = 0 + (1+1)/2 - 1/2 = 0.5
        layer = VBLinearLayer(
            weight_mu=np.array([[1.0]]),
            weight_rho=np.array([[softplus_inverse(1.0)]]),
            bias_mu=np.zeros(1),
            bias_rho=np.full(1, softplus_inverse(1.0)),
            prior_scale=1.0,
        )
        assert abs(kl_to_prior(layer) - 0.5) <= 1e-12

    def test_nonnegative_on_random_layers(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            layer = random_layer(rng, 2, 3, prior_scale=float(rng.uniform(0.2, 3.0)))
            assert kl_to_prior(layer) >= 0.0

    def test_matches_monte_carlo_estimate(self):
        """KL closed form vs. a 10^6-draw estimate of E_q[ln q - ln p] per parameter."""
        rng = np.random.default_rng(2024)
        layer = random_layer(rng, 2, 3, prior_scale=1.3)
        s = layer.prior_scale
        draws = 10**6
        total = 0.0
        var_sum = 0.0
        params = [
            (layer.weight_mu.ravel(), layer.weight_sigma.ravel()),
            (layer.bias_mu, layer.bias_sigma),
        ]
        for mus, sigmas in params:
            for mu, sigma in zip(mus, sigmas):
                eps = rng.standard_normal(draws)
                w = mu + sigma * eps
                vals = np.log(s / sigma) - 0.5 * eps**2 + w**2 / (2 * s**2)
                total += vals.mean()
                var_sum += vals.var() / draws
        se = math.sqrt(var_sum)
        assert abs(kl_to_prior(layer) - total) <= 3 * se


@pytest.fixture(scope="module")
def plain_sample_cloud():
    """10^5 reparameterized weight samples from one fixed random layer."""
    rng = np.random.default_rng(555)
    layer = random_layer(rng, 3, 4)
    n = 10**5
    weights = np.empty((n, 3, 4))
    biases = np.empty((n, 3))
    stream = np.random.default_rng(808)
    for i in range(n):
        ws = sample_weights(layer, stream)
        weights[i] = ws.weights
        biases[i] = ws.biases
    return layer, weights, biases


class TestSampleWeights:
    def test_collapses_to_mean_at_tiny_sigma(self):
        rng = np.random.default_rng(9)
        layer = VBLinearLayer(
            weight_mu=rng.standard_normal((2, 3)),
            weight_rho=np.full((2, 3), -40.0),
            bias_mu=rng.standard_normal(2),
            bias_rho=np.full(2, -40.0),
            prior_scale=1.0,
        )
        ws = sample_weights(layer, np.random.default_rng(4))
        np.testing.assert_allclose(ws.weights, layer.weight_mu, atol=1e-12)
        np.testing.assert_allclose(ws.biases, layer.bias_mu, atol=1e-12)

    def test_sample_mean_matches_mu(self, plain_sample_cloud):
        layer, weights, biases = plain_sample_cloud
        n = weights.shape[0]
        bound_w = 3 * layer.weight_sigma / math.sqrt(n)
        bound_b = 3 * layer.bias_sigma / math.sqrt(n)
        assert np.all(np.abs(weights.mean(axis=0) - layer.weight_mu) <= bound_w)
        assert np.all(np.abs(biases.mean(axis=0) - layer.bias_mu) <= bound_b)

    def test_sample_variance_matches_sigma_squared(self, plain_sample_cloud):
        layer, weights, biases = plain_sample_cloud
        np.testing.assert_allclose(weights.var(axis=0), layer.weight_sigma**2, rtol=0.05)
        np.testing.assert_allclose(biases.var(axis=0), layer.bias_sigma**2, rtol=0.05)

    def test_same_stream_same_sample(self):
        rng = np.random.default_rng(31)
        layer = random_layer(rng)
        a = sample_weights(layer, np.random.default_rng(77))
        b = sample_weights(layer, np.random.default_rng(77))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)


class TestForwardMean:
    def test_zero_input_returns_bias(self):
        rng = np.random.default_rng(12)
        layer = random_layer(rng, 4, 6)
        logits = forward_mean(layer, np.zeros((2, 6)))
        np.testing.assert_allclose(logits, np.tile(layer.bias_mu, (2, 1)), atol=1e-15)

    def test_identity_weights_pass_input_through(self):
        layer = VBLinearLayer(
            weight_mu=np.eye(3),
            weight_rho=np.full((3, 3), -5.0),
            bias_mu=np.zeros(3),
            bias_rho=np.full(3, -5.0),
            prior_scale=1.0,
        )
        batch = np.eye(3)[[1]]
        np.testing.assert_allclose(forward_mean(layer, batch), batch, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        layer = init_layer(4, 3, seed=0)
        with pytest.raises(ValueError):
            forward_mean(layer, np.zeros((2, 5)))

    def test_matches_average_of_sampled_forwards(self, plain_sample_cloud):
        layer, weights, biases = plain_sample_cloud
        rng = np.random.default_rng(66)
        x = rng.standard_normal(4)
        sampled_logits = weights @ x + biases  # (n, 3)
        n = sampled_logits.shape[0]
        se = sampled_logits.std(axis=0, ddof=1) / math.sqrt(n)
        gap = np.abs(sampled_logits.mean(axis=0) - forward_mean(layer, x[None, :])[0])
        assert np.all(gap <= 3 * se)


# Every public function that pushes rows through a layer, called on `rows`.
FEATURE_ENTRY_POINTS = {
    "forward_mean": forward_mean,
    "forward_flipout": lambda layer, rows: forward_flipout(
        layer, rows, np.random.default_rng(0)
    ),
    "elbo_loss": lambda layer, rows: elbo_loss(
        layer, rows, np.zeros(len(rows), dtype=np.int64), 10, np.random.default_rng(0)
    ),
    "elbo_gradients": lambda layer, rows: elbo_gradients(
        layer, rows, np.zeros(len(rows), dtype=np.int64), 10, np.random.default_rng(0)
    ),
    "predictive_posterior": lambda layer, rows: predictive_posterior(layer, rows, 3),
    "score_posterior": lambda layer, rows: score_posterior(layer, rows, 3),
}


class TestCheckFeatures:
    @pytest.mark.parametrize("entry", FEATURE_ENTRY_POINTS)
    @pytest.mark.parametrize("shape,message", [
        ((4,), "features must be N x 4, got shape (4,)"),
        ((2, 3, 4), "features must be N x 4, got shape (2, 3, 4)"),
        ((2, 5), "features must be N x 4, got shape (2, 5)"),
        ((0, 4), "features must have at least one row"),
    ])
    def test_entry_points_share_one_message(self, entry, shape, message):
        layer = init_layer(4, 3, seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FEATURE_ENTRY_POINTS[entry](layer, np.zeros(shape))

    def test_accepts_a_dataset_or_an_array(self):
        layer = init_layer(4, 3, seed=0)
        features = np.arange(8.0).reshape(2, 4)
        ds = FeatureDataset(features, np.array([0, 1]), 3)
        assert check_features(layer, ds) is ds.features
        np.testing.assert_array_equal(check_features(layer, features.tolist()), features)
        assert check_features(layer, features.astype(np.float32)).dtype == np.float64


class TestForwardFlipout:
    def test_zero_variance_equals_forward_mean(self):
        rng = np.random.default_rng(5)
        layer = VBLinearLayer(
            weight_mu=rng.standard_normal((3, 4)),
            weight_rho=np.full((3, 4), -40.0),
            bias_mu=rng.standard_normal(3),
            bias_rho=np.full(3, -40.0),
            prior_scale=1.0,
        )
        batch = rng.standard_normal((6, 4))
        out = forward_flipout(layer, batch, np.random.default_rng(1))
        np.testing.assert_allclose(out, forward_mean(layer, batch), atol=1e-12)

    def test_single_row_marginal_matches_plain_sampling(self, plain_sample_cloud):
        """B=1 Flipout logits agree with sample-then-forward in mean and variance."""
        layer, weights, biases = plain_sample_cloud
        rng = np.random.default_rng(321)
        x = rng.standard_normal(4)

        plain = weights @ x + biases
        n_flip = 3 * 10**4
        flip = np.empty((n_flip, 3))
        stream = np.random.default_rng(999)
        for i in range(n_flip):
            flip[i] = forward_flipout(layer, x[None, :], stream)[0]

        mean_se = np.sqrt(
            plain.var(axis=0, ddof=1) / plain.shape[0] + flip.var(axis=0, ddof=1) / n_flip
        )
        assert np.all(np.abs(plain.mean(axis=0) - flip.mean(axis=0)) <= 3 * mean_se)

        # variance comparison: SE of a sample variance is roughly var*sqrt(2/(n-1))
        var_p, var_f = plain.var(axis=0, ddof=1), flip.var(axis=0, ddof=1)
        var_se = np.sqrt(
            2 * var_p**2 / (plain.shape[0] - 1) + 2 * var_f**2 / (n_flip - 1)
        )
        assert np.all(np.abs(var_p - var_f) <= 3 * var_se)

    def test_batch_average_is_unbiased_for_forward_mean(self):
        rng = np.random.default_rng(1234)
        layer = random_layer(rng, 3, 4)
        batch = rng.standard_normal((4, 4))
        n = 4 * 10**4
        acc = np.zeros((4, 3))
        acc_sq = np.zeros((4, 3))
        stream = np.random.default_rng(4321)
        for _ in range(n):
            out = forward_flipout(layer, batch, stream)
            acc += out
            acc_sq += out**2
        mean = acc / n
        se = np.sqrt((acc_sq / n - mean**2) / n)
        assert np.all(np.abs(mean - forward_mean(layer, batch)) <= 3 * se)

    def test_deterministic_per_stream(self):
        rng = np.random.default_rng(2)
        layer = random_layer(rng)
        batch = rng.standard_normal((5, 4))
        a = forward_flipout(layer, batch, np.random.default_rng(8))
        b = forward_flipout(layer, batch, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)


class TestFlipoutNoise:
    def test_draws_in_the_documented_order(self):
        layer = random_layer(np.random.default_rng(3), 3, 4)
        eps_w, eps_b, sign_in, sign_out = flipout_noise(layer, 6, np.random.default_rng(17))
        stream = np.random.default_rng(17)
        assert eps_w.tobytes() == stream.standard_normal((3, 4)).tobytes()
        assert eps_b.tobytes() == stream.standard_normal(3).tobytes()
        for signs, shape in ((sign_in, (6, 4)), (sign_out, (6, 3))):
            expected = stream.integers(0, 2, size=shape) * 2.0 - 1.0
            assert signs.dtype == np.float64
            assert signs.tobytes() == expected.tobytes()

    def test_out_buffers_receive_the_same_draws(self):
        layer = random_layer(np.random.default_rng(4), 3, 4)
        fresh = flipout_noise(layer, 5, np.random.default_rng(23))
        out = (np.full((3, 4), np.nan), np.full(3, np.nan))
        filled = flipout_noise(layer, 5, np.random.default_rng(23), out=out)
        assert filled[0] is out[0] and filled[1] is out[1]
        for a, b in zip(fresh, filled):
            assert a.tobytes() == b.tobytes()


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2), atol=1e-15)
        np.testing.assert_allclose(softmax(np.full(5, 3.7)), np.full(5, 0.2), atol=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)
        assert np.all(np.isfinite(p))

    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        z = rng.uniform(-30, 30, (200, 7))
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance_bitwise_on_dyadic_inputs(self):
        # With logits and shifts that are exact multiples of 2^-20, z + c is
        # computed exactly, so the stabilized softmax must match bit for bit.
        rng = np.random.default_rng(44)
        scale = 2.0**-20
        for _ in range(200):
            k = int(rng.integers(2, 8))
            z = rng.integers(-(2**24), 2**24, size=k) * scale
            c = float(rng.integers(-(2**24), 2**24)) * scale
            a = softmax(z)
            b = softmax(z + c)
            assert a.tobytes() == b.tobytes()

    def test_shift_invariance_close_for_arbitrary_shifts(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            z = rng.uniform(-10, 10, 5)
            c = float(rng.uniform(-100, 100))
            np.testing.assert_allclose(softmax(z + c), softmax(z), rtol=1e-12, atol=1e-15)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(46)
        z = rng.uniform(-5, 5, (50, 4))
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)
        # and stays finite where plain log(softmax) would underflow
        assert np.all(np.isfinite(log_softmax(np.array([0.0, -2000.0]))))


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(88)
        layer = random_layer(rng, 4, 6, prior_scale=1.7)
        path = tmp_path / "layer.json"
        save_layer(layer, path)
        back = load_layer(path)
        np.testing.assert_array_equal(back.weight_mu, layer.weight_mu)
        np.testing.assert_array_equal(back.weight_rho, layer.weight_rho)
        np.testing.assert_array_equal(back.bias_mu, layer.bias_mu)
        np.testing.assert_array_equal(back.bias_rho, layer.bias_rho)
        assert back.prior_scale == layer.prior_scale

    def test_serialized_fields(self, tmp_path):
        import json

        layer = init_layer(3, 2, seed=1)
        path = tmp_path / "layer.json"
        save_layer(layer, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["feature_dim"] == 3
        assert doc["num_classes"] == 2
        assert doc["prior_scale"] == 1.0
        assert len(doc["weight_mu"]) == 2 and len(doc["weight_mu"][0]) == 3

    def test_load_rejects_unknown_version(self, tmp_path):
        import json

        layer = init_layer(2, 2, seed=0)
        path = tmp_path / "layer.json"
        save_layer(layer, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_layer(path)

    @pytest.mark.parametrize("value,text", [
        (True, "True"),
        (None, "None"),
        (1.0, "1.0"),
        ("a" * 78, repr("a" * 78)),
        ("a" * 79, "a JSON string"),
        (10**80, "a JSON integer"),
        (list(range(30)), "a JSON array"),
        ({"k": "v"}, "{'k': 'v'}"),
    ])
    def test_json_value_text_quotes_at_most_80_characters(self, value, text):
        assert json_value_text(value) == text

    def test_json_value_text_names_a_list_too_deep_to_print(self):
        nested = []
        for _ in range(sys.getrecursionlimit() + 100):
            nested = [nested]
        assert json_value_text(nested) == "a JSON array"

    @pytest.mark.parametrize("leaf,ok", [(1.0, True), ("1.0", False)])
    def test_number_check_walks_past_the_recursion_limit(self, leaf, ok):
        from vbselect.vbll import _numbers_only

        nested = leaf
        for _ in range(5000):
            nested = [nested]
        assert _numbers_only(nested) is ok

    @pytest.mark.parametrize("weight_mu", [
        [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
        json.loads("[" * 500 + "1.0" + "]" * 500),
    ], ids=["ragged", "nested_500"])
    def test_load_names_the_field_of_a_non_rectangular_array(self, tmp_path, weight_mu):
        path = tmp_path / "layer.json"
        save_layer(init_layer(4, 3, seed=0), path)
        doc = json.loads(path.read_text())
        doc["weight_mu"] = weight_mu
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_layer(path)
        assert str(info.value) == (
            f"{path}: weight_mu must be a rectangular array of numbers"
        )

    def test_load_rejects_json_nested_past_the_parser(self, tmp_path):
        path = tmp_path / "layer.json"
        path.write_text('{"weight_mu": ' + "[" * 50_000 + "]" * 50_000 + "}")
        with pytest.raises(ValueError, match="JSON nests too deeply to parse$"):
            load_layer(path)
