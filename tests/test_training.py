"""Training-objective and optimizer tests.

Gradients are validated two independent ways: central finite differences with
replayed noise (gradcheck), and isolation of the KL path by differencing two
runs that share noise but use different dataset sizes.
"""

import contextlib
import dataclasses
import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vbselect import training, vbll
from vbselect.blas import blas_info
from vbselect.dataset import FeatureDataset, SyntheticConfig, generate_synthetic
from vbselect.training import (
    EpochRecord,
    LayerInitConfig,
    NonFiniteError,
    TrainConfig,
    adam_step,
    elbo_gradients,
    elbo_loss,
    gradcheck,
    gradcheck_instance,
    save_trace_csv,
    train,
)
from vbselect.vbll import (
    VBLinearLayer,
    flipout_noise,
    forward_mean,
    init_layer,
    kl_to_prior,
    log_softmax,
    sigmoid,
    softplus,
    softplus_inverse,
)


def tiny_sigma_layer(rng, num_classes, feature_dim, zero_mu=False):
    return VBLinearLayer(
        weight_mu=np.zeros((num_classes, feature_dim))
        if zero_mu
        else rng.standard_normal((num_classes, feature_dim)),
        weight_rho=np.full((num_classes, feature_dim), -40.0),
        bias_mu=np.zeros(num_classes) if zero_mu else rng.standard_normal(num_classes),
        bias_rho=np.full(num_classes, -40.0),
        prior_scale=1.0,
    )


def random_layer(rng, num_classes=3, feature_dim=4, prior_scale=1.0):
    return VBLinearLayer(
        weight_mu=0.8 * rng.standard_normal((num_classes, feature_dim)),
        weight_rho=rng.uniform(-3.0, 0.5, (num_classes, feature_dim)),
        bias_mu=0.8 * rng.standard_normal(num_classes),
        bias_rho=rng.uniform(-3.0, 0.5, num_classes),
        prior_scale=prior_scale,
    )


def _unfused_elbo_core(layer, batch, labels, n_train, rng, mc_passes):
    """The ELBO step as it was before the fused one, kept as a bit-exact oracle.

    Returns (mean NLL, (weight_mu, weight_rho, bias_mu, bias_rho) gradients).
    Every array is allocated afresh, sigma and sigmoid(rho) come from
    vbll.softplus and vbll.sigmoid, the noise is drawn and the logits formed
    as Flipout first did, and the KL chain runs once per parameter block.
    """
    b = batch.shape[0]
    rows = np.arange(b)
    k, d = layer.num_classes, layer.feature_dim
    sigma_w, sigma_b = softplus(layer.weight_rho), softplus(layer.bias_rho)

    nll = 0.0
    gw_mu, gw_rho = np.zeros((k, d)), np.zeros((k, d))
    gb_mu, gb_rho = np.zeros(k), np.zeros(k)
    for _ in range(mc_passes):
        eps_w = rng.standard_normal((k, d))
        eps_b = rng.standard_normal(k)
        sign_in = rng.integers(0, 2, size=(b, d)) * 2.0 - 1.0
        sign_out = rng.integers(0, 2, size=(b, k)) * 2.0 - 1.0
        flipped = batch * sign_in
        logits = (
            batch @ layer.weight_mu.T + layer.bias_mu
            + (flipped @ (sigma_w * eps_w).T + sigma_b * eps_b) * sign_out
        )
        logp = log_softmax(logits)
        nll += float(-logp[rows, labels].mean())
        g = np.exp(logp)
        g[rows, labels] -= 1.0
        g /= b
        gw_mu += g.T @ batch
        gb_mu += g.sum(axis=0)
        gr = g * sign_out
        gw_rho += (gr.T @ flipped) * eps_w
        gb_rho += gr.sum(axis=0) * eps_b

    s2 = layer.prior_scale**2
    inv_n = 1.0 / n_train
    for g_mu, g_rho, mu, rho, sigma in (
        (gw_mu, gw_rho, layer.weight_mu, layer.weight_rho, sigma_w),
        (gb_mu, gb_rho, layer.bias_mu, layer.bias_rho, sigma_b),
    ):
        g_mu /= mc_passes
        g_mu += mu / s2 * inv_n
        g_rho /= mc_passes
        g_rho += (sigma / s2 - 1.0 / sigma) * inv_n
        g_rho *= sigmoid(rho)
    return nll / mc_passes, (gw_mu, gw_rho, gb_mu, gb_rho)


def _unfused_adam_step(params, grads, m, v, step_index, config):
    """Adam as one allocating expression per line, kept as a bit-exact oracle."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads**2
    m_hat = m / (1.0 - b1**step_index)
    v_hat = v / (1.0 - b2**step_index)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestElboLoss:
    def test_uniform_prediction_gives_log_k(self):
        rng = np.random.default_rng(0)
        layer = tiny_sigma_layer(rng, 5, 3, zero_mu=True)
        batch = rng.standard_normal((8, 3))
        labels = rng.integers(0, 5, 8)
        out = elbo_loss(layer, batch, labels, n_train=100, rng=np.random.default_rng(1))
        assert out.nll == pytest.approx(math.log(5.0), abs=1e-9)

    def test_kl_term_vanishes_at_prior(self):
        rho = softplus_inverse(1.0)
        layer = VBLinearLayer(
            weight_mu=np.zeros((3, 2)),
            weight_rho=np.full((3, 2), rho),
            bias_mu=np.zeros(3),
            bias_rho=np.full(3, rho),
            prior_scale=1.0,
        )
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((4, 2))
        labels = rng.integers(0, 3, 4)
        out = elbo_loss(layer, batch, labels, n_train=10, rng=np.random.default_rng(2))
        assert abs(out.kl) <= 1e-12
        assert out.total == pytest.approx(out.nll, abs=1e-12)

    def test_total_is_nll_plus_scaled_kl(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            layer = random_layer(rng)
            batch = rng.standard_normal((6, 4))
            labels = rng.integers(0, 3, 6)
            n_train = int(rng.integers(6, 500))
            out = elbo_loss(layer, batch, labels, n_train, np.random.default_rng(9))
            assert out.total == pytest.approx(out.nll + out.kl / n_train, abs=1e-12)
            assert out.kl >= 0.0

    def test_same_stream_replays_identically(self):
        rng = np.random.default_rng(4)
        layer = random_layer(rng)
        batch = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, 5)
        a = elbo_loss(layer, batch, labels, 50, np.random.default_rng(11))
        b = elbo_loss(layer, batch, labels, 50, np.random.default_rng(11))
        assert a.nll == b.nll and a.total == b.total

    def test_multiple_mc_passes_change_the_estimate(self):
        rng = np.random.default_rng(6)
        layer = random_layer(rng)
        batch = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, 5)
        one = elbo_loss(layer, batch, labels, 50, np.random.default_rng(7), mc_passes=1)
        three = elbo_loss(layer, batch, labels, 50, np.random.default_rng(7), mc_passes=3)
        assert one.nll != three.nll
        assert one.kl == three.kl


class TestElboInputChecks:
    """elbo_loss and elbo_gradients check their inputs before the ELBO core;
    the batch checks run before the mc_passes check."""

    @pytest.mark.parametrize("objective", [elbo_loss, elbo_gradients])
    @pytest.mark.parametrize("labels,n_train,dim,mc_passes,message", [
        ([0, 1], 10, 4, 0, "mc_passes must be at least 1"),
        ([0, 3], 10, 4, 1, "labels must lie in [0, 3)"),
        ([0, 1], 1, 4, 1, "n_train must be at least the batch size"),
        ([0, 1], 10, 5, 1, "features must be N x 4, got shape (2, 5)"),
        ([0, 3], 10, 4, 0, "labels must lie in [0, 3)"),
        ([0, 1], 10, 5, 0, "features must be N x 4, got shape (2, 5)"),
        ([0, 1, 2], 10, 4, 1, "labels must be a vector with one entry per batch row"),
        ([0.0, 1.0], 10, 4, 1, "labels must be integers"),
    ], ids=["mc_passes", "label", "n_train", "dim", "label_and_mc", "dim_and_mc",
            "label_shape", "label_dtype"])
    def test_rejected_with_message(self, objective, labels, n_train, dim, mc_passes, message):
        rng = np.random.default_rng(8)
        layer = random_layer(rng)
        batch = rng.standard_normal((2, dim))
        with pytest.raises(ValueError) as info:
            objective(layer, batch, np.array(labels), n_train, rng, mc_passes=mc_passes)
        assert str(info.value) == message


class TestElboGradients:
    def test_uniform_single_sample_bias_gradient(self):
        # zero weights, near-zero sigma, one sample: d(total)/d(bias_mu) is
        # p - onehot(y) with p uniform, and the KL path adds nothing at mu=0
        rng = np.random.default_rng(10)
        layer = tiny_sigma_layer(rng, 5, 3, zero_mu=True)
        x = rng.standard_normal((1, 3))
        grads = elbo_gradients(layer, x, np.array([2]), 1, np.random.default_rng(3))
        expected = np.full(5, 0.2)
        expected[2] -= 1.0
        np.testing.assert_allclose(grads.bias_mu, expected, atol=1e-9)
        np.testing.assert_allclose(grads.weight_mu, np.outer(expected, x[0]), atol=1e-9)

    def test_kl_path_matches_closed_form(self):
        """Differencing two n_train values isolates grad(KL)/n_train exactly."""

        def softplus_ref(x):
            return np.logaddexp(0.0, x)

        def sigmoid_ref(x):
            return 1.0 / (1.0 + np.exp(-x))

        rng = np.random.default_rng(12)
        for _ in range(20):
            layer = random_layer(rng, 3, 4, prior_scale=float(rng.uniform(0.3, 2.5)))
            x = rng.standard_normal((1, 4))
            label = np.array([int(rng.integers(3))])
            seed = int(rng.integers(1 << 30))
            g1 = elbo_gradients(layer, x, label, 1, np.random.default_rng(seed))
            g2 = elbo_gradients(layer, x, label, 2, np.random.default_rng(seed))

            s = layer.prior_scale
            for name, mu, rho in (
                ("weight_mu", layer.weight_mu, layer.weight_rho),
                ("bias_mu", layer.bias_mu, layer.bias_rho),
            ):
                kl_grad = 2.0 * (getattr(g1, name) - getattr(g2, name))
                np.testing.assert_allclose(kl_grad, mu / s**2, atol=1e-10)
            for name, rho in (("weight_rho", layer.weight_rho), ("bias_rho", layer.bias_rho)):
                kl_grad = 2.0 * (getattr(g1, name) - getattr(g2, name))
                sigma = softplus_ref(rho)
                expected = (sigma / s**2 - 1.0 / sigma) * sigmoid_ref(rho)
                np.testing.assert_allclose(kl_grad, expected, atol=1e-10)


class TestGradcheck:
    def test_standard_instance_ten_seeds(self):
        for i in range(10):
            layer, batch, labels = gradcheck_instance(3, 4, 8, seed=1000 + i)
            start = time.perf_counter()
            err = gradcheck(layer, batch, labels, n_train=8, h=1e-5, seed=i)
            elapsed = time.perf_counter() - start
            assert err <= 1e-4, f"seed {i}: max relative error {err}"
            assert elapsed < 1.0

    def test_degenerate_sigma_layer(self):
        rng = np.random.default_rng(77)
        layer = tiny_sigma_layer(rng, 3, 4)
        batch = rng.standard_normal((8, 4))
        labels = rng.integers(0, 3, 8)
        assert gradcheck(layer, batch, labels, 8, h=1e-5, seed=3) <= 1e-4

    def test_multiple_mc_passes(self):
        layer, batch, labels = gradcheck_instance(3, 4, 8, seed=55)
        assert gradcheck(layer, batch, labels, 8, h=1e-5, seed=4, mc_passes=2) <= 1e-4

    def test_deterministic_per_seed(self):
        layer, batch, labels = gradcheck_instance(2, 3, 4, seed=21)
        a = gradcheck(layer, batch, labels, 4, seed=9)
        b = gradcheck(layer, batch, labels, 4, seed=9)
        assert a == b


class TestAdam:
    """adam_step updates the flat params and both moment vectors in place."""

    def _config(self, lr=0.01):
        return TrainConfig(learning_rate=lr)

    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        m, v = np.zeros(3), np.zeros(3)
        adam_step(params, np.zeros(3), m, v, 1, self._config())
        np.testing.assert_array_equal(params, before)
        np.testing.assert_array_equal(m, np.zeros(3))
        np.testing.assert_array_equal(v, np.zeros(3))

    def test_constant_gradient_step_approaches_lr(self):
        params, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        grads = np.array([2.5])
        config = self._config(lr=0.01)
        prev = params.copy()
        for t in range(1, 10**4 + 1):
            adam_step(params, grads, m, v, t, config)
            if t == 10**4:
                step = abs(params[0] - prev[0])
            prev = params.copy()
        assert step == pytest.approx(0.01, rel=0.01)

    def test_bias_correction_first_step(self):
        # with bias correction the very first step has magnitude ~lr
        params, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        adam_step(params, np.array([0.3]), m, v, 1, self._config(lr=0.05))
        assert abs(params[0]) == pytest.approx(0.05, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        start = rng.standard_normal(5)
        grads = rng.standard_normal(5)

        def run():
            p, m, v = start.copy(), np.zeros(5), np.zeros(5)
            for t in range(1, 20):
                adam_step(p, grads, m, v, t, self._config())
            return p

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(3), m, v, 1, self._config())
        np.testing.assert_array_equal(params, np.zeros(2))


@st.composite
def elbo_problems(draw):
    """A layer, two batches (the second no larger) and the ELBO settings.

    rho spans both sides of 0, so sigmoid's x >= 0 branch runs, and reaches
    -40, where sigma and sigmoid(rho) are tiny; mu may be -0.0.
    """
    k = draw(st.integers(2, 6))
    d = draw(st.integers(1, 6))
    b = draw(st.integers(1, 9))
    last = draw(st.integers(1, b))
    values = st.floats(-3.0, 3.0)
    rhos = st.floats(-40.0, 4.0)
    layer = VBLinearLayer(
        weight_mu=draw(arrays(np.float64, (k, d), elements=values)),
        weight_rho=draw(arrays(np.float64, (k, d), elements=rhos)),
        bias_mu=draw(arrays(np.float64, k, elements=values)),
        bias_rho=draw(arrays(np.float64, k, elements=rhos)),
        prior_scale=draw(st.sampled_from([1.0, 0.3, 2.5]) | st.floats(0.1, 10.0)),
    )
    batches = [
        (draw(arrays(np.float64, (n, d), elements=values)),
         draw(arrays(np.int64, n, elements=st.integers(0, k - 1))))
        for n in (b, last)
    ]
    n_train = draw(st.integers(b, b + 1000))
    mc_passes = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return layer, batches, n_train, mc_passes, seed


class TestFusedStepBitExact:
    """The fused step and in-place Adam give the unfused oracles' bytes."""

    @settings(max_examples=300, deadline=None)
    @given(problem=elbo_problems())
    def test_core_matches_unfused(self, problem):
        layer, batches, n_train, mc_passes, seed = problem
        k, d = layer.num_classes, layer.feature_dim
        params = training._flatten(layer)
        step_layer = VBLinearLayer(*training._blocks(params, k, d), layer.prior_scale)
        work = training._StepBuffers(k, d)
        noise = np.empty((mc_passes, k * (d + 1)))
        # One set of buffers serves a full batch and then a shorter last one,
        # as in train.
        for i, (batch, labels) in enumerate(batches):
            bundles = training._draw_noise(
                step_layer, batch.shape[0], np.random.default_rng([seed, i]), noise,
                flipout_noise,
            )
            nll, grads = training._elbo_core(
                step_layer, params, batch, labels, n_train, bundles, work
            )
            ref_nll, ref_grads = _unfused_elbo_core(
                layer, batch, labels, n_train, np.random.default_rng([seed, i]), mc_passes
            )
            assert type(nll) is float
            assert np.float64(nll).tobytes() == np.float64(ref_nll).tobytes()
            expected = np.empty_like(grads)
            for view, ref in zip(training._blocks(expected, k, d), ref_grads):
                view[...] = ref
            assert grads.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(problem=elbo_problems())
    def test_public_objectives_match_unfused(self, problem):
        layer, ((batch, labels), _), n_train, mc_passes, seed = problem
        loss = elbo_loss(layer, batch, labels, n_train, np.random.default_rng(seed), mc_passes)
        grads = elbo_gradients(
            layer, batch, labels, n_train, np.random.default_rng(seed), mc_passes
        )
        ref_nll, ref_grads = _unfused_elbo_core(
            layer, batch, labels, n_train, np.random.default_rng(seed), mc_passes
        )
        assert np.float64(loss.nll).tobytes() == np.float64(ref_nll).tobytes()
        for got, ref in zip(
            (grads.weight_mu, grads.weight_rho, grads.bias_mu, grads.bias_rho), ref_grads
        ):
            assert got.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        step=st.integers(1, 5000),
        beta1=st.floats(0.0, 0.999),
        beta2=st.floats(0.0, 0.9999),
        lr=st.floats(1e-5, 1.0),
        eps=st.floats(1e-12, 1e-2),
        seed=st.integers(0, 2**32 - 1),
        with_scratch=st.booleans(),
    )
    def test_adam_matches_unfused(self, n, step, beta1, beta2, lr, eps, seed, with_scratch):
        config = TrainConfig(
            learning_rate=lr, adam_beta1=beta1, adam_beta2=beta2, adam_epsilon=eps
        )
        rng = np.random.default_rng(seed)
        params, grads = rng.standard_normal(n), rng.standard_normal(n)
        m, v = 0.1 * rng.standard_normal(n), rng.random(n)
        ref = [a.copy() for a in (params, m, v)]
        scratch = np.empty((2, n)) if with_scratch else None
        adam_step(params, grads, m, v, step, config, scratch)
        _unfused_adam_step(ref[0], grads, ref[1], ref[2], step, config)
        for got, want in zip((params, m, v), ref):
            assert got.tobytes() == want.tobytes()


def _replace_gradcheck(layer, batch, labels, n_train, h, seed, mc_passes=1):
    """gradcheck as a loop that builds a new, validated layer per shifted entry.

    Each array is copied, one entry shifted by +h or -h, and put back with
    dataclasses.replace; the loss comes from elbo_loss on a fresh stream
    seeded with `seed`, so every evaluation replays the same noise.
    """
    def loss_at(candidate):
        rng = np.random.default_rng(seed)
        return elbo_loss(candidate, batch, labels, n_train, rng, mc_passes).total

    analytic = elbo_gradients(
        layer, batch, labels, n_train, np.random.default_rng(seed), mc_passes
    )
    worst = 0.0
    for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
        base, grad = getattr(layer, name), getattr(analytic, name).ravel()
        for i in range(base.size):
            shifted = {}
            for sign in (1.0, -1.0):
                arr = base.copy()
                arr.ravel()[i] += sign * h
                shifted[sign] = loss_at(dataclasses.replace(layer, **{name: arr}))
            diff = (shifted[1.0] - shifted[-1.0]) / (2.0 * h)
            rel = abs(grad[i] - diff) / max(1e-8, abs(grad[i]) + abs(diff))
            worst = np.maximum(worst, rel)
    return float(worst)


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (
        math.isnan(a) and math.isnan(b)
    )


class TestGradcheckInPlaceBitExact:
    """Shifting the flat vector in place gives the rebuild-per-entry loop's float."""

    @pytest.mark.parametrize(
        "shape, instance_seed, kwargs",
        [((3, 4, 8), s, {"seed": s}) for s in range(10)]
        + [
            ((3, 4, 8), 55, {"seed": 4, "mc_passes": 2}),
            ((2, 3, 4), 21, {"seed": 9}),
            ((3, 4, 8), 0, {"seed": 0, "h": 1e300}),
            ((3, 4, 8), 0, {"seed": 0, "h": 1.0}),
        ],
    )
    def test_small_cases(self, shape, instance_seed, kwargs):
        layer, batch, labels = gradcheck_instance(*shape, seed=instance_seed)
        n_train = shape[2]
        kwargs = {"h": 1e-5, "mc_passes": 1, **kwargs}
        with np.errstate(all="ignore"):
            got = gradcheck(layer, batch, labels, n_train, **kwargs)
            want = _replace_gradcheck(layer, batch, labels, n_train, **kwargs)
        assert _same_float(got, want), (got, want)

    @pytest.mark.parametrize(
        "seed, expected", [(0, 3.6295095910278835e-05), (1, 0.0002264650975412452)]
    )
    def test_larger_problem(self, seed, expected):
        layer, batch, labels = gradcheck_instance(10, 64, 128, seed=seed)
        got = gradcheck(layer, batch, labels, 128, h=1e-5, seed=seed)
        assert got == expected
        assert got == _replace_gradcheck(layer, batch, labels, 128, h=1e-5, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(problem=elbo_problems(), h=st.sampled_from([1e-5, 1e-3, 0.5]))
    def test_random_problems(self, problem, h):
        layer, ((batch, labels), _), n_train, mc_passes, seed = problem
        with np.errstate(all="ignore"):
            got = gradcheck(layer, batch, labels, n_train, h, seed, mc_passes)
            want = _replace_gradcheck(layer, batch, labels, n_train, h, seed, mc_passes)
        assert _same_float(got, want), (got, want)


def small_separable_splits(seed, per_class=30):
    cfg = SyntheticConfig(3, 4, (per_class,) * 3, class_separation=3.0, noise_scale=1.0)
    ds = generate_synthetic(cfg, seed=seed)
    val = generate_synthetic(cfg, seed=seed + 5000)
    return ds, val


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 30
        assert config.batch_size == 128
        assert config.learning_rate == pytest.approx(0.01)
        assert config.train_mc_samples == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(early_stop_patience=0)

    def test_layer_init_config_validation(self):
        with pytest.raises(ValueError):
            LayerInitConfig(prior_scale=0.0)

    @pytest.mark.parametrize("call,message", [
        (lambda: TrainConfig(adam_epsilon=0.0), "adam_epsilon must be positive"),
        (lambda: TrainConfig(seed=-1), "seed must be nonnegative"),
        (lambda: LayerInitConfig(mu_init_scale=-0.1), "mu_init_scale must be nonnegative"),
        (lambda: LayerInitConfig(seed=-1), "seed must be nonnegative"),
        (lambda: adam_step(*[np.zeros(3)] * 4, 0, TrainConfig()),
         "step_index must be at least 1"),
    ], ids=["adam_epsilon", "train_seed", "mu_init_scale", "init_seed", "adam_step_index"])
    def test_rejected_with_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestTrain:
    def test_loss_decreases_over_training(self):
        for seed in range(10):
            train_ds, val_ds = small_separable_splits(seed)
            config = TrainConfig(epochs=10, batch_size=16, seed=seed)
            _, trace = train(train_ds, val_ds, LayerInitConfig(seed=seed), config)
            assert len(trace) == 10
            assert trace[-1].total < trace[0].total

    def test_trace_identities(self):
        train_ds, val_ds = small_separable_splits(3)
        config = TrainConfig(epochs=5, batch_size=16, seed=1)
        _, trace = train(train_ds, val_ds, LayerInitConfig(seed=2), config)
        n = train_ds.n_samples
        for i, rec in enumerate(trace):
            assert rec.epoch == i + 1
            assert rec.total == pytest.approx(rec.nll + rec.kl / n, abs=1e-12)
            assert rec.kl >= 0.0
            assert 0.0 <= rec.val_acc <= 1.0

    def test_deterministic_end_to_end(self, tmp_path):
        from vbselect.vbll import save_layer

        train_ds, val_ds = small_separable_splits(7)
        config = TrainConfig(epochs=4, batch_size=16, seed=9)
        layer_a, trace_a = train(train_ds, val_ds, LayerInitConfig(seed=4), config)
        layer_b, trace_b = train(train_ds, val_ds, LayerInitConfig(seed=4), config)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_layer(layer_a, pa)
        save_layer(layer_b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert trace_a == trace_b

    def test_dimension_mismatch_rejected(self):
        train_ds, _ = small_separable_splits(1)
        bad_val = generate_synthetic(SyntheticConfig(3, 5, (6, 6, 6)), seed=2)
        with pytest.raises(ValueError, match="train/val feature dimension mismatch: 4 vs 5"):
            train(train_ds, bad_val, LayerInitConfig(), TrainConfig(epochs=1))

    def test_class_count_mismatch_rejected(self):
        train_ds, _ = small_separable_splits(1)
        bad_val = generate_synthetic(SyntheticConfig(4, 4, (6, 6, 6, 6)), seed=2)
        with pytest.raises(ValueError, match="train/val class count mismatch: 3 vs 4"):
            train(train_ds, bad_val, LayerInitConfig(), TrainConfig(epochs=1))

    def test_early_stopping_returns_best_layer(self):
        train_ds, val_ds = small_separable_splits(11, per_class=12)
        config = TrainConfig(
            epochs=60, batch_size=6, learning_rate=0.5, seed=13, early_stop_patience=3
        )
        layer, trace = train(train_ds, val_ds, LayerInitConfig(seed=6), config)
        assert len(trace) < 60  # stopped early
        best = min(rec.val_nll for rec in trace)
        logits = forward_mean(layer, val_ds.features)
        logp = log_softmax(logits)
        returned_nll = float(-logp[np.arange(val_ds.n_samples), val_ds.labels].mean())
        assert returned_nll == pytest.approx(best, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_parameters_raise(self):
        features = np.full((8, 8), 1.7e308)
        labels = np.arange(8) % 2
        ds = FeatureDataset(features, labels, 2)
        config = TrainConfig(epochs=3, batch_size=4, seed=0)
        with pytest.raises(NonFiniteError):
            train(ds, ds, LayerInitConfig(mu_init_scale=2.0, seed=1), config)

    def test_huge_prior_reduces_to_plain_logistic_regression(self):
        """With the KL neutralized, the trained head matches a deterministic
        softmax classifier trained with the same schedule."""
        train_ds, val_ds = small_separable_splits(17)
        epochs, batch_size, lr, seed = 12, 16, 0.05, 23
        config = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=lr, seed=seed)
        init = LayerInitConfig(mu_init_scale=0.1, rho_init=-40.0, prior_scale=1e6, seed=31)
        layer, _ = train(train_ds, val_ds, init, config)

        # reference: plain softmax regression, same init draws, same shuffles
        rng = np.random.default_rng(31)
        k, d = 3, 4
        w = rng.uniform(-0.1, 0.1, (k, d))
        b = rng.uniform(-0.1, 0.1, k)
        m = {"w": np.zeros_like(w), "b": np.zeros_like(b)}
        v = {"w": np.zeros_like(w), "b": np.zeros_like(b)}
        x_all, y_all = train_ds.features, train_ds.labels
        n = train_ds.n_samples
        t = 0
        for epoch in range(epochs):
            perm = np.random.default_rng([seed, 0, epoch]).permutation(n)
            for start in range(0, n, batch_size):
                sel = perm[start : start + batch_size]
                xb, yb = x_all[sel], y_all[sel]
                logits = xb @ w.T + b
                z = logits - logits.max(axis=1, keepdims=True)
                p = np.exp(z)
                p /= p.sum(axis=1, keepdims=True)
                g = p.copy()
                g[np.arange(len(sel)), yb] -= 1.0
                g /= len(sel)
                gw, gb = g.T @ xb, g.sum(axis=0)
                t += 1
                for key, param, grad in (("w", w, gw), ("b", b, gb)):
                    m[key] = 0.9 * m[key] + 0.1 * grad
                    v[key] = 0.999 * v[key] + 0.001 * grad**2
                    mhat = m[key] / (1 - 0.9**t)
                    vhat = v[key] / (1 - 0.999**t)
                    param -= lr * mhat / (np.sqrt(vhat) + 1e-8)

        def train_nll(logits):
            logp = log_softmax(logits)
            return float(-logp[np.arange(n), y_all].mean())

        nll_bayes = train_nll(forward_mean(layer, x_all))
        nll_plain = train_nll(x_all @ w.T + b)
        assert abs(nll_bayes - nll_plain) <= 0.05


def _reference_train(train_ds, val_ds, init_config, config):
    """The training loop as first written, kept as an oracle: a fresh layer
    per step, its NLL and gradient from the unfused ELBO step, and Adam over
    a dict of the four parameter arrays."""
    layer = init_layer(
        feature_dim=train_ds.feature_dim,
        num_classes=train_ds.num_classes,
        mu_init_scale=init_config.mu_init_scale,
        rho_init=init_config.rho_init,
        prior_scale=init_config.prior_scale,
        seed=init_config.seed,
    )
    names = ("weight_mu", "weight_rho", "bias_mu", "bias_rho")
    params = {name: getattr(layer, name) for name in names}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    prior_scale = init_config.prior_scale
    n_train = train_ds.n_samples
    val_rows = np.arange(val_ds.n_samples)
    records = []
    best_val_nll, best_params, since = np.inf, params, 0
    step = 0
    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 0, epoch]).permutation(n_train)
        nll_weighted_sum = 0.0
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            sel = perm[start : start + config.batch_size]
            batch = (train_ds.features[sel], train_ds.labels[sel], n_train)
            stream = [config.seed, 1, epoch, batch_index]
            mc = config.train_mc_samples
            layer = VBLinearLayer(prior_scale=prior_scale, **params)
            nll, grads = _unfused_elbo_core(layer, *batch, np.random.default_rng(stream), mc)
            nll_weighted_sum += nll * sel.size
            step += 1
            new_params = {}
            for name, grad in zip(names, grads):
                m[name] = b1 * m[name] + (1.0 - b1) * grad
                v[name] = b2 * v[name] + (1.0 - b2) * grad**2
                m_hat = m[name] / (1.0 - b1**step)
                v_hat = v[name] / (1.0 - b2**step)
                new_params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            params = new_params
        layer = VBLinearLayer(prior_scale=prior_scale, **params)
        epoch_nll = nll_weighted_sum / n_train
        kl = kl_to_prior(layer)
        logits = forward_mean(layer, val_ds.features)
        val_nll = float(-log_softmax(logits)[val_rows, val_ds.labels].mean())
        val_acc = float(np.mean(np.argmax(logits, axis=1) == val_ds.labels))
        records.append(
            EpochRecord(epoch + 1, epoch_nll + kl / n_train, epoch_nll, kl, val_nll, val_acc)
        )
        if config.early_stop_patience is not None:
            if val_nll < best_val_nll:
                best_val_nll, best_params, since = val_nll, params, 0
            else:
                since += 1
                if since >= config.early_stop_patience:
                    break
    final = best_params if config.early_stop_patience is not None else params
    return VBLinearLayer(prior_scale=prior_scale, **final), tuple(records)


class TestTrainMatchesReferenceLoop:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"train_mc_samples": 2},
            {"early_stop_patience": 3, "learning_rate": 0.5, "epochs": 40},
        ],
        ids=["plain", "two_mc_passes", "early_stop"],
    )
    def test_bit_identical_to_reference(self, overrides):
        cfg = SyntheticConfig(5, 16, (40, 30, 30, 20, 20), class_separation=2.0)
        train_ds = generate_synthetic(cfg, seed=3)
        val_ds = generate_synthetic(cfg, seed=4)
        init = LayerInitConfig(seed=5)
        config = TrainConfig(**{"epochs": 6, "batch_size": 32, "seed": 8, **overrides})
        layer, trace = train(train_ds, val_ds, init, config)
        ref_layer, ref_trace = _reference_train(train_ds, val_ds, init, config)
        for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
            assert getattr(layer, name).tobytes() == getattr(ref_layer, name).tobytes()
        assert trace == ref_trace
        if "early_stop_patience" in overrides:
            assert len(trace) < config.epochs


    def test_steps_run_unchecked(self):
        # train's datasets and config already hold every rule the batch check
        # enforces, so no step calls it, and the result is unchanged.
        cfg = SyntheticConfig(5, 16, (40, 30, 30, 20, 20), class_separation=2.0)
        train_ds = generate_synthetic(cfg, seed=3)
        val_ds = generate_synthetic(cfg, seed=4)
        init = LayerInitConfig(seed=5)
        config = TrainConfig(epochs=3, batch_size=32, seed=8, train_mc_samples=2)
        with mock.patch.object(
            training, "_validate_batch_inputs", side_effect=AssertionError("re-checked")
        ):
            layer, trace = train(train_ds, val_ds, init, config)
        ref_layer, ref_trace = _reference_train(train_ds, val_ds, init, config)
        for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
            assert getattr(layer, name).tobytes() == getattr(ref_layer, name).tobytes()
        assert trace == ref_trace


@pytest.fixture
def draw_ahead(monkeypatch):
    """Open the helper thread's gate for any step, and record each draw's thread.

    Yields {"helper": [...], "inline": [...]}: the thread of each
    vbll.flipout_noise call the helper makes and of each call through the
    name training binds. The interpreter switches threads every microsecond
    meanwhile, so a draw that overlapped the buffers its step reads would
    show.
    """
    if blas_info() is None:
        pytest.skip("the helper runs only under numpy's OpenBLAS pin")
    monkeypatch.setattr(training, "_DRAW_AHEAD_MIN_VALUES", 0)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    threads = {"helper": [], "inline": []}

    def recorded(fn, key):
        def draw(*args, **kwargs):
            threads[key].append(threading.current_thread())
            return fn(*args, **kwargs)
        return draw

    monkeypatch.setattr(vbll, "flipout_noise", recorded(vbll.flipout_noise, "helper"))
    monkeypatch.setattr(
        training, "flipout_noise", recorded(training.flipout_noise, "inline")
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield threads
    finally:
        sys.setswitchinterval(interval)


def helper_problem(**overrides):
    """140 rows in batches of 32, so each epoch ends on a 12-row batch."""
    cfg = SyntheticConfig(5, 16, (40, 30, 30, 20, 20), class_separation=2.0)
    train_ds = generate_synthetic(cfg, seed=3)
    val_ds = generate_synthetic(cfg, seed=4)
    config = TrainConfig(**{"epochs": 6, "batch_size": 32, "seed": 8, **overrides})
    return train_ds, val_ds, LayerInitConfig(seed=5), config


class TestDrawAhead:
    """Noise drawn one step ahead on a helper thread changes no bit."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"train_mc_samples": 2},
            # Stops after an epoch whose successor's first draw is in flight.
            {"early_stop_patience": 3, "learning_rate": 0.5, "epochs": 40},
        ],
        ids=["plain", "two_mc_passes", "early_stop"],
    )
    def test_bit_identical_to_inline(self, draw_ahead, overrides):
        train_ds, val_ds, init, config = helper_problem(**overrides)
        layer, trace = train(train_ds, val_ds, init, config)
        helper_draws = len(draw_ahead["helper"])
        assert draw_ahead["inline"] == []
        assert threading.main_thread() not in draw_ahead["helper"]
        steps = len(trace) * 5 * config.train_mc_samples
        if "early_stop_patience" in overrides:
            assert len(trace) < config.epochs
            assert helper_draws == steps + config.train_mc_samples
        else:
            assert helper_draws == steps

        with mock.patch.object(training, "_DRAW_AHEAD_MIN_VALUES", math.inf):
            inline_layer, inline_trace = train(train_ds, val_ds, init, config)
        assert len(draw_ahead["helper"]) == helper_draws
        assert set(draw_ahead["inline"]) == {threading.main_thread()}
        for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
            assert getattr(layer, name).tobytes() == getattr(inline_layer, name).tobytes()
        assert trace == inline_trace

    def test_small_head_draws_inline(self, monkeypatch):
        # 5 x 16 at B = 32: 32 * 21 + 5 * 17 = 757 values a step.
        monkeypatch.setattr(training, "usable_cpus", lambda: 2)
        with mock.patch.object(
            vbll, "flipout_noise", side_effect=AssertionError("drawn on the helper")
        ):
            train(*helper_problem(epochs=2))

    @pytest.mark.parametrize("failure", ["none", "non_finite", "interrupt", "draw"])
    def test_threads_and_blas_count_come_back(self, draw_ahead, monkeypatch, failure):
        train_ds, val_ds, init, config = helper_problem()
        adam, draw = training.adam_step, vbll.flipout_noise
        pinned = []

        def step(params, grads, m, v, step_index, *args):
            pinned.append(blas_info()[2])
            adam(params, grads, m, v, step_index, *args)
            if step_index == 3 and failure == "non_finite":
                params[0] = np.nan
            if step_index == 3 and failure == "interrupt":
                raise KeyboardInterrupt

        def failing_draw(*args, **kwargs):
            if len(draw_ahead["helper"]) == 4:
                raise MemoryError("no room for the noise")
            return draw(*args, **kwargs)

        monkeypatch.setattr(training, "adam_step", step)
        if failure == "draw":
            monkeypatch.setattr(vbll, "flipout_noise", failing_draw)
        expected = {
            "none": None, "non_finite": NonFiniteError,
            "interrupt": KeyboardInterrupt, "draw": MemoryError,
        }[failure]
        threads, blas_threads = threading.active_count(), blas_info()[2]
        with pytest.raises(expected) if expected else contextlib.nullcontext():
            train(train_ds, val_ds, init, config)
        assert threading.active_count() == threads
        assert blas_info()[2] == blas_threads
        assert pinned and set(pinned) == {1}


class TestTraceCsv:
    def test_csv_layout_and_round_trip(self, tmp_path):
        train_ds, val_ds = small_separable_splits(2, per_class=12)
        config = TrainConfig(epochs=3, batch_size=8, seed=5)
        _, trace = train(train_ds, val_ds, LayerInitConfig(seed=1), config)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,total,nll,kl,val_nll,val_acc"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == trace[0].total
        assert float(first[4]) == trace[0].val_nll

