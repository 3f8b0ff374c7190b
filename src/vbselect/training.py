"""Negative-ELBO objective, analytic gradients, Adam, and the training loop.

The objective for a minibatch is mean cross-entropy through a Flipout forward
pass plus kl_to_prior(layer) / n_train, so that summed over one epoch the KL
is counted once per dataset. Loss and gradient evaluation consume identical
noise when given identically seeded streams; gradcheck leans on that replay
contract to compare analytic gradients with central finite differences.

Training holds the posterior as one flat float64 vector laid out as
weight_mu, weight_rho, bias_mu, bias_rho; `_blocks` gives the four arrays as
views into it. The gradient is a vector of the same layout, and Adam updates
the parameters and its two moment vectors in place with one vectorised
expression per step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .atomic import write_lines
from .vbll import (
    VBLinearLayer,
    check_features,
    flipout_logits,
    flipout_noise,
    forward_mean,
    init_layer,
    kl_to_prior,
    log_softmax,
    sigmoid,
    softplus,
)


class NonFiniteError(RuntimeError):
    """Raised when training produces a non-finite parameter or loss."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    train_mc_samples: int = 1
    seed: int = 0
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.adam_epsilon > 0:
            raise ValueError("adam_epsilon must be positive")
        if self.train_mc_samples < 1:
            raise ValueError("train_mc_samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1 when set")


@dataclass(frozen=True)
class LayerInitConfig:
    mu_init_scale: float = 0.1
    rho_init: float = -5.0
    prior_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mu_init_scale < 0:
            raise ValueError("mu_init_scale must be nonnegative")
        if not self.prior_scale > 0:
            raise ValueError("prior_scale must be positive")
        # The KL term squares it; a Python float's ** raises OverflowError.
        if not math.isfinite(self.prior_scale * self.prior_scale):
            raise ValueError(f"prior_scale must have a finite square, got {self.prior_scale}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    nll: float
    kl: float
    total: float


@dataclass(frozen=True)
class Gradients:
    weight_mu: np.ndarray
    weight_rho: np.ndarray
    bias_mu: np.ndarray
    bias_rho: np.ndarray


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    total: float
    nll: float
    kl: float
    val_nll: float
    val_acc: float


def _blocks(flat, num_classes, feature_dim):
    """(weight_mu, weight_rho, bias_mu, bias_rho) as reshaped views of flat."""
    kd = num_classes * feature_dim
    return (
        flat[:kd].reshape(num_classes, feature_dim),
        flat[kd : 2 * kd].reshape(num_classes, feature_dim),
        flat[2 * kd : 2 * kd + num_classes],
        flat[2 * kd + num_classes :],
    )


def _validate_batch_inputs(layer, batch, labels, n_train, mc_passes):
    batch = check_features(layer, batch)
    labels = np.asarray(labels)
    if labels.shape != (batch.shape[0],):
        raise ValueError("labels must be a vector with one entry per batch row")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.min() < 0 or labels.max() >= layer.num_classes:
        raise ValueError(f"labels must lie in [0, {layer.num_classes})")
    if n_train < batch.shape[0]:
        raise ValueError("n_train must be at least the batch size")
    if mc_passes < 1:
        raise ValueError("mc_passes must be at least 1")
    return batch, labels.astype(np.int64)


def _elbo_core(layer, batch, labels, n_train, rng, mc_passes):
    """(mean NLL, flat gradient of the negative ELBO): the one loss-and-gradient path.

    It checks nothing: elbo_loss and elbo_gradients check their inputs first
    (`_validate_batch_inputs`) and train's datasets and config hold the same
    rules. sigma = softplus(rho) and each pass's batch * sign_in are formed
    once and shared by the logits, the rho gradient and the KL chain.
    """
    b = batch.shape[0]
    rows = np.arange(b)
    k, d = layer.num_classes, layer.feature_dim
    sigma_w, sigma_b = softplus(layer.weight_rho), softplus(layer.bias_rho)

    nll = 0.0
    grads = np.zeros(2 * k * (d + 1))
    gw_mu, gw_rho, gb_mu, gb_rho = _blocks(grads, k, d)
    for _ in range(mc_passes):
        eps_w, eps_b, sign_in, sign_out = flipout_noise(layer, b, rng)
        flipped = batch * sign_in
        logp = log_softmax(
            flipout_logits(layer, batch, flipped, sigma_w * eps_w, sigma_b * eps_b, sign_out)
        )
        nll += float(-logp[rows, labels].mean())
        g = np.exp(logp)
        g[rows, labels] -= 1.0
        g /= b
        gw_mu += g.T @ batch
        gb_mu += g.sum(axis=0)
        gr = g * sign_out
        gw_rho += (gr.T @ flipped) * eps_w
        gb_rho += gr.sum(axis=0) * eps_b

    # Until here the rho blocks hold the pass-summed d(NLL)/d(sigma); add the
    # KL path, then chain through sigma = softplus(rho).
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
    return nll / mc_passes, grads


def elbo_loss(layer, batch, labels, n_train, rng, mc_passes=1) -> LossBreakdown:
    """Negative ELBO for one minibatch: mean Flipout cross-entropy + KL/n_train."""
    batch, labels = _validate_batch_inputs(layer, batch, labels, n_train, mc_passes)
    nll, _ = _elbo_core(layer, batch, labels, n_train, rng, mc_passes)
    kl = kl_to_prior(layer)
    return LossBreakdown(nll=nll, kl=kl, total=nll + kl / n_train)


def elbo_gradients(layer, batch, labels, n_train, rng, mc_passes=1) -> Gradients:
    """Analytic gradient of elbo_loss at the noise the stream produces.

    A stream seeded identically to an elbo_loss call yields the gradient of
    exactly that loss value.
    """
    batch, labels = _validate_batch_inputs(layer, batch, labels, n_train, mc_passes)
    _, grads = _elbo_core(layer, batch, labels, n_train, rng, mc_passes)
    return Gradients(*_blocks(grads, layer.num_classes, layer.feature_dim))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step_index: int,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update of the flat params, m and v, in place."""
    if step_index < 1:
        raise ValueError("step_index must be at least 1")
    if not params.shape == grads.shape == m.shape == v.shape:
        raise ValueError("params, grads, m and v must share one shape")
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads**2
    m_hat = m / (1.0 - b1**step_index)
    v_hat = v / (1.0 - b2**step_index)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _dataset_nll_acc(layer, features, labels):
    logits = forward_mean(layer, features)
    logp = log_softmax(logits)
    nll = float(-logp[np.arange(len(labels)), labels].mean())
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    return nll, acc


def train(train_ds, val_ds, init_config: LayerInitConfig, config: TrainConfig):
    """Minibatch Adam on the negative ELBO; returns (layer, trace).

    The parameters live in one flat buffer (see `_blocks`). One layer on
    views of it serves every step's forward and backward pass, and sees each
    in-place Adam update. The KL enters each step's gradient in closed
    form; its value is computed once per epoch, for the trace. Every layer
    kept past its epoch holds a copy of the buffer, never a live view.

    Determinism contract: the epoch shuffle comes from a stream seeded with
    [config.seed, 0, epoch] and the Flipout noise of each batch from
    [config.seed, 1, epoch, batch_index], so reruns are bit-identical and
    batches could in principle be evaluated in parallel.

    Each step runs `_elbo_core` on its slice unchecked: FeatureDataset,
    TrainConfig and the train/val checks below already hold every rule that
    elbo_loss checks.

    With early_stop_patience set, training stops after that many epochs
    without a validation-NLL improvement and the best-validation-NLL
    parameters are returned; otherwise the final parameters are.
    """
    if train_ds.feature_dim != val_ds.feature_dim:
        raise ValueError(
            f"train/val feature dimension mismatch: "
            f"{train_ds.feature_dim} vs {val_ds.feature_dim}"
        )
    if train_ds.num_classes != val_ds.num_classes:
        raise ValueError(
            f"train/val class count mismatch: "
            f"{train_ds.num_classes} vs {val_ds.num_classes}"
        )
    k, d = train_ds.num_classes, train_ds.feature_dim
    layer = init_layer(d, k, **asdict(init_config))
    params = np.concatenate(
        [layer.weight_mu.ravel(), layer.weight_rho.ravel(), layer.bias_mu, layer.bias_rho]
    )
    m, v = np.zeros_like(params), np.zeros_like(params)
    n_train = train_ds.n_samples
    prior_scale = init_config.prior_scale

    records = []
    best_val_nll = np.inf
    best_layer = layer
    epochs_since_improvement = 0
    step = 0
    step_layer = VBLinearLayer(*_blocks(params, k, d), prior_scale)

    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 0, epoch]).permutation(n_train)
        nll_weighted_sum = 0.0
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            sel = perm[start : start + config.batch_size]
            noise_rng = np.random.default_rng([config.seed, 1, epoch, batch_index])
            nll, grads = _elbo_core(
                step_layer, train_ds.features[sel], train_ds.labels[sel], n_train,
                noise_rng, config.train_mc_samples,
            )
            nll_weighted_sum += nll * sel.size
            step += 1
            adam_step(params, grads, m, v, step, config)
            if not np.all(np.isfinite(params)):
                raise NonFiniteError(
                    f"non-finite parameter after step {step} (epoch {epoch + 1})"
                )

        layer = VBLinearLayer(*_blocks(params.copy(), k, d), prior_scale)
        epoch_nll = nll_weighted_sum / n_train
        kl = kl_to_prior(layer)
        val_nll, val_acc = _dataset_nll_acc(layer, val_ds.features, val_ds.labels)
        record = EpochRecord(
            epoch=epoch + 1,
            total=epoch_nll + kl / n_train,
            nll=epoch_nll,
            kl=kl,
            val_nll=val_nll,
            val_acc=val_acc,
        )
        for value in (record.total, record.nll, record.kl, record.val_nll):
            if not np.isfinite(value):
                raise NonFiniteError(f"non-finite loss at epoch {epoch + 1}")
        records.append(record)

        if config.early_stop_patience is not None:
            if val_nll < best_val_nll:
                best_val_nll = val_nll
                best_layer = layer
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement >= config.early_stop_patience:
                    break

    return (best_layer if config.early_stop_patience is not None else layer), tuple(records)


def gradcheck_instance(num_classes, feature_dim, batch_size, seed):
    """A reproducible small problem (layer, batch, labels) for gradient checks."""
    rng = np.random.default_rng([seed, 0])
    layer = VBLinearLayer(
        weight_mu=0.8 * rng.standard_normal((num_classes, feature_dim)),
        weight_rho=rng.uniform(-3.0, 0.5, (num_classes, feature_dim)),
        bias_mu=0.8 * rng.standard_normal(num_classes),
        bias_rho=rng.uniform(-3.0, 0.5, num_classes),
        prior_scale=1.0,
    )
    batch = rng.standard_normal((batch_size, feature_dim))
    labels = rng.integers(0, num_classes, batch_size)
    return layer, batch, labels


def gradcheck(layer, batch, labels, n_train, h=1e-5, seed=0, mc_passes=1) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every loss evaluation replays the same noise (a fresh stream seeded with
    `seed`), so the comparison is exact up to the O(h^2) difference error
    and the difference's round-off, about eps * |loss| / h. The relative
    error uses |a - d| / max(1e-8, |a| + |d|), so an entry whose gradient is
    near that round-off scale can exceed 1e-4 although the analytic value is
    right. Larger problems have more such entries: at K=10, D=64, B=128,
    seed 0 gives 3.6e-5 but seed 1 gives 2.3e-4, from a weight_rho entry of
    1.5163e-7 whose difference quotient is 1.5170e-7.
    """
    if not (np.isfinite(h) and h != 0):
        raise ValueError(f"h must be finite and nonzero, got {h!r}")
    analytic = elbo_gradients(
        layer, batch, labels, n_train, np.random.default_rng(seed), mc_passes
    )

    def loss_at(candidate):
        return elbo_loss(
            candidate, batch, labels, n_train, np.random.default_rng(seed), mc_passes
        ).total

    worst = 0.0
    for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
        base = getattr(layer, name)
        grad = getattr(analytic, name).ravel()
        for i in range(base.size):
            shifted = {}
            for sign in (1.0, -1.0):
                arr = base.copy()
                arr.ravel()[i] += sign * h
                shifted[sign] = loss_at(replace(layer, **{name: arr}))
            diff = (shifted[1.0] - shifted[-1.0]) / (2.0 * h)
            rel = abs(grad[i] - diff) / max(1e-8, abs(grad[i]) + abs(diff))
            worst = np.maximum(worst, rel)  # unlike max(), keeps a NaN
    return float(worst)


def save_trace_csv(trace, path) -> None:
    """Trace CSV: epoch,total,nll,kl,val_nll,val_acc with full-precision floats."""
    lines = ["epoch,total,nll,kl,val_nll,val_acc"]
    for rec in trace:
        lines.append(
            f"{rec.epoch},{rec.total!r},{rec.nll!r},{rec.kl!r},{rec.val_nll!r},{rec.val_acc!r}"
        )
    write_lines(path, lines)
