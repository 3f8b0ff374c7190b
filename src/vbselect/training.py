"""Negative-ELBO objective, analytic gradients, Adam, and the training loop.

The objective for a minibatch is mean cross-entropy through a Flipout forward
pass plus kl_to_prior(layer) / n_train, so that summed over one epoch the KL
is counted once per dataset. Loss and gradient evaluation consume identical
noise when given identically seeded streams; gradcheck leans on that replay
contract to compare analytic gradients with central finite differences.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .vbll import (
    VBLinearLayer,
    flipout_logits,
    flipout_noise,
    forward_mean,
    init_layer,
    kl_to_prior,
    log_softmax,
    sigmoid,
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
    kl_scale_mode: str = "per_dataset"
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
        if self.kl_scale_mode != "per_dataset":
            raise ValueError(f"unsupported kl_scale_mode {self.kl_scale_mode!r}")
        if self.train_mc_samples < 1:
            raise ValueError("train_mc_samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1 when set")

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown training config keys: {sorted(unknown)}")
        return cls(**values)


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def from_dict(cls, values: dict) -> "LayerInitConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown layer init keys: {sorted(unknown)}")
        return cls(**values)


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


def _validate_batch_inputs(layer, batch, labels, n_train):
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    if batch.ndim != 2 or batch.shape[1] != layer.feature_dim:
        raise ValueError(f"batch must be B x {layer.feature_dim}")
    if labels.shape != (batch.shape[0],):
        raise ValueError("labels must be a vector with one entry per batch row")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= layer.num_classes):
        raise ValueError(f"labels must lie in [0, {layer.num_classes})")
    if n_train < batch.shape[0]:
        raise ValueError("n_train must be at least the batch size")
    return batch, labels.astype(np.int64)


def _elbo_core(layer, batch, labels, n_train, rng, mc_passes, want_grads):
    """Shared loss/gradient path; both callers consume the stream identically."""
    batch, labels = _validate_batch_inputs(layer, batch, labels, n_train)
    if mc_passes < 1:
        raise ValueError("mc_passes must be at least 1")
    b = batch.shape[0]
    rows = np.arange(b)

    nll = 0.0
    if want_grads:
        gw_mu = np.zeros_like(layer.weight_mu)
        gw_sigma = np.zeros_like(layer.weight_mu)
        gb_mu = np.zeros_like(layer.bias_mu)
        gb_sigma = np.zeros_like(layer.bias_mu)

    for _ in range(mc_passes):
        noise = flipout_noise(layer, b, rng)
        logits = flipout_logits(layer, batch, noise)
        logp = log_softmax(logits)
        nll += float(-logp[rows, labels].mean())
        if want_grads:
            eps_w, eps_b, sign_in, sign_out = noise
            g = np.exp(logp)
            g[rows, labels] -= 1.0
            g /= b
            gw_mu += g.T @ batch
            gb_mu += g.sum(axis=0)
            gr = g * sign_out
            gw_sigma += (gr.T @ (batch * sign_in)) * eps_w
            gb_sigma += gr.sum(axis=0) * eps_b

    nll /= mc_passes
    kl = kl_to_prior(layer)
    loss = LossBreakdown(nll=nll, kl=kl, total=nll + kl / n_train)
    if not want_grads:
        return loss, None

    s2 = layer.prior_scale**2
    inv_n = 1.0 / n_train
    w_sigma, b_sigma = layer.weight_sigma, layer.bias_sigma
    grads = Gradients(
        weight_mu=gw_mu / mc_passes + layer.weight_mu / s2 * inv_n,
        weight_rho=(gw_sigma / mc_passes + (w_sigma / s2 - 1.0 / w_sigma) * inv_n)
        * sigmoid(layer.weight_rho),
        bias_mu=gb_mu / mc_passes + layer.bias_mu / s2 * inv_n,
        bias_rho=(gb_sigma / mc_passes + (b_sigma / s2 - 1.0 / b_sigma) * inv_n)
        * sigmoid(layer.bias_rho),
    )
    return loss, grads


def elbo_loss(layer, batch, labels, n_train, rng, mc_passes=1) -> LossBreakdown:
    """Negative ELBO for one minibatch: mean Flipout cross-entropy + KL/n_train."""
    loss, _ = _elbo_core(layer, batch, labels, n_train, rng, mc_passes, want_grads=False)
    return loss


def elbo_gradients(layer, batch, labels, n_train, rng, mc_passes=1) -> Gradients:
    """Analytic gradient of elbo_loss at the noise the stream produces.

    A stream seeded identically to an elbo_loss call yields the gradient of
    exactly that loss value.
    """
    _, grads = _elbo_core(layer, batch, labels, n_train, rng, mc_passes, want_grads=True)
    return grads


@dataclass(frozen=True)
class AdamState:
    m: dict
    v: dict


def adam_init(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState, step_index: int, config: TrainConfig):
    """One bias-corrected Adam update; returns new params and state."""
    if step_index < 1:
        raise ValueError("step_index must be at least 1")
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ValueError("params, grads, and state must share the same keys")
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    new_params, new_m, new_v = {}, {}, {}
    for key, param in params.items():
        grad = np.asarray(grads[key], dtype=np.float64)
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {key!r}")
        m = b1 * state.m[key] + (1.0 - b1) * grad
        v = b2 * state.v[key] + (1.0 - b2) * grad**2
        m_hat = m / (1.0 - b1**step_index)
        v_hat = v / (1.0 - b2**step_index)
        new_params[key] = param - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[key], new_v[key] = m, v
    return new_params, AdamState(m=new_m, v=new_v)


def _layer_params(layer: VBLinearLayer) -> dict:
    return {
        "weight_mu": layer.weight_mu,
        "weight_rho": layer.weight_rho,
        "bias_mu": layer.bias_mu,
        "bias_rho": layer.bias_rho,
    }


def _layer_from_params(params: dict, prior_scale: float) -> VBLinearLayer:
    return VBLinearLayer(prior_scale=prior_scale, **params)


def _dataset_nll_acc(layer, features, labels):
    logits = forward_mean(layer, features)
    logp = log_softmax(logits)
    nll = float(-logp[np.arange(len(labels)), labels].mean())
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    return nll, acc


def train(train_ds, val_ds, init_config: LayerInitConfig, config: TrainConfig):
    """Minibatch Adam on the negative ELBO; returns (layer, trace).

    Determinism contract: the epoch shuffle comes from a stream seeded with
    [config.seed, 0, epoch] and the Flipout noise of each batch from
    [config.seed, 1, epoch, batch_index], so reruns are bit-identical and
    batches could in principle be evaluated in parallel.

    With early_stop_patience set, training stops after that many epochs
    without a validation-NLL improvement and the best-validation-NLL
    parameters are returned; otherwise the final parameters are.
    """
    if train_ds.feature_dim != val_ds.feature_dim or train_ds.num_classes != val_ds.num_classes:
        raise ValueError("train and validation datasets must share D and K")
    layer = init_layer(
        feature_dim=train_ds.feature_dim,
        num_classes=train_ds.num_classes,
        mu_init_scale=init_config.mu_init_scale,
        rho_init=init_config.rho_init,
        prior_scale=init_config.prior_scale,
        seed=init_config.seed,
    )
    params = _layer_params(layer)
    state = adam_init(params)
    n_train = train_ds.n_samples
    prior_scale = init_config.prior_scale

    records = []
    best_val_nll = np.inf
    best_params = params
    epochs_since_improvement = 0
    step = 0

    for epoch in range(config.epochs):
        perm = np.random.default_rng([config.seed, 0, epoch]).permutation(n_train)
        nll_weighted_sum = 0.0
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            sel = perm[start : start + config.batch_size]
            noise_rng = np.random.default_rng([config.seed, 1, epoch, batch_index])
            layer = _layer_from_params(params, prior_scale)
            loss, grads = _elbo_core(
                layer,
                train_ds.features[sel],
                train_ds.labels[sel],
                n_train,
                noise_rng,
                config.train_mc_samples,
                want_grads=True,
            )
            nll_weighted_sum += loss.nll * sel.size
            step += 1
            params, state = adam_step(
                params, dataclasses.asdict(grads), state, step, config
            )
            for arr in params.values():
                if not np.all(np.isfinite(arr)):
                    raise NonFiniteError(
                        f"non-finite parameter after step {step} (epoch {epoch + 1})"
                    )

        layer = _layer_from_params(params, prior_scale)
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
                best_params = params
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement >= config.early_stop_patience:
                    break

    final = best_params if config.early_stop_patience is not None else params
    return _layer_from_params(final, prior_scale), tuple(records)


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
    `seed`), so the comparison is exact up to the O(h^2) difference error.
    The relative error uses |a - d| / max(1e-8, |a| + |d|).
    """
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
                shifted[sign] = loss_at(dataclasses.replace(layer, **{name: arr}))
            diff = (shifted[1.0] - shifted[-1.0]) / (2.0 * h)
            rel = abs(grad[i] - diff) / max(1e-8, abs(grad[i]) + abs(diff))
            worst = max(worst, rel)
    return worst


def save_trace_csv(trace, path) -> None:
    """Trace CSV: epoch,total,nll,kl,val_nll,val_acc with full-precision floats."""
    lines = ["epoch,total,nll,kl,val_nll,val_acc"]
    for rec in trace:
        lines.append(
            f"{rec.epoch},{rec.total!r},{rec.nll!r},{rec.kl!r},{rec.val_nll!r},{rec.val_acc!r}"
        )
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
