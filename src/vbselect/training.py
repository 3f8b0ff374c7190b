"""Negative-ELBO objective, analytic gradients, Adam, and the training loop.

The objective for a minibatch is mean cross-entropy through a Flipout forward
pass plus kl_to_prior(layer) / n_train, so that summed over one epoch the KL
is counted once per dataset. Loss and gradient evaluation consume identical
noise when given identically seeded streams; gradcheck leans on that replay
contract to compare analytic gradients with central finite differences.

Training and the three objective calls (elbo_loss, elbo_gradients,
gradcheck) hold the posterior as one flat float64 vector laid out as
weight_mu, bias_mu, weight_rho, bias_rho, so the mu half and the rho half
are each one contiguous block of K * (D + 1) values, and run the ELBO
through a layer built on views of it. `_halves`, `_split` and
`_blocks` are the only code that knows this layout; they give the halves
and the four arrays as views. The gradient is a vector of the same layout.

A step does its elementwise work on whole halves. exp(-|rho|) is taken once
over the rho half; sigma = softplus(rho) and sigmoid(rho) both come from it,
with the float operations of vbll.softplus and vbll.sigmoid, and the KL
chain is one run over each half. The K * (D + 1)-sized arrays a step needs
(sigma, sigmoid(rho), sigma * noise, the gradient, one pass's gradient,
Adam's scratch) live in a `_StepBuffers` that `train` allocates once per
call, and Adam updates the parameters and its two moments in place in the
operation order of the textbook expression. Every result is bit for bit
that of the allocating, block-by-block form.

`_elbo_core` takes a step's Flipout noise already drawn (`_draw_noise`).
The noise depends only on its stream, never on the parameters, so `train`
may draw the next step's while this one computes. It does so on one helper
thread when that pays: numpy's OpenBLAS is pinned to one thread (`train`
always runs under `blas.one_blas_thread`), the process may use two or more
CPUs, and a step draws at least `_DRAW_AHEAD_MIN_VALUES` values. Smaller
steps, such as a 5 x 16 head's, draw inline, since a handoff costs more
than the draw. Which thread drew changes no bit of any result.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import vbll
from .atomic import write_lines
from .blas import one_blas_thread, usable_cpus
from .vbll import (
    VBLinearLayer,
    check_features,
    flipout_logits,
    flipout_noise,
    forward_mean,
    init_layer,
    kl_to_prior,
    log_softmax,
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
        vbll.check_mu_init_scale(self.mu_init_scale)
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


def _halves(flat):
    """(mu half, rho half) of a flat vector, as views."""
    half = flat.size // 2
    return flat[:half], flat[half:]


def _split(half, num_classes, feature_dim):
    """(K x D weight block, K bias values) of one half, as views."""
    kd = num_classes * feature_dim
    return half[:kd].reshape(num_classes, feature_dim), half[kd:]


def _blocks(flat, num_classes, feature_dim):
    """(weight_mu, weight_rho, bias_mu, bias_rho) as views of flat."""
    mu, rho = _halves(flat)
    weight_mu, bias_mu = _split(mu, num_classes, feature_dim)
    weight_rho, bias_rho = _split(rho, num_classes, feature_dim)
    return weight_mu, weight_rho, bias_mu, bias_rho


def _flatten(layer):
    """A new flat vector holding the layer's four arrays (see `_blocks`)."""
    return np.concatenate(
        [layer.weight_mu.ravel(), layer.bias_mu, layer.weight_rho.ravel(), layer.bias_rho]
    )


class _StepBuffers:
    """The arrays one ELBO-and-Adam step of a K x D head works in, made once.

    `grads`, `pass_grads` and the two rows of `scratch` have the flat
    layout; the rest are one half long. `delta` holds a pass's sigma * eps,
    split like a half.
    """

    def __init__(self, num_classes, feature_dim):
        half = num_classes * (feature_dim + 1)
        self.grads = np.empty(2 * half)
        self.pass_grads = np.empty(2 * half)
        self.scratch = np.empty((2, 2 * half))
        self.t, self.one_plus_t, self.sigma, self.sigmoid, self.delta = (
            np.empty(half) for _ in range(5)
        )
        self.rho_nonneg = np.empty(half, dtype=bool)
        self.delta_w, self.delta_b = _split(self.delta, num_classes, feature_dim)
        self.pass_blocks = _blocks(self.pass_grads, num_classes, feature_dim)
        self.pass_rho = _halves(self.pass_grads)[1]


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


def _draw_noise(layer, n_rows, rng, noise, draw):
    """One step's Flipout bundles from `rng`: [(eps, sign_in, sign_out)], pass by pass.

    `noise` is an (mc_passes, K * (D + 1)) array; pass p's eps_w and eps_b
    land in row p, split like a half (`_split`), and `eps` is that row.
    `draw` is vbll.flipout_noise, or a name bound to it; the passes draw in
    order from the one stream, so the bundles are those that one
    flipout_noise call per pass gives.
    """
    k, d = layer.num_classes, layer.feature_dim
    bundles = []
    for eps in noise:
        _, _, sign_in, sign_out = draw(layer, n_rows, rng, out=_split(eps, k, d))
        bundles.append((eps, sign_in, sign_out))
    return bundles


def _elbo_core(layer, params, batch, labels, n_train, bundles, work):
    """(mean NLL, flat gradient of the negative ELBO): the one loss-and-gradient path.

    `params` is the layer's flat vector (see `_blocks`); `bundles` holds one
    `_draw_noise` bundle per Monte Carlo pass; `work` is a `_StepBuffers`
    for the layer's shape, and the gradient returned is `work.grads`, valid
    until the next call with the same buffers. It checks nothing: elbo_loss
    and elbo_gradients check their inputs first (`_validate_batch_inputs`)
    and train's datasets and config hold the same rules. Each pass's
    batch * sign_in is formed once and shared by the logits and the rho
    gradient.
    """
    b = batch.shape[0]
    mc_passes = len(bundles)
    rows = np.arange(b)
    mu, rho = _halves(params)

    # sigma = softplus(rho) and sigmoid(rho) from one t = exp(-|rho|), with
    # vbll.softplus's and vbll.sigmoid's float operations.
    t, one_plus_t, sigma, sig = work.t, work.one_plus_t, work.sigma, work.sigmoid
    np.abs(rho, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.maximum(rho, 0.0, out=sigma)
    sigma += np.log1p(t, out=sig)
    np.add(t, 1.0, out=one_plus_t)
    np.divide(t, one_plus_t, out=sig)
    np.greater_equal(rho, 0.0, out=work.rho_nonneg)
    np.divide(1.0, one_plus_t, out=sig, where=work.rho_nonneg)

    nll = 0.0
    grads, pass_grads = work.grads, work.pass_grads
    grads.fill(0.0)
    pass_w_mu, pass_w_rho, pass_b_mu, pass_b_rho = work.pass_blocks
    for eps, sign_in, sign_out in bundles:
        np.multiply(sigma, eps, out=work.delta)
        flipped = batch * sign_in
        logp = log_softmax(
            flipout_logits(layer, batch, flipped, work.delta_w, work.delta_b, sign_out)
        )
        nll += float(-(logp[rows, labels].sum() / b))
        g = np.exp(logp, out=logp)
        g[rows, labels] -= 1.0
        g /= b
        np.matmul(g.T, batch, out=pass_w_mu)
        g.sum(axis=0, out=pass_b_mu)
        g *= sign_out
        np.matmul(g.T, flipped, out=pass_w_rho)
        g.sum(axis=0, out=pass_b_rho)
        work.pass_rho *= eps
        grads += pass_grads

    # Until here the rho half holds the pass-summed d(NLL)/d(sigma); add the
    # KL path, then chain through sigma = softplus(rho). x / 1 is exact, so
    # one pass skips the divide.
    if mc_passes > 1:
        grads /= mc_passes
    g_mu, g_rho = _halves(grads)
    s2 = layer.prior_scale**2
    inv_n = 1.0 / n_train
    a, c = (row[: mu.size] for row in work.scratch)
    np.divide(mu, s2, out=a)
    a *= inv_n
    g_mu += a
    np.divide(sigma, s2, out=a)
    np.divide(1.0, sigma, out=c)
    a -= c
    a *= inv_n
    g_rho += a
    g_rho *= sig
    return nll / mc_passes, grads


def _checked_problem(layer, batch, labels, n_train, rng, mc_passes):
    """(layer, params, batch, labels, bundles, work) for `_elbo_core`, after the input checks.

    `params` is a flat copy of the given layer and the layer returned is
    built on views of it, as train's step layer is, so writing an entry of
    `params` moves the layer with it. The bundles are drawn from `rng`, and
    `work` fits the layer's shape.
    """
    batch, labels = _validate_batch_inputs(layer, batch, labels, n_train, mc_passes)
    k, d = layer.num_classes, layer.feature_dim
    params = _flatten(layer)
    step_layer = VBLinearLayer(*_blocks(params, k, d), layer.prior_scale)
    noise = np.empty((mc_passes, k * (d + 1)))
    bundles = _draw_noise(step_layer, batch.shape[0], rng, noise, flipout_noise)
    return step_layer, params, batch, labels, bundles, _StepBuffers(k, d)


def elbo_loss(layer, batch, labels, n_train, rng, mc_passes=1) -> LossBreakdown:
    """Negative ELBO for one minibatch: mean Flipout cross-entropy + KL/n_train."""
    layer, params, batch, labels, bundles, work = _checked_problem(
        layer, batch, labels, n_train, rng, mc_passes
    )
    nll, _ = _elbo_core(layer, params, batch, labels, n_train, bundles, work)
    kl = kl_to_prior(layer)
    return LossBreakdown(nll=nll, kl=kl, total=nll + kl / n_train)


def elbo_gradients(layer, batch, labels, n_train, rng, mc_passes=1) -> Gradients:
    """Analytic gradient of elbo_loss at the noise the stream produces.

    A stream seeded identically to an elbo_loss call yields the gradient of
    exactly that loss value.
    """
    layer, params, batch, labels, bundles, work = _checked_problem(
        layer, batch, labels, n_train, rng, mc_passes
    )
    _, grads = _elbo_core(layer, params, batch, labels, n_train, bundles, work)
    return Gradients(*_blocks(grads, layer.num_classes, layer.feature_dim))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step_index: int,
    config: TrainConfig,
    scratch: np.ndarray | None = None,
) -> None:
    """One bias-corrected Adam update of the flat params, m and v, in place.

    `scratch`, a float64 array of shape (2, params.size), holds the update's
    intermediates; without it two such rows are allocated. The arithmetic is
    that of m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g**2,
    params -= lr * m_hat / (sqrt(v_hat) + eps), operation for operation.
    """
    if step_index < 1:
        raise ValueError("step_index must be at least 1")
    if not params.shape == grads.shape == m.shape == v.shape:
        raise ValueError("params, grads, m and v must share one shape")
    if scratch is None:
        scratch = np.empty((2, params.size))
    a, c = scratch
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    m *= b1
    m += np.multiply(grads, 1.0 - b1, out=a)
    v *= b2
    np.square(grads, out=a)
    a *= 1.0 - b2
    v += a
    np.divide(m, 1.0 - b1**step_index, out=a)
    a *= lr
    np.divide(v, 1.0 - b2**step_index, out=c)
    np.sqrt(c, out=c)
    c += eps
    a /= c
    params -= a


# The smallest step, in noise values drawn (mc_passes * (B * (D + K) +
# K * (D + 1))), whose draws go to a helper thread. On a 2-core host
# (B = 128, 3500 rows, median of 7) the helper cost about 200 us a step at
# 2.8k-12k values, broke even at 19k-25k and gained from 29k: 1215 -> 1093
# us a step at K = 50, D = 128 and 2795 -> 2069 us at K = 100, D = 256.
_DRAW_AHEAD_MIN_VALUES = 25_000


def _noise_helper(pinned, step_values):
    """The executor that draws train's noise ahead, or a null context giving None.

    A helper thread pays only with a second CPU, with BLAS held at one
    thread (an OpenBLAS thread of its own competes with it) and with a step
    whose draw outweighs a handoff; otherwise train draws inline.
    """
    if pinned and step_values >= _DRAW_AHEAD_MIN_VALUES and usable_cpus() >= 2:
        # Only here: the import costs about 7 ms.
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor(1)
    return contextlib.nullcontext()


def _step_noise(layer, config, n_train, pool):
    """Every step's Flipout bundles, in step order over all epochs.

    Step j of an epoch draws from the stream [config.seed, 1, epoch, j]; no
    draw depends on the parameters. Inline (`pool` None) each step is drawn
    when asked for. With `pool`, a one-thread executor, step i + 1 is drawn
    there, into the other of two buffer sets, while the caller runs step i:
    the caller must be done with a step's bundles when it asks for the next,
    and at most one draw is in flight. The helper calls vbll.flipout_noise,
    not the name this module binds: a tracer may wrap that name, and its
    spans belong to the calling thread.
    """
    mc_passes = config.train_mc_samples
    noise = np.empty((2, mc_passes, layer.num_classes * (layer.feature_dim + 1)))
    steps = enumerate(
        ([config.seed, 1, epoch, batch_index], min(config.batch_size, n_train - start))
        for epoch in range(config.epochs)
        for batch_index, start in enumerate(range(0, n_train, config.batch_size))
    )

    def draw(i, step, flipout):
        stream, rows = step
        return _draw_noise(layer, rows, np.random.default_rng(stream), noise[i % 2], flipout)

    if pool is None:
        for i, step in steps:
            yield draw(i, step, flipout_noise)
        return
    pending = pool.submit(draw, *next(steps), vbll.flipout_noise)
    for i, step in steps:
        bundles = pending.result()
        pending = pool.submit(draw, i, step, vbll.flipout_noise)
        yield bundles
    yield pending.result()


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
    in-place Adam update; one `_StepBuffers` holds every step's work arrays.
    The KL enters each step's gradient in closed form; its value is
    computed once per epoch, for the trace. Every layer kept past its epoch
    holds a copy of the buffer, never a live view.

    Determinism contract: the epoch shuffle comes from a stream seeded with
    [config.seed, 0, epoch] and the Flipout noise of each batch from
    [config.seed, 1, epoch, batch_index], so reruns are bit-identical and
    each batch's noise can be drawn ahead of its step (see the module
    docstring). BLAS is held at one thread for the whole call, so the
    result does not depend on the caller's BLAS thread count either.

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
    params = _flatten(layer)
    m, v = np.zeros_like(params), np.zeros_like(params)
    work = _StepBuffers(k, d)
    n_train = train_ds.n_samples
    prior_scale = init_config.prior_scale

    records = []
    best_val_nll = np.inf
    best_layer = layer
    epochs_since_improvement = 0
    step = 0
    step_layer = VBLinearLayer(*_blocks(params, k, d), prior_scale)

    b = min(config.batch_size, n_train)
    step_values = config.train_mc_samples * (b * (d + k) + k * (d + 1))
    with one_blas_thread() as pinned, _noise_helper(pinned, step_values) as pool:
        noise = _step_noise(step_layer, config, n_train, pool)
        for epoch in range(config.epochs):
            perm = np.random.default_rng([config.seed, 0, epoch]).permutation(n_train)
            nll_weighted_sum = 0.0
            for start in range(0, n_train, config.batch_size):
                sel = perm[start : start + config.batch_size]
                nll, grads = _elbo_core(
                    step_layer, params, train_ds.features[sel], train_ds.labels[sel], n_train,
                    next(noise), work,
                )
                nll_weighted_sum += nll * sel.size
                step += 1
                adam_step(params, grads, m, v, step, config, work.scratch)
                if not np.isfinite(params).all():
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

    The noise is drawn once, from a stream seeded with `seed`, as elbo_loss
    and elbo_gradients draw it, and every loss evaluation reuses it, so the
    comparison is exact up to the O(h^2) difference error and the
    difference's round-off, about eps * |loss| / h. The relative
    error uses |a - d| / max(1e-8, |a| + |d|), so an entry whose gradient is
    near that round-off scale can exceed 1e-4 although the analytic value is
    right. Larger problems have more such entries: at K=10, D=64, B=128,
    seed 0 gives 3.6e-5 but seed 1 gives 2.3e-4, from a weight_rho entry of
    1.5163e-7 whose difference quotient is 1.5170e-7.

    The differences move one entry of the flat parameter vector at a time
    (see `_blocks`): it is set to base + h, then base - h, in place, and
    then restored, so the layer on views of the vector sees each value
    without being rebuilt or re-checked.
    """
    if not (np.isfinite(h) and h != 0):
        raise ValueError(f"h must be finite and nonzero, got {h!r}")
    layer, params, batch, labels, bundles, work = _checked_problem(
        layer, batch, labels, n_train, np.random.default_rng(seed), mc_passes
    )

    def loss():
        nll, _ = _elbo_core(layer, params, batch, labels, n_train, bundles, work)
        return nll + kl_to_prior(layer) / n_train

    analytic = _elbo_core(layer, params, batch, labels, n_train, bundles, work)[1].copy()
    worst = 0.0
    for i, grad in enumerate(analytic):
        base = params[i]
        params[i] = base + h
        up = loss()
        params[i] = base - h
        down = loss()
        params[i] = base
        diff = (up - down) / (2.0 * h)
        rel = abs(grad - diff) / max(1e-8, abs(grad) + abs(diff))
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
