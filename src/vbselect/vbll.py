"""Variational Bayesian linear layer.

Every weight and bias carries an independent Gaussian posterior N(mu, sigma^2)
with sigma = softplus(rho), regularized toward an N(0, prior_scale^2) prior.
The module provides plain reparameterized sampling, a deterministic
posterior-mean forward pass, a Flipout forward pass for low-variance training
gradients, the closed-form KL to the prior, and JSON persistence.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_json

LAYER_FORMAT_VERSION = 1

# The model file's fields. save_layer writes the scalars in this order and
# load_layer unpacks them in it. The JSON types a value may take: bool is a
# type of its own here, so true/false never pass for a number.
_INTEGER = ("a JSON integer", {int})
_NUMBER = ("a JSON number", {int, float})
_SCALAR_FIELDS = {"format_version": _INTEGER, "feature_dim": _INTEGER,
                  "num_classes": _INTEGER, "prior_scale": _NUMBER}
_ARRAY_FIELDS = ("weight_mu", "weight_rho", "bias_mu", "bias_rho")

# The JSON values whose repr can run long, by type.
_LONG_JSON_TYPES = {list: "a JSON array", dict: "a JSON object", str: "a JSON string",
                    int: "a JSON integer"}


def json_value_text(value) -> str:
    """repr(value) for an error message, or its JSON type if that is over 80 characters.

    A mistyped field may hold a document-sized array, which one error line
    should not print.
    """
    try:
        text = repr(value)
    except RecursionError:  # lists nested nearly as deep as json.loads allows
        text = None
    if text is not None and len(text) <= 80:
        return text
    return _LONG_JSON_TYPES.get(type(value), type(value).__name__)


def read_json(path):
    """The document in a UTF-8 JSON file.

    A file that does not decode or parse is a ValueError whose one line names it.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply to parse") from None
    except ValueError:  # an integer longer than int() may parse
        raise ValueError(
            f"{path}: a JSON integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _numbers_only(value) -> bool:
    """True if `value` is a JSON number or nested lists holding only numbers.

    Iterative, so lists nested past Python's recursion limit are judged too.
    """
    pending = [[value]]
    while pending:
        items = pending.pop()
        kinds = {type(item) for item in items}
        if kinds == {list}:
            pending.extend(items)
        elif not kinds <= _NUMBER[1]:
            return False
    return True


def softplus(x):
    """ln(1 + e^x), computed without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_inverse(y):
    """Inverse of softplus on y > 0: ln(e^y - 1), stable for large y."""
    y = np.asarray(y, dtype=np.float64)
    return y + np.log(-np.expm1(-y))


def sigmoid(x):
    """Logistic function, accurate into both tails.

    The two-branch form keeps values like sigmoid(-40) ~ 4e-18 exact instead
    of flushing them to zero; gradients of softplus-parameterized scales rely
    on that precision when sigma is tiny.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def softmax(logits, axis=-1):
    """Stabilized softmax along axis; rows sum to 1 within 1e-12."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits, axis=-1):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


@dataclass(frozen=True)
class VBLinearLayer:
    """Posterior parameters of a K-class linear head on D-dimensional features.

    weight_mu/weight_rho are K x D; bias_mu/bias_rho are length K. Standard
    deviations are derived, never stored: sigma = softplus(rho). Instances are
    immutable: each array is marked read-only. An array that is already
    contiguous float64 is kept as given, not copied, so a layer built on
    views of a buffer that its owner keeps writing changes with it; training
    builds the layers it keeps from a copy.
    """

    weight_mu: np.ndarray
    weight_rho: np.ndarray
    bias_mu: np.ndarray
    bias_rho: np.ndarray
    prior_scale: float

    def __post_init__(self):
        for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "prior_scale", float(self.prior_scale))
        if self.weight_mu.ndim != 2:
            raise ValueError("weight_mu must be a K x D matrix")
        k, d = self.weight_mu.shape
        if k < 1 or d < 1:
            raise ValueError("layer needs at least one class and one feature")
        if self.weight_rho.shape != (k, d):
            raise ValueError("weight_rho shape must match weight_mu")
        if self.bias_mu.shape != (k,) or self.bias_rho.shape != (k,):
            raise ValueError("bias parameters must be length-K vectors")
        if not (np.isfinite(self.prior_scale) and self.prior_scale > 0):
            raise ValueError("prior_scale must be positive and finite")

    @property
    def num_classes(self) -> int:
        return self.weight_mu.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weight_mu.shape[1]

    @property
    def weight_sigma(self) -> np.ndarray:
        return softplus(self.weight_rho)

    @property
    def bias_sigma(self) -> np.ndarray:
        return softplus(self.bias_rho)


@dataclass(frozen=True)
class WeightSample:
    """One concrete draw of weights and biases from the posterior."""

    weights: np.ndarray
    biases: np.ndarray


def init_layer(
    feature_dim: int,
    num_classes: int,
    mu_init_scale: float = 0.1,
    rho_init: float = -5.0,
    prior_scale: float = 1.0,
    seed: int = 0,
) -> VBLinearLayer:
    """Fresh layer: means uniform in [-mu_init_scale, mu_init_scale], all rho equal.

    The default rho_init of -5 gives sigma around 0.0067, so an untrained
    layer behaves almost deterministically.
    """
    if feature_dim < 1 or num_classes < 1:
        raise ValueError("feature_dim and num_classes must be at least 1")
    rng = np.random.default_rng(seed)
    a = float(mu_init_scale)
    if a < 0:
        raise ValueError("mu_init_scale must be nonnegative")
    # rng.uniform needs the range's width 2 x mu_init_scale to be finite.
    if not math.isfinite(2.0 * a):
        raise ValueError(f"mu_init_scale must have a finite double, got {a}")
    return VBLinearLayer(
        weight_mu=rng.uniform(-a, a, (num_classes, feature_dim)),
        weight_rho=np.full((num_classes, feature_dim), float(rho_init)),
        bias_mu=rng.uniform(-a, a, num_classes),
        bias_rho=np.full(num_classes, float(rho_init)),
        prior_scale=prior_scale,
    )


def kl_to_prior(layer: VBLinearLayer) -> float:
    """Closed-form KL(posterior || N(0, s^2)) summed over all parameters.

    Per parameter: ln(s/sigma) + (sigma^2 + mu^2) / (2 s^2) - 1/2.
    """
    s = layer.prior_scale
    total = 0.0
    for mu, sigma in (
        (layer.weight_mu, layer.weight_sigma),
        (layer.bias_mu, layer.bias_sigma),
    ):
        total += float(
            np.sum(np.log(s / sigma) + (sigma**2 + mu**2) / (2.0 * s**2) - 0.5)
        )
    return total


def sample_weights(layer: VBLinearLayer, rng: np.random.Generator) -> WeightSample:
    """One reparameterized draw: w = mu + sigma * eps, weights first then biases."""
    eps_w = rng.standard_normal(layer.weight_mu.shape)
    eps_b = rng.standard_normal(layer.bias_mu.shape)
    return WeightSample(
        weights=layer.weight_mu + layer.weight_sigma * eps_w,
        biases=layer.bias_mu + layer.bias_sigma * eps_b,
    )


def check_features(layer: VBLinearLayer, data) -> np.ndarray:
    """`data`, a FeatureDataset or an array, as a float64 N x D matrix.

    D is layer.feature_dim and N at least 1. The one check of the rows that
    every forward, ELBO and posterior function pushes through the layer.
    """
    features = np.asarray(getattr(data, "features", data), dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != layer.feature_dim:
        raise ValueError(
            f"features must be N x {layer.feature_dim}, got shape {features.shape}"
        )
    if features.shape[0] == 0:
        raise ValueError("features must have at least one row")
    return features


def forward_mean(layer: VBLinearLayer, batch) -> np.ndarray:
    """Deterministic logits through the posterior means."""
    batch = check_features(layer, batch)
    return batch @ layer.weight_mu.T + layer.bias_mu


# Flipout's sign table, indexed by a 0/1 draw.
_SIGNS = np.array([-1.0, 1.0])


def flipout_noise(layer: VBLinearLayer, n_rows: int, rng: np.random.Generator, out=None):
    """Draw the full noise bundle for one Flipout pass, in a fixed order.

    Returns (eps_w K x D, eps_b K, sign_in B x D, sign_out B x K). Training
    replays gradients against the same bundle, so the draw order here is part
    of the determinism contract. `out`, a (K x D, K) pair of C-contiguous
    float64 arrays, receives eps_w and eps_b in place of new arrays; the
    draws are the same either way.
    """
    if out is None:
        out = (np.empty(layer.weight_mu.shape), np.empty(layer.bias_mu.shape))
    eps_w = rng.standard_normal(out=out[0])
    eps_b = rng.standard_normal(out=out[1])
    # A draw of 0 or 1 picks -1.0 or 1.0: the values of draw * 2.0 - 1.0.
    sign_in = _SIGNS.take(rng.integers(0, 2, size=(n_rows, layer.feature_dim)))
    sign_out = _SIGNS.take(rng.integers(0, 2, size=(n_rows, layer.num_classes)))
    return eps_w, eps_b, sign_in, sign_out


def flipout_logits(layer: VBLinearLayer, batch, flipped, delta_w, delta_b, sign_out):
    """Mean logits plus the Flipout perturbation (flipped @ delta_w.T + delta_b) * sign_out.

    From one flipout_noise bundle: flipped = batch * sign_in, delta_w =
    sigma_W * eps_w and delta_b = sigma_b * eps_b. The caller forms them, so
    the ELBO gradient, which needs flipped and sigma again, derives each once.
    """
    logits = batch @ layer.weight_mu.T
    logits += layer.bias_mu
    noise = flipped @ delta_w.T
    noise += delta_b
    noise *= sign_out
    logits += noise
    return logits


def forward_flipout(
    layer: VBLinearLayer, batch, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic logits with one shared weight perturbation per call.

    The shared perturbation delta_W = sigma_W * eps is modulated per row by
    independent sign vectors, giving each example a pseudo-independent
    perturbation while drawing the expensive noise only once.
    """
    batch = check_features(layer, batch)
    eps_w, eps_b, sign_in, sign_out = flipout_noise(layer, batch.shape[0], rng)
    return flipout_logits(
        layer, batch, batch * sign_in,
        layer.weight_sigma * eps_w, layer.bias_sigma * eps_b, sign_out,
    )


def save_layer(layer: VBLinearLayer, path) -> None:
    """Persist the layer as sorted, indented JSON (format_version 1)."""
    scalars = (LAYER_FORMAT_VERSION, layer.feature_dim, layer.num_classes, layer.prior_scale)
    doc = dict(zip(_SCALAR_FIELDS, scalars))
    doc.update((name, getattr(layer, name).tolist()) for name in _ARRAY_FIELDS)
    write_json(path, doc)


def load_layer(path) -> VBLinearLayer:
    """Load a layer written by save_layer, rejecting malformed documents."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    required = {*_SCALAR_FIELDS, *_ARRAY_FIELDS}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"{path}: missing fields {sorted(missing)}")
    unknown = doc.keys() - required
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")
    for name, (what, types) in _SCALAR_FIELDS.items():
        if type(doc[name]) not in types:
            raise ValueError(
                f"{path}: {name} must be {what}, got {json_value_text(doc[name])}"
            )
    for name in _ARRAY_FIELDS:
        if not _numbers_only(doc[name]):
            raise ValueError(f"{path}: {name} must hold only JSON numbers")
    version, feature_dim, num_classes, _ = (doc[name] for name in _SCALAR_FIELDS)
    if version != LAYER_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    values = {}
    for name in (*_ARRAY_FIELDS, "prior_scale"):
        try:
            values[name] = np.array(doc[name], dtype=np.float64)
        except OverflowError:
            # A JSON integer has no size limit; float64 does.
            raise ValueError(f"{path}: {name} must be within float64 range") from None
        except ValueError:
            # Ragged lists, or lists nested past numpy's 64 dimensions.
            raise ValueError(
                f"{path}: {name} must be a rectangular array of numbers"
            ) from None
    try:
        layer = VBLinearLayer(**values)
    except ValueError as exc:  # shapes, non-finite values, prior_scale <= 0
        raise ValueError(f"{path}: {exc}") from None
    if layer.feature_dim != feature_dim or layer.num_classes != num_classes:
        raise ValueError(f"{path}: declared dimensions do not match arrays")
    return layer
