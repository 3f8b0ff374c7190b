"""Property tests: the dataset CSV and the model JSON reload bit for bit."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vbselect.dataset import FeatureDataset, load_csv, save_csv
from vbselect.vbll import VBLinearLayer, load_layer, save_layer

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
EDGE_VALUES = np.array([-0.0, 5e-324, -2.2250738585072e-308, 1.7976931348623157e308])


def round_trip(save, load, obj, name):
    # A fresh directory per example: renaming over an existing file can cost
    # ~0.1 s on ext4, which flushes the new data first.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(obj, path)
        return load(path)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    features = draw(arrays(np.float64, (n, d), elements=FINITE))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return FeatureDataset(features, labels, k)


@st.composite
def layers(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    return VBLinearLayer(
        weight_mu=draw(arrays(np.float64, (k, d), elements=FINITE)),
        weight_rho=draw(arrays(np.float64, (k, d), elements=FINITE)),
        bias_mu=draw(arrays(np.float64, k, elements=FINITE)),
        bias_rho=draw(arrays(np.float64, k, elements=FINITE)),
        prior_scale=draw(st.floats(min_value=5e-324, allow_infinity=False)),
    )


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
@example(ds=FeatureDataset(EDGE_VALUES.reshape(2, 2), np.array([0, 1]), 2))
def test_csv_round_trip_is_exact(ds):
    back = round_trip(save_csv, load_csv, ds, "data.csv")
    assert same_bits(back.features, ds.features)
    assert same_bits(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


@settings(max_examples=60, deadline=None)
@given(layer=layers())
@example(layer=VBLinearLayer(
    EDGE_VALUES.reshape(2, 2), -EDGE_VALUES.reshape(2, 2),
    EDGE_VALUES[:2], EDGE_VALUES[2:], 5e-324,
))
def test_layer_round_trip_is_exact(layer):
    back = round_trip(save_layer, load_layer, layer, "model.json")
    for name in ("weight_mu", "weight_rho", "bias_mu", "bias_rho"):
        assert same_bits(getattr(back, name), getattr(layer, name)), name
    assert back.prior_scale == layer.prior_scale
