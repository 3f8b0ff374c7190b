"""Property tests: the dataset CSV and the model JSON reload bit for bit, and
load_csv's numpy fast path agrees with its checked loop on any input."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vbselect import dataset
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


# Fields that float() and int() read differently from numpy's parser, or that
# one of the two paths rejects.
ODD_FEATURES = ["1_0", "\uff11", "\uff12.5", "inf", "-Infinity", "nan", "1e400",
                "-1e400", "1e-400", "", " ", "-0.0", "0x1p3", "1 2", "1.5e", "1d5",
                "#1", "1\x00", "\u00e91", "1\x0b2", "1\x852"]
ODD_LABELS = ["1.0", "1e0", "1_0", "-1", "-0", "+1", " 3", "2\t", "\xa01",
              "99999999999999999999", "\uff11", "", "0x1", "1 1"]
PADDING = st.sampled_from(["", " ", "\t", "\xa0", "\u2003"])


@st.composite
def float_fields(draw):
    value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    text = draw(st.sampled_from([repr, "%.17g".__mod__]))(value)
    if draw(st.booleans()):  # "0.25" -> ".25", "-0.5" -> "-.5"
        text = text.replace("0.", ".", 1) if text.lstrip("-").startswith("0.") else text
    if draw(st.booleans()) and not text.startswith("-"):
        text = "+" + text
    return draw(PADDING) + text + draw(PADDING)


@st.composite
def csv_texts(draw):
    """A dataset CSV; half of them hold only values both parsers accept."""
    dim = draw(st.integers(1, 3))
    declared = draw(st.none() | st.integers(2, 5))
    features = float_fields()
    labels = st.tuples(PADDING, st.integers(0, (declared or 7) - 1), PADDING).map(
        lambda parts: "%s%d%s" % parts
    )
    kinds = ["row", "row", "row", "blank"]
    if draw(st.booleans()):
        features |= st.sampled_from(ODD_FEATURES)
        labels |= st.sampled_from(ODD_LABELS) | st.integers(0, 9).map(str)
        kinds.append("arity")
    lines = [] if declared is None else [f"# classes={declared}"]
    lines.append(",".join(f"f{j}" for j in range(dim)) + ",label")
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(PADDING))
            continue
        width = dim if kind == "row" else draw(st.sampled_from([dim - 1, dim + 1]))
        lines.append(",".join([draw(features) for _ in range(width)] + [draw(labels)]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def load_outcome(path):
    """What load_csv gives for path: the arrays' bytes, or the error message."""
    try:
        ds = load_csv(path)
    except ValueError as exc:
        return str(exc)
    return (ds.features.dtype, ds.features.shape, ds.features.tobytes(),
            ds.labels.dtype, ds.labels.tobytes(), ds.num_classes)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
@example(text="f0,f1,label\n1.5,2.5,0\n-0.0,1e-400,1\n")
@example(text="# classes=3\nf0,label\n1,99999999999999999999\n")
@example(text="f0,label\n1,99999999999999999999\n")
@example(text="f0,label\n1,1,0\n2,0\n")
@example(text="f0,label\n1,-1\n")
@example(text="f0,label\n1,2\n2,0\n")
def test_numpy_parse_matches_checked_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        fast = load_outcome(path)
        with mock.patch.object(dataset, "_parse_rows_numpy", return_value=None):
            checked = load_outcome(path)
    assert fast == checked
