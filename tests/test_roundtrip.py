"""Property tests: the dataset CSV and the model JSON reload bit for bit,
load_csv's numpy fast path agrees with its checked loop on any input, its
block reader agrees with a whole-text reader at any block size, and save_csv
writes the same bytes as format(x, ".17g")."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vbselect import dataset
from vbselect.dataset import FeatureDataset, load_csv, load_csv_rows, save_csv
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
# A row one field long next to one a field short: the right total of commas.
@example(text="f0,f1,label\n1,2,3,0\n1,0\n")
# splitlines() ends a line at "\x1c", where numpy would take a space.
@example(text="f0,f1,label\n0.5\x1c,0.7,0\n")
def test_numpy_parse_matches_checked_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        fast = load_outcome(path)
        with mock.patch.object(dataset, "_parse_rows_numpy", return_value=None):
            checked = load_outcome(path)
    assert fast == checked


# Every line end str.splitlines() knows; "\r\n" and "\r" reach it as "\n".
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]


@st.composite
def csv_files(draw):
    """The bytes of a csv_texts() file with each line end drawn from LINE_ENDS,
    at times a leading byte-order mark, and at times one byte that is not UTF-8."""
    lines = draw(csv_texts()).split("\n")
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines[:-1])
    data = (draw(st.sampled_from(["", "\ufeff"])) + text + lines[-1]).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def whole_text_outcome(path):
    """The outcome of the whole-text reader the block reader replaced: the
    file's text from read_text(), its splitlines() lines, and the checked
    loop over every data line. (rows, arrays) as rows_outcome gives them, or
    the error message."""
    try:
        try:
            lines = path.read_text(encoding="utf-8").removeprefix("\ufeff").splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        try:
            lineno, dim, declared = dataset._read_preamble(lines)
            rows = [row for row in lines[lineno:] if row.strip()]
            if not rows:
                raise ValueError("no data rows")
            features, labels = dataset._parse_rows_checked(lines[lineno:], lineno, dim, declared)
            num_classes = declared if declared is not None else int(labels.max()) + 1
            ds = FeatureDataset(features, labels, num_classes)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        return str(exc)
    return rows, (ds.features.dtype, ds.features.shape, ds.features.tobytes(),
                  ds.labels.dtype, ds.labels.tobytes(), ds.num_classes)


def rows_outcome(path):
    """What load_csv_rows gives for path: (rows, arrays) or the error message."""
    try:
        ds, rows = load_csv_rows(path)
    except ValueError as exc:
        return str(exc)
    return rows, load_outcome(path)


@settings(max_examples=300, deadline=None)
@given(data=csv_files(), block=st.integers(1, 12))
@example(data="\ufeff# classes=3\nf0,label\n1,0\n2,2\n".encode(), block=1)
@example(data="\ufefff0,label\n1,0\n2,2\n".encode(), block=3)
# "\r\n" with a read edge between its two characters, and lone "\r" ends.
@example(data=b"f0,label\r\n1.5,0\r\n2.5,1\r\n", block=9)
@example(data=b"f0,label\r1,0\r2,1\r", block=2)
# Each line end is the last character of a read.
@example(data="f0,label\x0c1.2500,0\x1c2.2500,1\x853.2500,0\u20284.2500,1".encode(),
         block=9)
@example(data="f0,label\x0c1,0\x1c2,1\x853,0\u20284,1\n".encode(), block=1)
@example(data="f0,label\n\n \t\n1,0\n\u2003\n\n2,1\n\n".encode(), block=2)
@example(data=b"f0,label\n1,0\n2,1", block=4)
@example(data=b"f0,label\n1,0\n2,1\n3,x\n", block=4)
@example(data=b"# classes=3\nf0,f1,f2,label\n1,2,3,0\n", block=5)
# A bad field before a byte that is not UTF-8: the byte is the error.
@example(data=b"f0,label\n1,0\nx,1\n2,0\n\xff\n", block=3)
def test_block_reader_matches_whole_text_oracle(data, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        with mock.patch.object(dataset, "_BLOCK_CHARS", block):
            got = rows_outcome(path)
        want = whole_text_outcome(path)
    assert got == want


# -0.0, subnormals, the float64 extremes and integral floats, which %.17g
# writes without an exponent or a point up to 17 digits.
CSV_EDGES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 1e17, 123456789.0, 0.1,
])


@st.composite
def csv_blocks(draw):
    """A dataset whose row count sits at an edge of save_csv's blocks of
    about 64k values. Of its features 30% are edge values, 20% integral and
    the rest random bit patterns."""
    d = draw(st.sampled_from([1, 3, 4096, 5000]))
    step = max(1, 2**16 // d)
    n = draw(st.sampled_from([step - 1, step, step + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, (n, d), dtype=np.uint64, endpoint=False).view(np.float64)
    features = np.where(np.isfinite(bits), bits, 0.5)
    picks = rng.random((n, d))
    features = np.where(picks < 0.3, rng.choice(CSV_EDGES, (n, d)), features)
    features = np.where(picks > 0.8, np.round(rng.standard_normal((n, d)) * 1e6), features)
    return FeatureDataset(features, rng.integers(0, 3, n), 3)


def format_oracle(ds):
    """The dataset CSV with every feature written by format(x, ".17g")."""
    header = ",".join(f"f{j}" for j in range(ds.feature_dim)) + ",label"
    lines = [f"# classes={ds.num_classes}", header]
    for row, label in zip(ds.features.tolist(), ds.labels.tolist()):
        lines.append(",".join(format(x, ".17g") for x in row) + f",{label}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=16, deadline=None)
@given(ds=csv_blocks())
@example(ds=FeatureDataset(CSV_EDGES.reshape(2, 7), np.array([0, 1]), 2))
def test_csv_bytes_match_format_oracle(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(ds, path)
        assert path.read_bytes() == format_oracle(ds)
