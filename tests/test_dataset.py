"""Tests for dataset construction, CSV round-trips, stratified splitting, SMOTE."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbselect import dataset
from vbselect.dataset import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    load_csv_rows,
    save_csv,
    smote_oversample,
    stratified_split,
    stratified_split_indices,
)


def row_multiset(ds):
    """Hashable multiset of (features..., label) rows, order-insensitive."""
    rows = [tuple(f) + (int(l),) for f, l in zip(ds.features, ds.labels)]
    return sorted(rows)


def convex_hull_2d(points):
    # Andrew's monotone chain; returns hull vertices in counterclockwise order.
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def inside_hull_2d(point, hull, tol=1e-9):
    # point is inside a CCW polygon iff it is left of (or on) every edge
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        if (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax) < -tol:
            return False
    return True


def random_dataset(rng, n_classes=3, dim=4, per_class=10):
    features = rng.standard_normal((n_classes * per_class, dim)) * 3.0
    labels = np.repeat(np.arange(n_classes), per_class)
    perm = rng.permutation(len(labels))
    return FeatureDataset(features[perm], labels[perm], n_classes)


class TestFeatureDataset:
    def test_basic_construction(self):
        ds = FeatureDataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], 2)
        assert ds.n_samples == 2
        assert ds.feature_dim == 2
        assert list(ds.class_counts()) == [1, 1]

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            FeatureDataset([[1.0], [2.0]], [0, 2], 2)
        with pytest.raises(ValueError):
            FeatureDataset([[1.0]], [-1], 2)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            FeatureDataset([[np.nan]], [0], 2)
        with pytest.raises(ValueError):
            FeatureDataset([[np.inf], [0.0]], [0, 1], 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FeatureDataset([[1.0], [2.0]], [0], 2)

    def test_arrays_are_read_only(self):
        ds = FeatureDataset([[1.0], [2.0]], [0, 1], 2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


@pytest.mark.parametrize("call,message", [
    (lambda: FeatureDataset([1.0, 2.0], [0, 1], 2), "features must be a 2-D array"),
    (lambda: FeatureDataset(np.zeros((0, 2)), [], 2), "dataset must contain at least one sample"),
    (lambda: FeatureDataset(np.zeros((2, 0)), [0, 1], 2), "dataset must have at least one feature"),
    (lambda: SyntheticConfig(1, 3, (4,)), "num_classes must be at least 2"),
    (lambda: SyntheticConfig(2, 0, (4, 4)), "feature_dim must be at least 1"),
    (lambda: smote_oversample(FeatureDataset([[0.0], [1.0]], [0, 1], 2), [1, 1, 1], seed=0),
     "target_counts must list one count per class"),
    (lambda: smote_oversample(FeatureDataset([[0.0], [1.0]], [0, 1], 2), [1, 1], seed=0,
                              k_neighbors=0),
     "k_neighbors must be at least 1"),
], ids=["two_dimensional", "no_samples", "no_features", "config_classes", "config_dim",
        "smote_targets", "smote_neighbors"])
def test_rejected_with_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestCsvRoundTrip:
    def test_tiny_file_read_back(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.5,2.5,0\n-3.0,0.25,1\n0.0,1.0,0\n")
        ds = load_csv(path)
        assert ds.n_samples == 3
        assert ds.feature_dim == 2
        assert ds.num_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_allclose(ds.features[0], [1.5, 2.5])

    def test_class_directive_overrides_max_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# classes=4\nf0,label\n1.0,0\n2.0,1\n3.0,1\n")
        assert load_csv(path).num_classes == 4

    def test_round_trip_is_bit_exact(self, tmp_path):
        """Write-then-load preserves every float and label exactly, 100 datasets."""
        rng = np.random.default_rng(20240811)
        for trial in range(100):
            n_classes = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 8))
            ds = random_dataset(rng, n_classes, dim, per_class=int(rng.integers(1, 7)))
            path = tmp_path / f"rt_{trial}.csv"
            save_csv(ds, path)
            back = load_csv(path)
            assert back.num_classes == ds.num_classes
            np.testing.assert_array_equal(back.features, ds.features)
            np.testing.assert_array_equal(back.labels, ds.labels)

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        # "abc" lands on physical line 5
        path.write_text("# classes=2\nf0,f1,label\n1,2,0\n3,4,1\nabc,6,0\n7,8,1\n")
        with pytest.raises(ValueError, match="line 5"):
            load_csv(path)

    def test_wrong_arity_and_bad_label(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("f0,label\n1.0,0\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)
        path.write_text("f0,label\n1.0,zero\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)
        path.write_text("f0,label\n1.0,-1\n")
        with pytest.raises(ValueError, match="negative label"):
            load_csv(path)

    def test_fast_path_parses_in_one_loadtxt_call(self, tmp_path, monkeypatch):
        ds = random_dataset(np.random.default_rng(5), 3, 4, per_class=5)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        real, calls = np.loadtxt, []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        def checked_loop(*args):
            raise AssertionError("the fast path handed the file to the checked loop")

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(dataset, "_parse_rows_checked", checked_loop)
        back = load_csv(path)
        assert len(calls) == 1
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("directive", ["# classes=3\n", ""])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, directive):
        text = directive + "f0,f1,label\n1.5,2.5,0\n-3,0.25,1\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        want, got = load_csv(plain), load_csv(marked)
        assert got.num_classes == want.num_classes == (3 if directive else 2)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("\ufeff\ufefff0,label\n1.5,0\n2.5,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: feature columns must be named"):
            load_csv(path)

    @pytest.mark.parametrize("body", [
        b"ab",
        b"f0,label\n" + b"0.5,0\n" * 4000,
        b"f0,label\n" + b"0.5,0\n" * (dataset._BLOCK_CHARS // 6 + 1000),
        b"f0,label\nx,0\n" + b"0.5,0\n" * (dataset._BLOCK_CHARS // 6 + 1000),
    ], ids=["short", "past_the_first_byte_read", "past_the_first_block",
            "past_the_first_block_after_a_bad_row"])
    @pytest.mark.parametrize("load", [load_csv, load_csv_rows])
    def test_undecodable_byte_after_byte_order_mark_names_file_offset(
        self, tmp_path, body, load
    ):
        path = tmp_path / "bad.csv"
        data = b"\xef\xbb\xbf" + body + b"\xff"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            load(path)
        assert f"byte 0xff in position {len(data) - 1}:" in str(info.value)

    def test_multibyte_characters_across_read_edges_decode(self, tmp_path):
        # An em space is 3 bytes in UTF-8. The row's end spans the first
        # block's last characters; the blank line of 6000 spans several 8 KiB
        # byte reads.
        head = "f0,label\n" + "0.5,0\n" * ((dataset._BLOCK_CHARS - 12) // 6)
        padded = "0.5,1" + "\u2003" * (dataset._BLOCK_CHARS - len(head) + 3)
        assert len(head) < dataset._BLOCK_CHARS < len(head) + len(padded)
        path = tmp_path / "wide_chars.csv"
        path.write_text(head + padded + "\n" + "\u2003" * 6000 + "\n0.5,0\n", encoding="utf-8")
        ds, rows = load_csv_rows(path)
        n = head.count("\n") - 1
        assert rows == ["0.5,0"] * n + [padded, "0.5,0"]
        np.testing.assert_array_equal(ds.labels, [0] * n + [1, 0])
        assert (ds.features == 0.5).all()

    @staticmethod
    def write_blocks(path, bad_line=None):
        """A file of ten 12-character lines, header first; each 24-character
        read holds two whole lines. bad_line (1-based) gets a bad field."""
        lines = ["f0,f1,label\n"] + [f"{i}.25,2.50,{i % 2}\n" for i in range(1, 10)]
        if bad_line is not None:
            lines[bad_line - 1] = "1.25,abcd,0\n"
        path.write_text("".join(lines))

    def test_fast_path_parses_each_block_in_one_loadtxt_call(self, tmp_path, monkeypatch):
        path = tmp_path / "blocks.csv"
        self.write_blocks(path)
        real, calls = np.loadtxt, []

        def spy(rows, *args, **kwargs):
            calls.append(list(rows))
            return real(rows, *args, **kwargs)

        def checked_loop(*args):
            raise AssertionError("the fast path handed a block to the checked loop")

        monkeypatch.setattr(dataset, "_BLOCK_CHARS", 24)
        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(dataset, "_parse_rows_checked", checked_loop)
        ds = load_csv(path)
        assert [len(rows) for rows in calls] == [1, 2, 2, 2, 2]
        np.testing.assert_array_equal(ds.features[:, 0], np.arange(1, 10) + 0.25)
        np.testing.assert_array_equal(ds.labels, np.arange(1, 10) % 2)

    def test_bad_row_sends_only_its_block_to_the_checked_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "blocks.csv"
        self.write_blocks(path, bad_line=8)
        real_loop, starts = dataset._parse_rows_checked, []

        def spy(lines, lineno, *args):
            starts.append(lineno)
            return real_loop(lines, lineno, *args)

        monkeypatch.setattr(dataset, "_BLOCK_CHARS", 24)
        monkeypatch.setattr(dataset, "_parse_rows_checked", spy)
        with pytest.raises(ValueError, match="line 8: non-numeric feature value 'abcd'"):
            load_csv(path)
        # Lines 7 and 8 make the fourth block; six lines come before it.
        assert starts == [6]

    @pytest.fixture(scope="class")
    def csv_50k(self, tmp_path_factory):
        rng = np.random.default_rng(11)
        ds = FeatureDataset(rng.standard_normal((50_000, 16)), rng.integers(0, 5, 50_000), 5)
        path = tmp_path_factory.mktemp("memory") / "d50k.csv"
        save_csv(ds, path)
        return path

    @pytest.mark.parametrize("load", [load_csv, load_csv_rows])
    def test_parse_holds_the_arrays_and_a_few_blocks(self, csv_50k, load):
        tracemalloc.start()
        try:
            out = load(csv_50k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ds, rows = out if isinstance(out, tuple) else (out, [])
        arrays = ds.features.nbytes + ds.labels.nbytes
        # The row text load_csv_rows returns is output, not working memory.
        kept = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)) if rows else 0
        assert peak - kept <= 2.5 * arrays + 4 * dataset._BLOCK_CHARS
        # The whole-text reader held the text and its lines at once: 5.2 times
        # the arrays for load_csv, and the whole text besides the rows.
        assert peak - kept < csv_50k.stat().st_size

    def test_rows_are_the_data_lines_as_read(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"f0,f1,label\r\n 1.0,+2,0\r\n\r\n  \n1e0,-0,1 \n")
        ds, rows = load_csv_rows(path)
        assert rows == [" 1.0,+2,0", "1e0,-0,1 "]
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [1.0, -0.0]])
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_written_file_has_directive_and_lf_endings(self, tmp_path):
        ds = FeatureDataset([[1.0, 2.0]], [0], 3)
        path = tmp_path / "w.csv"
        save_csv(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        assert text.startswith("# classes=3\nf0,f1,label\n")


class TestStratifiedSplit:
    def test_default_ratios_give_70_15_15_per_class(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n_classes=5, dim=3, per_class=100)
        train, val, test = stratified_split(ds, SplitRatios(), seed=11)
        for split, want in ((train, 70), (val, 15), (test, 15)):
            assert list(split.class_counts()) == [want] * 5

    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            ds = random_dataset(rng, n_classes=4, dim=2, per_class=int(rng.integers(4, 40)))
            parts = stratified_split(ds, SplitRatios(), seed=seed)
            combined = sorted(row_multiset(parts[0]) + row_multiset(parts[1]) + row_multiset(parts[2]))
            assert combined == row_multiset(ds)

    def test_per_class_deviation_at_most_one(self):
        rng = np.random.default_rng(99)
        ratios = SplitRatios(0.6, 0.25, 0.15)
        for _ in range(20):
            per_class = int(rng.integers(10, 80))
            ds = random_dataset(rng, n_classes=3, dim=2, per_class=per_class)
            for split, frac in zip(stratified_split(ds, ratios, seed=5), ratios.as_tuple()):
                for count in split.class_counts():
                    assert abs(count - frac * per_class) <= 1.0 + 1e-9

    def test_three_sample_class_gets_one_per_split(self):
        features = np.arange(9, dtype=float).reshape(3, 3)
        ds = FeatureDataset(features, [0, 0, 0], 2)
        # need a second class too; give it 3 samples as well
        ds = FeatureDataset(
            np.vstack([features, features + 100.0]), [0, 0, 0, 1, 1, 1], 2
        )
        for seed in range(5):
            parts = stratified_split(ds, SplitRatios(0.34, 0.33, 0.33), seed=seed)
            for part in parts:
                assert list(part.class_counts()) == [1, 1]

    def test_same_seed_identical_different_seed_same_counts(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n_classes=3, dim=2, per_class=17)
        ratios = SplitRatios()
        for seed in range(20):
            a = stratified_split(ds, ratios, seed=seed)
            b = stratified_split(ds, ratios, seed=seed)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x.features, y.features)
                np.testing.assert_array_equal(x.labels, y.labels)
            c = stratified_split(ds, ratios, seed=seed + 1000)
            for x, y in zip(a, c):
                assert list(x.class_counts()) == list(y.class_counts())

    def test_indices_select_the_split_datasets(self):
        ds = random_dataset(np.random.default_rng(6), n_classes=3, dim=2, per_class=11)
        indices = stratified_split_indices(ds, SplitRatios(), seed=4)
        assert sorted(np.concatenate(indices).tolist()) == list(range(ds.n_samples))
        for sel, part in zip(indices, stratified_split(ds, SplitRatios(), seed=4)):
            np.testing.assert_array_equal(part.features, ds.features[sel])
            np.testing.assert_array_equal(part.labels, ds.labels[sel])

    def test_small_class_rejected_by_name(self):
        ds = FeatureDataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match="class 1"):
            stratified_split(ds, SplitRatios(), seed=0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            SplitRatios(0.7, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitRatios(1.0, 0.0, 0.0)


class TestSmote:
    def test_zero_synthesis_returns_input(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, n_classes=3, dim=4, per_class=6)
        out = smote_oversample(ds, ds.class_counts(), seed=9)
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_two_point_class_interpolates_on_segment(self):
        a = np.array([0.0, 0.0])
        b = np.array([2.0, 4.0])
        ds = FeatureDataset(np.vstack([a, b, [9.0, 9.0]]), [0, 0, 1], 2)
        out = smote_oversample(ds, [3, 1], seed=123)
        new = out.features[-1]
        # new = a + u*(b-a) for some u in [0,1]: components agree on u
        u0 = new[0] / 2.0
        u1 = new[1] / 4.0
        assert abs(u0 - u1) < 1e-12
        assert -1e-12 <= u0 <= 1.0 + 1e-12

    def test_synthetics_stay_in_class_hull(self):
        """2-D oversampling never leaves the convex hull of the source class."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            counts = [int(rng.integers(5, 15)) for _ in range(3)]
            features = []
            labels = []
            for c, n_c in enumerate(counts):
                features.append(rng.standard_normal((n_c, 2)) + 6.0 * c)
                labels.extend([c] * n_c)
            ds = FeatureDataset(np.vstack(features), labels, 3)
            target = [max(counts) + 5] * 3
            out = smote_oversample(ds, target, seed=int(rng.integers(1 << 20)))
            hulls = {c: convex_hull_2d(ds.features[ds.labels == c]) for c in range(3)}
            for row, label in zip(out.features[ds.n_samples :], out.labels[ds.n_samples :]):
                assert inside_hull_2d(row, hulls[int(label)])

    def test_originals_kept_and_targets_hit_exactly(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n_classes=4, dim=3, per_class=5)
        # drop some rows to unbalance
        keep = np.concatenate([np.flatnonzero(ds.labels == c)[: 2 + c] for c in range(4)])
        ds = FeatureDataset(ds.features[keep], ds.labels[keep], 4)
        target = [7, 7, 7, 7]
        out = smote_oversample(ds, target, seed=77)
        assert list(out.class_counts()) == target
        combined = row_multiset(out)
        for row in row_multiset(ds):
            combined.remove(row)  # raises if an original went missing

    def test_target_below_current_rejected(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n_classes=2, dim=2, per_class=4)
        with pytest.raises(ValueError, match="class 0"):
            smote_oversample(ds, [3, 4], seed=0)

    def test_singleton_class_cannot_synthesize(self):
        ds = FeatureDataset([[0.0], [1.0], [2.0]], [0, 1, 1], 2)
        with pytest.raises(ValueError, match="class 0"):
            smote_oversample(ds, [2, 2], seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_classes=2, dim=3, per_class=4)
        a = smote_oversample(ds, [9, 9], seed=31)
        b = smote_oversample(ds, [9, 9], seed=31)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


def argsort_neighbors(members, k):
    """The neighbor search as a full stable argsort of every distance row."""
    sq = (members**2).sum(axis=1)
    dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * members @ members.T, 0.0)
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


@st.composite
def smote_classes(draw):
    """(members, k): a class of 2 to 24 rows, often with duplicate rows and
    integer features, so distances tie; k from 1 to n_c - 1."""
    n_c = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        pool = draw(st.lists(
            st.lists(st.integers(-2, 2).map(float), min_size=d, max_size=d),
            min_size=1, max_size=n_c,
        ))
        rows = draw(st.lists(st.sampled_from(pool), min_size=n_c, max_size=n_c))
    else:
        value = st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 5e-324, 1e200, -1e200])
        rows = draw(st.lists(
            st.lists(value, min_size=d, max_size=d), min_size=n_c, max_size=n_c,
        ))
    k = draw(st.sampled_from([1, n_c - 1]) | st.integers(1, n_c - 1))
    return np.array(rows, dtype=np.float64), k


@settings(max_examples=300, deadline=None)
@given(case=smote_classes())
@example(case=(np.array([[0.0], [0.0]]), 1))
@example(case=(np.array([[1.0, 2.0]] * 5 + [[0.0, 0.0]]), 5))
@example(case=(np.array([[1e200], [-1e200], [0.0], [3.0]]), 2))
def test_nearest_neighbors_match_stable_argsort(case):
    members, k = case
    with np.errstate(all="ignore"):
        want = argsort_neighbors(members, k)
        got = dataset._nearest_neighbors(members, k)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestGenerateSynthetic:
    def test_near_zero_noise_collapses_to_means(self):
        cfg = SyntheticConfig(3, 4, (5, 5, 5), class_separation=2.0, noise_scale=1e-13)
        ds = generate_synthetic(cfg, seed=6)
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.max(np.abs(block - block[0])) < 2e-12
            # means sit on the sphere of radius class_separation
            assert abs(np.linalg.norm(block[0]) - 2.0) < 1e-10

    def test_counts_and_labels(self):
        cfg = SyntheticConfig(4, 2, (3, 1, 2, 5))
        ds = generate_synthetic(cfg, seed=0)
        assert list(ds.class_counts()) == [3, 1, 2, 5]
        assert ds.feature_dim == 2

    def test_same_seed_byte_identical_csv(self, tmp_path):
        cfg = SyntheticConfig(3, 5, (4, 4, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(generate_synthetic(cfg, seed=21), p1)
        save_csv(generate_synthetic(cfg, seed=21), p2)
        assert p1.read_bytes() == p2.read_bytes()
        save_csv(generate_synthetic(cfg, seed=22), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="class 1"):
            SyntheticConfig(2, 3, (4, 0))
        with pytest.raises(ValueError):
            SyntheticConfig(2, 3, (4,))
        with pytest.raises(ValueError):
            SyntheticConfig(2, 3, (4, 4), class_separation=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(2, 3, (4, 4), noise_scale=-1.0)
