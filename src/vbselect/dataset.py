"""Feature-vector classification datasets: CSV I/O, synthesis, splitting, SMOTE.

All operations are pure functions of their inputs plus an integer seed, so
pipelines rerun bit-identically. Datasets are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_lines

_CLASS_DIRECTIVE = "# classes="
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class FeatureDataset:
    """N x D matrix of finite features with integer labels in [0, num_classes).

    Arrays are coerced to float64 / int64 and frozen; share freely across
    threads for reading.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if features.shape[1] < 1:
            raise ValueError("dataset must have at least one feature")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector with one entry per feature row")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        features.setflags(write=False)
        labels.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class SplitRatios:
    """Train/val/test fractions, each in (0, 1), summing to 1."""

    train: float = 0.70
    val: float = 0.15
    test: float = 0.15

    def __post_init__(self):
        for name in ("train", "val", "test"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} ratio must lie in (0, 1), got {value}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.train, self.val, self.test)


@dataclass(frozen=True)
class SyntheticConfig:
    """Recipe for a separable-by-construction Gaussian blob dataset.

    Class means sit on a sphere of radius class_separation; samples add
    isotropic noise of scale noise_scale.
    """

    num_classes: int
    feature_dim: int
    samples_per_class: tuple[int, ...]
    class_separation: float = 4.0
    noise_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "samples_per_class", tuple(int(c) for c in self.samples_per_class)
        )
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        if len(self.samples_per_class) != self.num_classes:
            raise ValueError("samples_per_class must list one count per class")
        for c, count in enumerate(self.samples_per_class):
            if count < 1:
                raise ValueError(f"class {c} needs at least 1 sample, got {count}")
        if not self.class_separation > 0:
            raise ValueError("class_separation must be positive")
        if not self.noise_scale > 0:
            raise ValueError("noise_scale must be positive")


def save_csv(ds: FeatureDataset, path) -> None:
    """Write the dataset CSV: class directive, header, one row per sample.

    %.17g (the same text as format(x, ".17g")) round-trips every float64.
    """
    write_lines(path, itertools.chain(csv_preamble(ds), format_rows(ds.features, ds.labels)))


def csv_preamble(ds: FeatureDataset) -> list[str]:
    """The class directive and header lines of ds's CSV."""
    header = ",".join(f"f{j}" for j in range(ds.feature_dim)) + ",label"
    return [f"{_CLASS_DIRECTIVE}{ds.num_classes}", header]


def format_rows(features: np.ndarray, labels: np.ndarray) -> Iterator[str]:
    """Yield the CSV data row of each sample: features at %.17g, then the label."""
    template = "%.17g," * features.shape[1] + "%d"
    # About 64k values at a time: a whole-file tolist() holds more memory
    # in Python floats than the lines themselves.
    step, labels = max(1, 2**16 // features.shape[1]), labels.tolist()
    for first in range(0, len(labels), step):
        rows = zip(features[first : first + step].tolist(), labels[first : first + step])
        yield from (template % (*row, label) for row, label in rows)


def load_csv(path) -> FeatureDataset:
    """Read a dataset CSV written by :func:`save_csv` or by hand.

    Layout: optional first line ``# classes=K``, then a header naming the
    feature columns ``f0..f{D-1}`` plus ``label``, then data rows. One
    byte-order mark before the first line is skipped. Every error in the
    contents raises ValueError naming the file, and a malformed line's also
    names its 1-based physical line number (``FILE: line N: ...``).

    The file is read in blocks of lines, never whole, so the memory held is
    the parsed arrays, twice while the blocks are joined, plus one block.
    numpy's parser reads each block's data rows; a block with a row it
    rejects or that fails a check goes through the line-by-line loop
    instead, so the result and every error message are the loop's.
    """
    return _read_csv(path, None)


def load_csv_rows(path) -> tuple[FeatureDataset, list[str]]:
    """:func:`load_csv`'s dataset and the file's data rows, from one read.

    The rows are the non-blank lines after the header, in row order, with
    their text as read (no line ending), so row i holds sample i.
    """
    rows: list[str] = []
    return _read_csv(path, rows), rows


# Characters read per block. Median parse time of load_csv on a 100k-row,
# D=16 file (32 MB), nine interleaved runs on a 2-core VM with Python 3.11.7
# and numpy 2.4.6:
#   64 KiB 0.472 s, 256 KiB 0.468 s, 1 MiB 0.468 s, 4 MiB 0.489 s,
#   the whole text at once 0.506 s.
_BLOCK_CHARS = 2**18


def _read_csv(path, rows: list[str] | None) -> FeatureDataset:
    """load_csv's dataset; each data row's text is appended to rows unless None."""
    path = Path(path)
    try:
        # Not "utf-8-sig": its error positions count from after the mark.
        with open(path, encoding="utf-8") as file:
            try:
                return _parse_blocks(_line_blocks(file), rows)
            except UnicodeDecodeError:
                raise
            except ValueError:
                # A byte that is not UTF-8 anywhere in the file is the error
                # reported, as when the whole text was decoded before parsing.
                while file.read(_BLOCK_CHARS):
                    pass
                raise
    except UnicodeDecodeError as exc:
        # The reader's decoder counts positions from its last read; decoding
        # the whole file names the byte's offset in the file.
        error = exc
        try:
            path.read_text(encoding="utf-8")
        except UnicodeDecodeError as whole:
            error = whole
        raise ValueError(f"{path}: {error}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _line_blocks(file) -> Iterator[list[str]]:
    """The text file's lines, as str.splitlines() splits its whole text, in blocks.

    One byte-order mark before the first line is dropped. Universal newlines
    turn "\\r\\n" and "\\r" into "\\n", so every line end left is one
    character and none is split between two reads; a line a read cuts off is
    carried into the next block.
    """
    carry: list[str] = []
    # A read of one character may hold only the mark.
    text = file.read(_BLOCK_CHARS).removeprefix("\ufeff") or file.read(_BLOCK_CHARS)
    while text:
        lines = text.splitlines()
        if carry:
            carry.append(lines[0])
            lines[0] = "".join(carry)
            carry = []
        if text[-1].splitlines() != [""]:  # the read stopped inside a line
            carry.append(lines.pop())
        if lines:
            yield lines
        text = file.read(_BLOCK_CHARS)
    if carry:
        yield ["".join(carry)]


def _parse_blocks(blocks: Iterator[list[str]], rows: list[str] | None) -> FeatureDataset:
    """The dataset in the blocks of lines; rows gets each data row's text."""
    head: list[str] = []
    for lines in blocks:
        head += lines
        if len(head) >= 2:
            break
    lineno, dim, declared_classes = _read_preamble(head)
    features, labels = [], []
    for lines in itertools.chain([head[lineno:]], blocks):
        block_rows = [row for row in lines if row.strip()]
        if block_rows:
            parsed = _parse_rows_numpy(block_rows, dim, declared_classes)
            if parsed is None:
                parsed = _parse_rows_checked(lines, lineno, dim, declared_classes)
            features.append(parsed[0])
            labels.append(parsed[1])
            if rows is not None:
                rows += block_rows
        lineno += len(lines)
    if not features:
        raise ValueError("no data rows")
    # One copy of the blocks' strided views into contiguous arrays; the
    # rebinding frees the blocks before FeatureDataset checks the features.
    labels = np.concatenate(labels)
    features = np.concatenate(features)
    num_classes = declared_classes if declared_classes is not None else int(labels.max()) + 1
    return FeatureDataset(features, labels, num_classes)


def _read_preamble(lines: list[str]) -> tuple[int, int, int | None]:
    """Check the class directive and header; return (lines read, D, declared K)."""
    lineno = 0
    declared_classes = None
    if lines and lines[0].startswith("#"):
        lineno = 1
        if lines[0].startswith(_CLASS_DIRECTIVE):
            raw = lines[0][len(_CLASS_DIRECTIVE):].strip()
            try:
                declared_classes = int(raw)
            except ValueError:
                raise ValueError(f"line 1: bad class directive {lines[0]!r}") from None
            if declared_classes < 2:
                raise ValueError("line 1: declared class count must be at least 2")

    if lineno >= len(lines):
        raise ValueError("missing header row")
    header = lines[lineno].split(",")
    lineno += 1
    if len(header) < 2 or header[-1] != "label":
        raise ValueError(f"line {lineno}: header must end with a 'label' column")
    dim = len(header) - 1
    expected = [f"f{j}" for j in range(dim)]
    if header[:-1] != expected:
        raise ValueError(f"line {lineno}: feature columns must be named f0..f{dim - 1}")
    return lineno, dim, declared_classes


def _parse_rows_numpy(rows: list[str], dim: int, declared_classes: int | None):
    """(features, labels) of the non-blank rows by one np.loadtxt pass, or None to defer.

    numpy reads a float with the routine float() uses, so the arrays equal
    the checked loop's bit for bit. It is stricter than float() and int()
    (no "1_0", no non-ASCII digits), and with a row dtype of dim + 1 fields
    and no usecols it rejects any row with more or fewer fields; None hands
    every such block, and every value the loop would reject, to the loop.
    The rows are the loop's own splitlines() lines, not the file: numpy
    takes "\\x1c", "\\x85" and "\\u2028" for spaces inside a line, where
    splitlines() ends the line.
    """
    row_type = np.dtype([("features", np.float64, (dim,)), ("label", np.int64)])
    try:
        # numpy 1.x reads the label "1.0" as 1 with only a DeprecationWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=row_type, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    # Strided views of the table; FeatureDataset makes contiguous copies.
    features, labels = table["features"], table["label"]
    if not np.isfinite(features).all() or labels.min() < 0:
        return None
    if declared_classes is not None and labels.max() >= declared_classes:
        return None
    return features, labels


def _parse_rows_checked(
    lines: list[str], lineno: int, dim: int, declared_classes: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of a block of lines holding a data row, field by field.

    lineno counts the file's lines before the block. The first bad field
    raises ValueError naming its 1-based line number in the file.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    for raw_line in lines:
        lineno += 1
        if not raw_line.strip():
            continue
        fields = raw_line.split(",")
        if len(fields) != dim + 1:
            raise ValueError(
                f"line {lineno}: expected {dim + 1} fields, got {len(fields)}"
            )
        row = []
        for j, field in enumerate(fields[:-1]):
            try:
                value = float(field)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric feature value {field!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: non-finite feature value {field!r}")
            row.append(value)
        try:
            label = int(fields[-1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-integer label {fields[-1]!r}"
            ) from None
        if label < 0:
            raise ValueError(f"line {lineno}: negative label {label}")
        if declared_classes is not None and label >= declared_classes:
            raise ValueError(
                f"line {lineno}: label {label} exceeds declared classes {declared_classes}"
            )
        if label > _INT64_MAX:
            raise ValueError(f"line {lineno}: label {label} out of range")
        features.append(row)
        labels.append(label)
    return np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64)


def _largest_remainder_counts(n: int, fractions: tuple[float, ...]) -> list[int]:
    """Split n into len(fractions) integer counts by largest-remainder rounding.

    Guarantees every part gets at least one when n >= len(fractions), taking
    from the currently largest part (lowest index on ties).
    """
    quotas = [f * n for f in fractions]
    counts = [int(np.floor(q)) for q in quotas]
    remainder = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    if n >= len(fractions):
        # With n >= #parts and counts summing to n, any zero part implies some
        # other part holds >= 2, so each transfer strictly reduces the number
        # of zeros and the loop terminates.
        while min(counts) == 0:
            recipient = counts.index(0)
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[recipient] += 1
    return counts


def stratified_split(
    ds: FeatureDataset, ratios: SplitRatios, seed: int
) -> tuple[FeatureDataset, FeatureDataset, FeatureDataset]:
    """The train, val and test datasets of :func:`stratified_split_indices`."""
    train, val, test = (
        FeatureDataset(ds.features[sel], ds.labels[sel], ds.num_classes)
        for sel in stratified_split_indices(ds, ratios, seed)
    )
    return train, val, test


def stratified_split_indices(
    ds: FeatureDataset, ratios: SplitRatios, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle each class with a seeded RNG and partition it by the ratios.

    Returns the train, val and test row indices into ds, class by class.
    Per-class counts follow largest-remainder rounding, with every split
    receiving at least one sample of every class. The three parts are
    disjoint and their union is every row.
    """
    counts = ds.class_counts()
    for c, count in enumerate(counts):
        if count < 3:
            raise ValueError(
                f"class {c} has only {int(count)} samples; need at least 3 to split"
            )
    rng = np.random.default_rng(seed)
    fractions = ratios.as_tuple()
    parts: list[list[np.ndarray]] = [[], [], []]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        idx = rng.permutation(idx)
        n_train, n_val, _ = _largest_remainder_counts(idx.size, fractions)
        parts[0].append(idx[:n_train])
        parts[1].append(idx[n_train : n_train + n_val])
        parts[2].append(idx[n_train + n_val :])
    train, val, test = (np.concatenate(bucket) for bucket in parts)
    return train, val, test


def smote_oversample(
    ds: FeatureDataset,
    target_counts,
    k_neighbors: int = 5,
    seed: int = 0,
) -> FeatureDataset:
    """Grow minority classes by interpolating between same-class neighbors.

    Each synthetic point is x + u * (x_nn - x) for a random class member x,
    one of its k nearest same-class neighbors x_nn (Euclidean), and
    u ~ Uniform(0, 1). Originals are kept; per-class output counts equal
    target_counts exactly.
    """
    try:
        target_counts = np.asarray(target_counts, dtype=np.int64)
    except OverflowError:  # an integer beyond int64, e.g. from balance --target
        raise ValueError("target_counts must fit in int64") from None
    if target_counts.shape != (ds.num_classes,):
        raise ValueError("target_counts must list one count per class")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    current = ds.class_counts()
    for c in range(ds.num_classes):
        if target_counts[c] < current[c]:
            raise ValueError(
                f"class {c}: target {int(target_counts[c])} below current count {int(current[c])}"
            )
        if target_counts[c] > current[c] and current[c] < 2:
            raise ValueError(f"class {c} needs at least 2 samples to synthesize from")

    # Python ints: a sum of int64 needs could wrap.
    needs = [int(target) - int(count) for target, count in zip(target_counts, current)]
    if not any(needs):
        return ds
    donors = []
    for c, need in enumerate(needs):
        if need:
            members = ds.features[ds.labels == c]
            k_eff = min(k_neighbors, members.shape[0] - 1)
            donors.append((c, need, members, _nearest_neighbors(members, k_eff)))
    # The whole output only once the distance matrices, the largest
    # temporaries, are freed; so an absurd target fails here, before any
    # row is drawn.
    start = ds.n_samples
    features = np.empty((start + sum(needs), ds.feature_dim))
    labels = np.empty(features.shape[0], dtype=np.int64)
    features[:start], labels[:start] = ds.features, ds.labels
    rng = np.random.default_rng(seed)
    for c, need, members, neighbors in donors:
        n_c, k_eff = neighbors.shape
        labels[start : start + need] = c
        for row in range(start, start + need):
            i = int(rng.integers(n_c))
            j = int(neighbors[i, rng.integers(k_eff)])
            u = rng.random()
            features[row] = members[i] + u * (members[j] - members[i])
        start += need
    return FeatureDataset(features, labels, ds.num_classes)


def _nearest_neighbors(members: np.ndarray, k: int) -> np.ndarray:
    """Each member's k nearest other members (Euclidean), nearest first.

    Equal to the first k columns of a stable argsort of each distance row,
    so ties go to the lower index. np.partition finds each row's k-th
    smallest distance; a row with exactly k entries at or below it sorts
    only those k. Any other row, with a tie at the k-th distance or a NaN
    there (from an overflowing square), takes the full stable argsort.
    """
    sq = (members**2).sum(axis=1)
    dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * members @ members.T, 0.0)
    np.fill_diagonal(dist, np.inf)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    within = dist <= kth
    exact = np.count_nonzero(within, axis=1) == k
    neighbors = np.empty((members.shape[0], k), dtype=np.intp)
    rows = np.flatnonzero(exact)
    # nonzero() lists each row's k columns in index order; the stable sort
    # by distance then breaks ties as the full argsort does.
    cols = np.nonzero(within[rows])[1].reshape(-1, k)
    order = np.argsort(dist[rows[:, None], cols], axis=1, kind="stable")
    neighbors[rows] = np.take_along_axis(cols, order, axis=1)
    rest = np.flatnonzero(~exact)
    neighbors[rest] = np.argsort(dist[rest], axis=1, kind="stable")[:, :k]
    return neighbors


def generate_synthetic(cfg: SyntheticConfig, seed: int) -> FeatureDataset:
    """Sample the blob dataset described by cfg, deterministically per seed.

    Class means are drawn first (uniform direction scaled to the separation
    radius), then per-class samples, so the class geometry for a given seed
    does not depend on the sample counts.
    """
    rng = np.random.default_rng(seed)
    means = np.empty((cfg.num_classes, cfg.feature_dim))
    for c in range(cfg.num_classes):
        direction = rng.standard_normal(cfg.feature_dim)
        direction /= np.linalg.norm(direction)
        means[c] = cfg.class_separation * direction
    blocks = []
    labels = []
    for c in range(cfg.num_classes):
        n_c = cfg.samples_per_class[c]
        blocks.append(means[c] + cfg.noise_scale * rng.standard_normal((n_c, cfg.feature_dim)))
        labels.append(np.full(n_c, c, dtype=np.int64))
    return FeatureDataset(np.vstack(blocks), np.concatenate(labels), cfg.num_classes)
