"""The byte contract: a fresh artifact listing against the committed one.

``tools/artifact_digests.txt`` is ``tools/artifact_digests.py``'s listing
from one reference host, header included. The test re-runs the tool and
compares the two listings:

* when the header names the same CPU kernels (numpy version and dispatch
  target, BLAS and its core type), every line;
* otherwise only the part that stayed the same on every kernel measured
  (numpy 2.4.6 under its default dispatch, its baseline dispatch and
  OpenBLAS's Haswell core): every confusion matrix, histogram and sweep
  curve, every ``gen``, ``split`` and ``balance`` output except the
  ``wide/`` chain's, and every error line. The test prints which header
  fields differed and how many lines it skipped, and a failure names them.

The BLAS thread count in the header is left out of the match: every command
runs with BLAS held at one thread, so no digest depends on it.

A change that moves a digest or an error line on purpose rewrites the
listing in the same commit, so that its diff shows every moved line:

    python3 tools/artifact_digests.py /tmp/digests > tools/artifact_digests.txt
"""

import difflib
import os
import re
import subprocess
import sys
from fnmatch import fnmatchcase

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
LISTING = os.path.join(TOOLS, "artifact_digests.txt")

# Artifacts whose bytes held on every kernel measured; a data-command output
# counts only outside wide/, whose D=256 class means come from a BLAS dot.
_ANY_CHAIN = ("*confusion_*.csv", "*histogram.csv", "*sweep*.csv")
_DATA_OUTPUTS = ("bulk.csv", "*/data.csv", "*/balanced.csv", "*/splits/*.csv")


def _is_digest(line):
    return len(line) > 66 and line[64:66] == "  "


def _portable(line):
    """True for an error line, or a digest of an artifact no kernel moved."""
    if not _is_digest(line):
        return True
    path = line[66:]
    if any(fnmatchcase(path, pattern) for pattern in _ANY_CHAIN):
        return True
    return not path.startswith("wide/") and any(
        fnmatchcase(path, pattern) for pattern in _DATA_OUTPUTS
    )


def _kernel_fields(header):
    """The header's comma-separated fields, without the BLAS thread count."""
    return [field for field in header.lstrip("# ").split(", ")
            if not field.startswith("BLAS threads")]


def compare_listings(committed, current):
    """(differences, note) between two listings, each a list of lines.

    `differences` is a unified diff of the lines compared, empty when they
    agree; `note` says what was compared and, if the headers name other
    kernels, which fields differed and how many lines were skipped.
    """
    (head, *expected), (new_head, *actual) = committed, current
    old_fields, new_fields = _kernel_fields(head), _kernel_fields(new_head)
    if old_fields == new_fields:
        note = f"same kernels; compared all {len(expected)} lines"
    else:
        changed = [f"{old!r} -> {new!r}"
                   for old, new in zip(old_fields, new_fields) if old != new]
        if len(old_fields) != len(new_fields):
            changed.append(f"{head!r} -> {new_head!r}")
        kept = [line for line in expected if _portable(line)]
        note = (f"header differs ({'; '.join(changed)}); compared the "
                f"{len(kept)} kernel-portable lines, skipped {len(expected) - len(kept)}")
        expected, actual = kept, [line for line in actual if _portable(line)]
    differences = list(difflib.unified_diff(
        expected, actual, "tools/artifact_digests.txt", "this run", lineterm=""
    ))
    return differences, note


def _committed():
    with open(LISTING, encoding="utf-8") as handle:
        return handle.read().splitlines()


def test_listing_matches_committed_one(tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "artifact_digests.py"),
         str(tmp_path / "digests")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0 and result.stderr == "", result.stderr
    differences, note = compare_listings(_committed(), result.stdout.splitlines())
    print(note)
    assert not differences, note + "\n" + "\n".join(differences)


def _with_line_changed(listing, pick):
    """The listing with one character changed in the first line after the
    header that `pick` accepts, and that line as it was."""
    index = next(i for i in range(1, len(listing)) if pick(listing[i]))
    line = listing[index]
    return [*listing[:index], ("1" if line[0] != "1" else "2") + line[1:],
            *listing[index + 1:]], line


def _on_other_kernel(listing):
    return [re.sub(r"CPU dispatch \w+", "CPU dispatch OTHER", listing[0]), *listing[1:]]


class TestCompareListings:
    def test_committed_listing_shape(self):
        # 83 digests, then 21 error lines, each path listed once.
        head, *lines = _committed()
        assert head.startswith("# numpy ")
        digests = [line for line in lines if _is_digest(line)]
        assert len(digests) == 83 and lines[:83] == digests
        assert len({line[66:] for line in digests}) == 83
        assert len(lines) == 83 + 21
        assert sum(map(_portable, digests)) == 45

    @pytest.mark.parametrize("pick", [
        lambda line: _is_digest(line) and not _portable(line),
        lambda line: _is_digest(line) and _portable(line),
        lambda line: not _is_digest(line),
    ], ids=["kernel_bound_digest", "portable_digest", "error_line"])
    def test_one_changed_line_fails_on_same_kernels(self, pick):
        committed = _committed()
        current, line = _with_line_changed(committed, pick)
        differences, note = compare_listings(committed, current)
        assert f"-{line}" in differences
        assert note == f"same kernels; compared all {len(committed) - 1} lines"

    @pytest.mark.parametrize("pick", [
        lambda line: _is_digest(line) and _portable(line),
        lambda line: not _is_digest(line),
    ], ids=["portable_digest", "error_line"])
    def test_one_changed_portable_line_fails_on_other_kernels(self, pick):
        committed = _committed()
        current, line = _with_line_changed(_on_other_kernel(committed), pick)
        differences, note = compare_listings(committed, current)
        assert f"-{line}" in differences
        assert "CPU dispatch OTHER" in note

    def test_kernel_bound_digest_skipped_on_other_kernels(self):
        committed = _committed()
        current, _ = _with_line_changed(
            _on_other_kernel(committed), lambda line: _is_digest(line) and not _portable(line)
        )
        differences, note = compare_listings(committed, current)
        assert differences == []
        assert note.endswith("compared the 66 kernel-portable lines, skipped 38")

    def test_thread_count_alone_keeps_the_full_comparison(self):
        committed = _committed()
        head = re.sub(r"BLAS threads \d+", "BLAS threads 9", committed[0])
        assert head != committed[0]
        _, note = compare_listings(committed, [head, *committed[1:]])
        assert note.startswith("same kernels")
