"""Atomic file writes: an output file is either complete or absent.

Reports, models and traces are text through ``write_lines`` and
``write_json``; ``score_posterior`` writes its binary ``samples.npy``
through ``atomic_write``'s file descriptor.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os

__all__ = ["atomic_write", "write_json", "write_lines"]

# Lines per write in write_lines: a standalone `gen --classes 100 --dim 256
# --per-class 50` peaked at 68 MiB with 1024, 87 MiB with 2048 and 122 MiB
# joining the whole file (ru_maxrss, 2-core VM), in the same time.
_BLOCK_LINES = 1024


@contextlib.contextmanager
def atomic_write(path):
    """Open a text file that takes the place of `path` when the block succeeds.

    Writes go to a temporary file in the same directory, so the final
    os.replace is an atomic rename. If the block raises, the temporary file
    is removed and whatever `path` held before stays untouched. A writer of
    fixed-size binary records may instead ``os.pwrite`` them at their
    offsets through ``handle.fileno()``, from any thread, as long as it
    writes nothing through the handle itself.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_lines(path, lines) -> None:
    """Commit `lines`, any iterable, as one newline-terminated line each,
    _BLOCK_LINES at a time; no lines at all write one "\\n"."""
    lines = iter(lines)
    blocks = iter(lambda: list(itertools.islice(lines, _BLOCK_LINES)), [])
    with atomic_write(path) as handle:
        handle.write("\n".join(next(blocks, [])) + "\n")
        for block in blocks:
            handle.write("\n".join(block) + "\n")


def write_json(path, doc) -> None:
    """Commit `doc` as JSON with sorted keys, 2-space indent and a final newline."""
    with atomic_write(path) as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
