"""Atomic text-file writes: an output file is either complete or absent."""

from __future__ import annotations

import contextlib
import json
import os

__all__ = ["atomic_write", "write_json", "write_lines"]


@contextlib.contextmanager
def atomic_write(path):
    """Open a text file that takes the place of `path` when the block succeeds.

    Writes go to a temporary file in the same directory, so the final
    os.replace is an atomic rename. If the block raises, the temporary file
    is removed and whatever `path` held before stays untouched.
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
    """Commit `lines` as one newline-terminated line each."""
    with atomic_write(path) as handle:
        handle.write("\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    """Commit `doc` as JSON with sorted keys, 2-space indent and a final newline."""
    with atomic_write(path) as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
