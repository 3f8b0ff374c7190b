#!/usr/bin/env python3
"""Count the code lines of each module under a package directory.

Usage:

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/vbselect``. A code line is a source line that
holds at least one token other than a comment and lies outside every
docstring, so blank lines, comment-only lines and the lines of module, class
and function docstrings do not count. Each ``*.py`` file directly in the
directory gets one line, ``<count> <file name>``, in name order, and a last
line gives ``<total> total``. Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            # A token may span lines (a triple-quoted string); each counts.
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = Path(argv[0] if argv else "src/vbselect")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no *.py files in {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
