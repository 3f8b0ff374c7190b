"""The artifact writers in vbselect.atomic, and a guard that every file writer
in the package goes through them."""

import ast
from pathlib import Path

import pytest

from vbselect.atomic import _BLOCK_LINES, atomic_write, write_json, write_lines

SRC = Path(__file__).resolve().parents[1] / "src" / "vbselect"

# The writers that stream a file too large to build in memory, by
# (module, enclosing function); they open atomic_write directly.
STREAMING_WRITERS = {
    ("inference.py", "score_posterior"), ("inference.py", "save_prob_samples_csv"),
}


def test_write_lines_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["a,b", "1,2"])
    assert path.read_bytes() == b"a,b\n1,2\n"


@pytest.mark.parametrize("count", [0, 1, _BLOCK_LINES, _BLOCK_LINES + 1, 2 * _BLOCK_LINES + 3])
def test_write_lines_streams_any_iterable(tmp_path, count):
    lines = [f"row {i}" for i in range(count)]
    path = tmp_path / "out.csv"
    write_lines(path, iter(lines))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_write_json_layout(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.csv"
    write_lines(path, ["old"])
    with pytest.raises(RuntimeError):
        with atomic_write(path) as handle:
            handle.write("new\n")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _calls(tree):
    """(enclosing function name or None, call node) for every call in tree."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield function, child
            yield from visit(child, function)

    return visit(tree, None)


def _callee(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        return owner, func.attr
    if isinstance(func, ast.Name):
        return None, func.id
    return None, None


def test_file_writers_go_through_atomic_helpers():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    offenders = []
    for module in modules:
        if module.name == "atomic.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                if any(alias.name == "dumps" for alias in node.names):
                    offenders.append(f"{module.name}:{node.lineno} imports json.dumps")
        for function, call in _calls(tree):
            owner, name = _callee(call)
            if (owner, name) == ("json", "dumps"):
                offenders.append(f"{module.name}:{call.lineno} calls json.dumps")
            if name == "atomic_write" and (module.name, function) not in STREAMING_WRITERS:
                offenders.append(f"{module.name}:{call.lineno} calls atomic_write")
    assert offenders == []
