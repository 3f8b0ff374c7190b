"""The vbselect names the benchmark under perfbench/ binds are still there.

``perfbench/run.py --trace 1`` wraps every name in ``tracer.TARGETS`` on the
module that binds it, and ``isolated_inference`` in ``perfbench/run.py``
calls the full-grid API directly. A traced run is the only other place
either would fail, so a change to src/ that drops one of these names fails
here instead. The tracer is a standalone script, not part of the package,
so it is imported from its path.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _isolated_inference_reads():
    """(module, attribute) pairs isolated_inference reads, parsed from run.py.

    It reaches each module as ``modules["vbselect.x"]``, either directly or
    through a local name assigned from it, so every attribute read on one of
    those is a name the benchmark needs.
    """
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "isolated_inference")

    def module_of(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "modules" and isinstance(node.slice, ast.Constant)):
            return node.slice.value
        return None

    aliases = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                for name, value in pairs:
                    if isinstance(name, ast.Name) and module_of(value):
                        aliases[name.id] = module_of(value)
    reads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            else:
                module = module_of(node.value)
            if module:
                reads.add((module, node.attr))
    return sorted(reads)


ISOLATED_INFERENCE = _isolated_inference_reads()

BOUND = [
    (module, name) for module, names in tracer.TARGETS.items() for name in names
] + ISOLATED_INFERENCE


@pytest.mark.parametrize("module,name", BOUND, ids=[f"{m}.{n}" for m, n in BOUND])
def test_name_is_bound_and_callable(module, name):
    value = getattr(importlib.import_module(module), name, None)
    assert callable(value), f"{module} no longer binds a callable {name}"


def test_isolated_inference_reads_the_grid_api():
    # Guards the parser above: if it stopped finding run.py's reads, the
    # table would shrink and the guard would pass vacuously.
    assert ("vbselect.inference", "predictive_posterior") in ISOLATED_INFERENCE
    assert len({module for module, _ in ISOLATED_INFERENCE}) >= 4
