"""tools/code_lines.py counts the lines that hold code, module by module.

The script is a standalone tool, not part of the package, so it is imported
from its path.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Each line that counts ends in "# code"; a comment alone on a line does not.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code


class Point:  # code
    """Class docstring."""

    x: int = 0  # code

    def norm(self):  # code
        """Function docstring,

        with a blank line inside."""
        # A comment line.
        text = """a string that is  # code
not a docstring"""  # code
        return (  # code
            len(text)  # code
        )  # code


async def wait():  # code
    """Async function docstring."""
    return None  # code
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\n# and a comment\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    expected = FIXTURE.count("# code\n")
    assert expected == 11
    assert capsys.readouterr().out == f"0 a.py\n{expected} b.py\n{expected} total\n"
