"""Smoke test: every script under demos/ runs cleanly against src/.

Each demo runs in its own interpreter with PYTHONPATH pointing at this
checkout's src/, so the test exercises the code here rather than an installed
copy. A demo passes when it exits 0, writes nothing to stderr and leaves
its temp dir empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert list(tmpdir.iterdir()) == [], "demo left files in its temp dir"
