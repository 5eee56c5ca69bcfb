"""Every demo script runs to completion against the current package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import negeval

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    src = str(Path(negeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def test_every_demo_is_found():
    assert len(DEMOS) >= 4
