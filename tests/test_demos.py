"""Every demo script runs to completion against the current package."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negeval
from negeval import full_report

DEMOS_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMOS_DIR.glob("*.py"))


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


def test_the_metric_contrasts_demo_shows_both_contrasts():
    spec = importlib.util.spec_from_file_location("metric_contrasts", DEMOS_DIR / "05_metric_contrasts.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    gold = demo.gold_corpus()
    long_only, short_only = (full_report(gold, pred).metrics for pred in demo.systems(gold))
    # ST ranks L first, Inst-tok ranks S first
    assert long_only["st"].f1 > short_only["st"].f1
    assert long_only["inst_tok"].f1 < short_only["inst_tok"].f1
    for metrics in (long_only, short_only):
        assert metrics["cues_exact_b"].f1 == 1.0
        assert metrics["scm"].precision == metrics["inst_tok"].precision == 1.0
        assert metrics["scm_b"].precision < 1.0
