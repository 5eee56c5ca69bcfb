from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negeval
from negeval import Corpus, load_sem_conll

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE_PATH = Path(__file__).parents[1] / "perfbench" / "reference.py"


def _load_reference():
    """``perfbench/reference.py``, the from-definition scorer, loaded by path
    so that the tests and the benchmark check against the same code."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def outputs_under_hash_seeds(args: list[str], seeds=range(8)) -> set[tuple[int, str, str]]:
    """The distinct ``(exit code, stdout, stderr)`` of ``python *args``, run
    once under each ``PYTHONHASHSEED`` of ``seeds``."""
    src = str(Path(negeval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = set()
    for seed in seeds:
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
        outputs.add((done.returncode, done.stdout, done.stderr))
    return outputs


@pytest.fixture(scope="session")
def gold_corpus() -> Corpus:
    return load_sem_conll(fixture_path("two_systems_gold.conll"), name="two-systems-gold")


@pytest.fixture(scope="session")
def system_a() -> Corpus:
    return load_sem_conll(fixture_path("two_systems_a.conll"), name="system-a")


@pytest.fixture(scope="session")
def system_b() -> Corpus:
    return load_sem_conll(fixture_path("two_systems_b.conll"), name="system-b")


@pytest.fixture(scope="session")
def nested_corpus() -> Corpus:
    return load_sem_conll(fixture_path("nested_scopes.conll"), name="nested-scopes")
