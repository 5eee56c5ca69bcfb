"""What importing the package loads, the public names it offers, and the
module attributes the benchmark's tracer replaces."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import negeval

ROOT = Path(__file__).resolve().parents[1]

#: The public names, as ``negeval.__all__`` listed them before its names
#: were imported on first access.
PUBLIC_NAMES = {
    "AlignmentError", "AnnotationElement", "CharSpan", "Corpus", "CorpusStats", "CueMatchMode",
    "Diagnostic", "EncodingKind", "EXACT_SCORER", "GraphError", "InstanceAlignment", "MetricReport",
    "NegDepGraph", "NegationInstance", "NegevalError", "PRF", "ParseError", "PatchError",
    "ReannotationPatch", "ScopeScorer", "Sentence", "SplitError", "SplitSpec", "Token",
    "TOKEN_SCORER", "TokenizerConfig", "UsageError", "align", "align_corpus", "apply_patches",
    "corpus_stats", "correct_sentence_ratio", "cue_scores", "decode", "detect_coordination_cues",
    "dump_sem_conll", "element_for", "encode", "exact_match_scores", "format_patch_file",
    "full_report", "instance_scores", "load_bioscope", "load_sem_conll", "load_sfu",
    "parse_bioscope", "parse_patch_file", "parse_sem_conll", "parse_sfu", "percent",
    "punct_baseline", "scope_match", "scope_tokens", "split_corpus", "strip_punctuation",
    "token_overlap_scores", "tokenize", "validate", "write_sem_conll",
}

#: Modules that only some commands use.
COMMAND_MODULES = {"bioscope", "sfu", "tokenizer", "datatools", "baseline"}


def _loaded_after(statement: str) -> set[str]:
    """The ``negeval`` modules a fresh interpreter holds after ``statement``."""
    src = str(Path(negeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = f"{statement}; import sys; print(' '.join(m for m in sys.modules if m.startswith('negeval.')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return {name.removeprefix("negeval.") for name in done.stdout.split()}


def test_importing_the_cli_loads_no_command_module():
    loaded = _loaded_after("import negeval.cli")
    assert "cli" in loaded
    assert loaded.isdisjoint(COMMAND_MODULES), sorted(loaded & COMMAND_MODULES)


def test_importing_the_package_loads_no_module():
    assert _loaded_after("import negeval") == set()
    assert _loaded_after("from negeval import Token") == {"model"}


def test_star_import_binds_exactly_the_public_names():
    assert set(negeval.__all__) == PUBLIC_NAMES
    assert len(negeval.__all__) == len(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from negeval import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    assert namespace["Token"] is negeval.model.Token
    assert namespace["load_sfu"] is negeval.sfu.load_sfu


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert PUBLIC_NAMES <= set(dir(negeval))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        negeval.no_such_name  # noqa: B018
    assert not hasattr(negeval, "_private")
    assert negeval.__version__ == "0.1.0"


def test_every_traced_name_is_an_attribute_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    for owner, attribute, _, _ in tracing._TARGETS:
        assert attribute in owner.__dict__, (owner.__name__, attribute)
    tracer = tracing.Tracer()
    originals = [owner.__dict__[attribute] for owner, attribute, _, _ in tracing._TARGETS]
    tracer.install()
    try:
        assert all(
            owner.__dict__[attribute] is not original
            for (owner, attribute, _, _), original in zip(tracing._TARGETS, originals)
        )
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attribute] for owner, attribute, _, _ in tracing._TARGETS] == originals
