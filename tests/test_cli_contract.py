"""The command line's error contract: a seeded mutation test through ``cli.main``.

Every subcommand runs on mutated copies of its inputs: CoNLL, BioScope and
SFU corpora, direct and nested graphs, a patch file, a split assignment and
a tokenizer rule file.  Half of the mutated graphs have the edge cells of
two rows swapped instead, which the generic mutations rarely get past the
graph reader.  Each case ends in exit 0, or in the exit code of its
error category with exactly one ``negeval: <category>: <message>`` line on
stderr, after any ``negeval: warning:`` lines; never in a traceback.  A
mutated CoNLL file is also evaluated as a prediction against its unmutated
source, and ``evaluate`` must print what it prints when the prediction is
read on its own with ``load_sem_conll``.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from conftest import fixture_path
import negeval.cli
import negeval.conll
from negeval import ReannotationPatch, format_patch_file, load_sem_conll
from negeval.cli import _EXIT_CODES, main
from negeval.depgraph import EncodingKind, encode_corpus
from test_reader_contract import _edit_annotation, _mutate, _read_counting_paths

SEED = 12
CASES = 1500

_ERROR_LINE = re.compile(r"negeval: ([a-z-]+): ")
_CODES = {(category, code) for _, code, category in _EXIT_CODES}


def _inputs() -> dict[str, str]:
    """The text of every input file, by file name."""
    names = (
        "roundtrip.conll", "nested_scopes.conll", "two_systems_gold.conll", "two_systems_a.conll",
        "two_systems_b.conll", "bioscope_sample.xml", "sfu_sample.xml", "tokenizer.rules",
    )
    texts = {name: fixture_path(name).read_text("utf-8") for name in names}
    roundtrip = load_sem_conll(fixture_path("roundtrip.conll"))
    for kind in EncodingKind:
        texts[f"{kind.value}.graph"] = encode_corpus(roundtrip, kind)
    by_key = {s.key: s for s in roundtrip.sentences}
    patches = [
        ReannotationPatch("rt", 2, 1, by_key["rt", 2].instances),
        ReannotationPatch("rt", 0, 0, by_key["rt", 0].instances),
    ]
    texts["roundtrip.patch"] = format_patch_file(roundtrip, patches)
    texts["parts.tsv"] = "redcircle01\ttest\n# the rest by hash\n"
    return texts


_CORPORA = (
    ["roundtrip.conll"],
    ["nested_scopes.conll"],
    ["two_systems_gold.conll"],
    ["bioscope_sample.xml", "--format", "bioscope", "--tokenizer", "tokenizer.rules"],
    ["sfu_sample.xml", "--format", "sfu"],
)

#: Every subcommand with its inputs; a ``{corpus}`` argument stands for each of _CORPORA.
_COMMANDS = (
    ["evaluate", "--gold", "two_systems_gold.conll", "--pred", "two_systems_a.conll", "--out", "json"],
    ["evaluate", "--gold", "two_systems_gold.conll", "--pred", "two_systems_b.conll", "--out", "tsv"],
    ["evaluate", "--gold", "{corpus}", "--pred", "{corpus}"],
    ["compare", "--gold", "two_systems_gold.conll", "--pred-a", "two_systems_a.conll",
     "--pred-b", "two_systems_b.conll"],
    ["baseline", "--gold", "{corpus}"],
    ["convert", "{corpus}", "--strip-punct"],
    ["dep-encode", "{corpus}", "--encoding", "nested"],
    ["dep-encode", "{corpus}"],
    ["dep-decode", "direct.graph"],
    ["dep-decode", "nested.graph", "--encoding", "nested"],
    ["split", "{corpus}", "--output-prefix", "part"],
    ["split", "two_systems_gold.conll", "--assignment", "parts.tsv", "--output-prefix", "part"],
    ["stats", "{corpus}"],
    ["patch", "roundtrip.conll", "--patches", "roundtrip.patch"],
    ["detect-coord", "{corpus}", "--lexicon", "not,no,more"],
)


def _swap_heads(rng: random.Random, text: str) -> str:
    """``text``, a graph, with the edge cells of two token rows of one
    sentence swapped: each row still parses, but the heads may now form a
    cycle, which only decoding the graph finds."""
    blocks = [block.split("\n") for block in text.split("\n\n")]
    lines = rng.choice([lines for lines in blocks if sum("\t" in line for line in lines) > 1])
    i, j = rng.sample([n for n, line in enumerate(lines) if "\t" in line], 2)
    (a, a_edges), (b, b_edges) = lines[i].rsplit("\t", 1), lines[j].rsplit("\t", 1)
    lines[i], lines[j] = f"{a}\t{b_edges}", f"{b}\t{a_edges}"
    return "\n\n".join(map("\n".join, blocks))


def _argv(rng: random.Random, template: list[str]) -> list[str]:
    if "{corpus}" not in template:
        return list(template)
    corpus, *options = rng.choice(_CORPORA)
    argv = [corpus if arg == "{corpus}" else arg for arg in template]
    return argv + options


def _evaluate_paired_and_plain(capsys, gold: str, pred: str, paths: Counter) -> tuple[tuple, tuple]:
    """``evaluate``'s exit code, stdout and stderr for ``pred`` against
    ``gold``, as it reads them and with the prediction read on its own."""
    argv = ["evaluate", "--gold", gold, "--pred", pred]
    parse_paired = negeval.conll._parse_paired

    def counting(data, blocks, name, source):
        if not blocks:  # the gold, read against no blocks
            return parse_paired(data, blocks, name, source)
        return _read_counting_paths(paths, blocks.values(), parse_paired, data, blocks, name, source)

    def plain(data, blocks, name, source):
        return load_sem_conll(source) if blocks else parse_paired(data, blocks, name, source)

    outputs = []
    for read in (counting, plain):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(negeval.conll, "_parse_paired", read)
            code = main(argv)
        outputs.append((code, *capsys.readouterr()))
    return outputs[0], outputs[1]


def test_every_command_ends_in_exit_0_or_one_documented_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    texts = _inputs()
    rng, edits = random.Random(SEED), random.Random(SEED)
    outcomes: Counter[tuple[str, str]] = Counter()
    paths: Counter[str] = Counter()
    for case in range(CASES):
        template = _COMMANDS[case % len(_COMMANDS)]
        argv = _argv(rng, template)
        files = [arg for arg in argv if arg in texts]
        mutated = rng.choice(files)
        for name in files:
            text = texts[name]
            if name == mutated:
                swap = name.endswith(".graph") and rng.random() < 0.5
                text = _swap_heads(rng, text) if swap else _mutate(rng, text)
            (tmp_path / name).write_text(text, encoding="utf-8", newline="")
        if mutated.endswith(".conll"):
            (tmp_path / "source.conll").write_text(texts[mutated], encoding="utf-8", newline="")
            edited = _edit_annotation(edits, texts[mutated])
            (tmp_path / "edited.conll").write_text(edited, encoding="utf-8", newline="")
            for pred in (mutated, "edited.conll"):
                got, expected = _evaluate_paired_and_plain(capsys, "source.conll", pred, paths)
                assert got == expected, f"case {case}: evaluate {pred} against the source of mutated {mutated}"
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - named with its input below
            pytest.fail(f"case {case}: {argv} raised {type(exc).__name__}: {exc} on mutated {mutated}")
        err = capsys.readouterr().err
        lines = err.split("\n")
        assert lines.pop() == "", f"case {case}: {argv}: {err!r}"
        if code == 0:
            assert all(
                line.startswith("negeval: warning: ") or (argv[0] == "split" and line.startswith("wrote "))
                for line in lines
            ), f"case {case}: {argv}: {err!r}"
            outcomes[argv[0], "ok"] += 1
            continue
        *warnings, last = lines
        assert all(line.startswith("negeval: warning: ") for line in warnings), f"case {case}: {argv}: {err!r}"
        match = _ERROR_LINE.match(last)
        assert match and (match[1], code) in _CODES, f"case {case}: {argv} exited {code}: {err!r}"
        outcomes[argv[0], match[1]] += 1
        outcomes[mutated.rsplit(".", 1)[-1], "rejected"] += 1
    # every subcommand both succeeds and fails, and every input kind is rejected
    for command in {template[0] for template in _COMMANDS}:
        assert outcomes[command, "ok"], command
        assert sum(n for (name, outcome), n in outcomes.items() if name == command and outcome != "ok"), command
    for kind in ("conll", "xml", "graph", "patch", "tsv", "rules"):
        assert outcomes[kind, "rejected"], kind
    # swapped heads reach the decoder's own check, past the graph reader
    assert outcomes["dep-decode", "graph-error"] > 0, outcomes
    # mutated predictions reach each path of the reader of an evaluate pair
    assert all(paths[path] > 100 for path in ("gold sentence", "gold tokens", "own tokens")), paths
