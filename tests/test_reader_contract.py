"""The readers' contract on malformed input: a seeded mutation test.

The inputs are the CoNLL, BioScope and SFU fixtures and the direct and
nested graphs of ``roundtrip.conll``, all ASCII, so deleting characters
deletes bytes.  Every reader is the one gate for its input.  An input it accepts gives a
corpus in which ``validate`` finds no error, so nothing downstream needs to
check again; an input it rejects raises ``ParseError`` or ``GraphError``,
never a bare ``ValueError``, ``KeyError`` or ``IndexError``.  Each mutated
CoNLL input is also read as a prediction against its unmutated source, as
``evaluate`` reads it, and as a gold, and must read as ``parse_sem_conll``
reads it on its own, errors and lines included.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

import negeval.conll
from conftest import fixture_path
from negeval import (
    EncodingKind,
    GraphError,
    ParseError,
    load_sem_conll,
    parse_bioscope,
    parse_sem_conll,
    parse_sfu,
    validate,
)
from negeval.conll import _blocks, _parse_paired
from negeval.depgraph import decode_corpus, encode_corpus

SEED = 11
CASES = 3000

_CONLL = (
    "roundtrip.conll", "nested_scopes.conll", "two_systems_gold.conll", "two_systems_a.conll", "two_systems_b.conll",
)
_INSERTS = ("\t", "\n", "_", "#", "<", "***")
_BLOCK = re.compile(r"(?:[^\n]+\n?)+")
_ELEMENT = re.compile(r"<(\w+)\b[^>]*>.*?</\1>", re.S)


def _inputs() -> list[tuple[str, str, object]]:
    """(name, text, reader) for every input kind."""
    inputs = [(name, fixture_path(name).read_text("utf-8"), parse_sem_conll) for name in _CONLL]
    inputs.append(("bioscope_sample.xml", fixture_path("bioscope_sample.xml").read_text("utf-8"), parse_bioscope))
    inputs.append(("sfu_sample.xml", fixture_path("sfu_sample.xml").read_text("utf-8"), parse_sfu))
    roundtrip = load_sem_conll(fixture_path("roundtrip.conll"))
    for kind in EncodingKind:
        text = encode_corpus(roundtrip, kind)
        inputs.append((f"roundtrip.{kind.value}.graph", text, lambda t, kind=kind: decode_corpus(t, kind)))
    return inputs


def _repeatable(text: str) -> list[tuple[int, int]]:
    """The spans of the blank-line separated blocks and of the XML elements."""
    spans = [m.span() for m in _BLOCK.finditer(text)] if "\n\n" in text else []
    spans += [m.span() for i in range(len(text)) if text[i] == "<" and (m := _ELEMENT.match(text, i))]
    return spans


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        at = rng.randrange(len(text) + 1)
        if kind == 0:  # delete characters
            text = text[:at] + text[at + rng.randint(1, 8) :]
        elif kind == 1:
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
        elif kind == 2:
            text = text[:at] + str(rng.randrange(1000)) + text[at:]
        elif blocks := _repeatable(text):  # repeat a block after itself
            start, end = rng.choice(blocks)
            gap = "" if text[start] == "<" else "\n"
            text = text[:end] + gap + text[start:end] + text[end:]
    return text


def test_every_reader_accepts_only_valid_corpora_and_rejects_with_its_own_errors():
    rng = random.Random(SEED)
    inputs = _inputs()
    outcomes: Counter[tuple[str, str]] = Counter()
    for case in range(CASES):
        name, original, read = inputs[case % len(inputs)]
        text = _mutate(rng, original)
        try:
            corpus = read(text)
        except (ParseError, GraphError) as exc:
            outcomes[name, type(exc).__name__] += 1
            if "duplicate sentence key" in str(exc):
                outcomes[name, "duplicate"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - named with its input below
            pytest.fail(f"case {case}: {name} raised {type(exc).__name__}: {exc} on {text!r}")
        errors = [str(d) for d in validate(corpus) if d.level == "error"]
        assert not errors, f"case {case}: {name} accepted {text!r} with {errors}"
        outcomes[name, "accepted"] += 1
    # Each input is both accepted and rejected, and repeated keys are met.
    for name, _, _ in inputs:
        assert outcomes[name, "accepted"] and outcomes[name, "ParseError"], name
    duplicated = {name for name, outcome in outcomes if outcome == "duplicate"}
    assert {"roundtrip.conll", "bioscope_sample.xml", "roundtrip.direct.graph", "roundtrip.nested.graph"} <= duplicated
    assert outcomes["roundtrip.direct.graph", "GraphError"]


def _outcome(read) -> tuple:
    """``("ok", corpus)``, or the type, text, source and line of the error ``read()`` raises."""
    try:
        return ("ok", read())
    except ParseError as exc:
        return (type(exc), str(exc), exc.source, exc.line)


def _read_counting_paths(paths: Counter, gold_sentences, read, *args):
    """``read(*args)``, a read of a prediction with ``conll._parse_paired``,
    adding to ``paths`` its gold sentences and the blocks that
    ``_parse_sentence`` gave the gold's tokens or tokens of their own.  An
    accepted sentence must hold a gold sentence's token tuple exactly when
    it is the gold's sentence, or when its surface, lemma and POS columns
    are those of the gold sentence with its key."""
    gold_sentences = list(gold_sentences)
    gold_ids = set(map(id, gold_sentences))
    gold_tokens = {id(sent.tokens) for sent in gold_sentences}
    by_key = {sent.key: sent for sent in gold_sentences}
    parse_sentence = negeval.conll._parse_sentence

    def counting_parse_sentence(*args):
        sent = parse_sentence(*args)
        paths["gold tokens" if id(sent.tokens) in gold_tokens else "own tokens"] += 1
        return sent

    def columns(sent):
        return [(t.surface, t.lemma, t.pos) for t in sent.tokens]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(negeval.conll, "_parse_sentence", counting_parse_sentence)
        corpus = read(*args)
    from_gold = [id(sent) in gold_ids for sent in corpus.sentences]
    paths["gold sentence"] += sum(from_gold)
    assert [id(sent.tokens) in gold_tokens for sent in corpus.sentences] == [
        gold or (sent.key in by_key and columns(sent) == columns(by_key[sent.key]))
        for gold, sent in zip(from_gold, corpus.sentences)
    ], args[0]
    return corpus


def _edit_annotation(rng: random.Random, text: str) -> str:
    """``text`` with one annotation cell of one row set to ``_``, or to its
    token's surface when it is ``_``, as a system's output differs from the
    gold: most such edits read, some leave an instance without a cue or mix
    a surface with ``***``."""
    lines = text.split("\n")
    row = rng.choice([i for i, line in enumerate(lines) if line.count("\t") >= 7])
    cells = lines[row].split("\t")
    column = rng.randrange(7, len(cells))
    cells[column] = cells[3] if cells[column] == "_" else "_"
    lines[row] = "\t".join(cells)
    return "\n".join(lines)


def test_a_prediction_read_against_its_gold_reads_as_parse_sem_conll_reads_it():
    rng, edits = random.Random(SEED), random.Random(SEED)
    inputs = _inputs()
    paths: Counter[str] = Counter()
    for case in range(CASES):
        name, original, read = inputs[case % len(inputs)]
        mutated = _mutate(rng, original)  # the mutations of the test above, case by case
        if read is not parse_sem_conll:
            continue
        blocks: dict = {}
        gold = _parse_paired(original, blocks, source="gold")
        for text in (mutated, _edit_annotation(edits, original)):
            expected = _outcome(lambda: parse_sem_conll(text, source="pred"))
            got = _outcome(
                lambda: _read_counting_paths(paths, gold.sentences, _parse_paired, text, dict(blocks), "", "pred")
            )
            assert got == expected, f"case {case}: {name}: {text!r}"
            # read as a gold, against no blocks: the same outcome, and each sentence by its block's text
            filled: dict = {}
            as_gold = _outcome(lambda: _parse_paired(text, filled, "", "pred"))
            if as_gold[0] == "ok":
                corpus = as_gold[1]
                assert ("ok", corpus) == expected, f"case {case}: {name}: {text!r}"
                assert filled == {"\t\n\t".join(lines): s for (_, lines), s in zip(_blocks(text), corpus.sentences)}
            else:
                assert as_gold == expected, f"case {case}: {name}: {text!r}"
    assert all(paths[path] > 100 for path in ("gold sentence", "gold tokens", "own tokens")), paths
