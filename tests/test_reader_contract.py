"""The readers' contract on malformed input: a seeded mutation test.

The inputs are the CoNLL, BioScope and SFU fixtures and the direct and
nested graphs of ``roundtrip.conll``, all ASCII, so deleting characters
deletes bytes.  Every reader is the one gate for its input.  An input it accepts gives a
corpus in which ``validate`` finds no error, so nothing downstream needs to
check again; an input it rejects raises ``ParseError`` or ``GraphError``,
never a bare ``ValueError``, ``KeyError`` or ``IndexError``.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

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
