"""The CoNLL, patch and graph writers: byte equality with row-by-row
reference writers, refusal of cells the formats cannot hold, and the
contract that a writer refuses a corpus or writes text that its reader
reads back equal."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import outputs_under_hash_seeds
from negeval import (
    AnnotationElement,
    Corpus,
    NegationInstance,
    ReannotationPatch,
    Sentence,
    Token,
    UsageError,
    apply_patches,
    element_for,
    format_patch_file,
    parse_patch_file,
    parse_sem_conll,
    validate,
    write_sem_conll,
)
from negeval.depgraph import EncodingKind, decode_corpus, encode, encode_corpus, format_graph, parse_graph_corpus
from negeval.errors import GraphError
from negeval.model import _punct_flags, renumber
from negeval.testing import random_sentence
from test_reference_scorer import corpus_pair

# ---------------------------------------------------------------------------
# Reference writers: one row at a time, one cell at a time


def reference_write_sem_conll(corpus: Corpus) -> str:
    blocks = []
    for sent in corpus.sentences:
        cells = []
        for inst in sent.instances:
            for elements in (inst.cue, inst.scope, inst.event):
                mapping = {}
                for element in sorted(elements, key=lambda e: e.token_index):
                    token = sent.tokens[element.token_index]
                    mapping[element.token_index] = element.effective_text(token)
                cells.append(mapping)
        lines = []
        for token in sent.tokens:
            cols = [
                sent.doc_id,
                str(sent.sent_index),
                str(token.index),
                token.surface,
                token.lemma if token.lemma is not None else "_",
                token.pos if token.pos is not None else "_",
                "_",
            ]
            if not sent.instances:
                cols.append("***")
            else:
                cols.extend(mapping.get(token.index, "_") for mapping in cells)
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def reference_format_graph(sentence: Sentence, graph) -> str:
    by_dep: dict[int, list[tuple[int, str]]] = {}
    for edge in graph.edges:
        head = 0 if edge.head is None else edge.head + 1
        by_dep.setdefault(edge.dependent, []).append((head, edge.label))
    lines = [f"#doc {sentence.doc_id}", f"#sent {sentence.sent_index}"]
    for token in sentence.tokens:
        pairs = sorted(by_dep.get(token.index, []))
        cell = "|".join(f"{head}:{label}" for head, label in pairs) if pairs else "_"
        lines.append(f"{token.index + 1}\t{token.surface}\t{cell}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Byte equality on seeded corpora


def _vary(rng: random.Random, corpus: Corpus) -> Corpus:
    """``corpus`` with some lemmas and POS tags missing, some instances
    dropped and, now and then, a sentence without tokens."""
    sentences = []
    for sent in corpus.sentences:
        tokens = tuple(
            Token(
                t.index,
                t.surface,
                None if rng.random() < 0.2 else t.lemma,
                None if rng.random() < 0.2 else t.pos,
                t.is_punct,
            )
            for t in sent.tokens
        )
        instances = () if rng.random() < 0.3 else sent.instances
        sentences.append(Sentence(sent.doc_id, sent.sent_index, tokens, instances))
    if rng.random() < 0.1:
        sentences.insert(rng.randrange(len(sentences) + 1), Sentence("empty", 0, ()))
    return Corpus(tuple(sentences), corpus.name)


def _encodable(corpus: Corpus, kind: EncodingKind) -> Corpus:
    """The sentences of ``corpus`` that ``encode`` accepts."""
    kept = []
    for sent in corpus.sentences:
        try:
            encode(sent, kind)
        except GraphError:  # two instances share a representative
            continue
        kept.append(sent)
    return Corpus(tuple(kept))


def test_writers_match_the_reference_writers_byte_for_byte():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        for corpus in corpus_pair(seed):
            corpus = _vary(rng, corpus)
            if all(sent.tokens for sent in corpus.sentences):
                assert write_sem_conll(corpus) == reference_write_sem_conll(corpus), f"seed {seed}"
            else:  # the CoNLL layout has no block for a sentence without tokens
                with pytest.raises(UsageError, match=r"^cannot write sentence \('empty', 0\): it has no tokens$"):
                    write_sem_conll(corpus)
            for kind in EncodingKind:
                held = _encodable(corpus, kind)
                blocks = [reference_format_graph(s, encode(s, kind)) for s in held.sentences]
                expected = "\n\n".join(blocks) + "\n" if blocks else ""
                assert encode_corpus(held, kind) == expected, f"seed {seed}, {kind}"
            for sent in corpus.sentences:
                seen |= {("lemma", t.lemma is None) for t in sent.tokens}
                seen |= {("pos", t.pos is None) for t in sent.tokens}
                seen.add(("instances", bool(sent.instances)))
                seen.add(("tokens", bool(sent.tokens)))
                seen |= {"affix" for i in sent.instances for e in (*i.cue, *i.scope) if e.text}
    assert seen == {
        ("lemma", True), ("lemma", False), ("pos", True), ("pos", False),
        ("instances", True), ("instances", False), ("tokens", True), ("tokens", False), "affix",
    }


# ---------------------------------------------------------------------------
# Cells the formats cannot hold


def _sentence(doc_id="d", surface="York", lemma=None, pos=None, negated=True) -> Sentence:
    tokens = (Token(0, "not", None, "RB"), Token(1, "New"), Token(2, surface, lemma, pos))
    instances = ()
    if negated:
        cue, scope = frozenset({element_for(tokens[0])}), frozenset({element_for(tokens[2])})
        instances = (NegationInstance(cue, scope),)
    return Sentence(doc_id, 4, tokens, instances)


_CONTROLS = ("\t", "\n", "\r")


@pytest.mark.parametrize("control", _CONTROLS)
@pytest.mark.parametrize("negated", [True, False])
@pytest.mark.parametrize("field", ["surface", "lemma", "pos"])
def test_conll_writer_refuses_a_control_character_in_a_token_cell(field, negated, control):
    sent = _sentence(**{field: f"New{control}York"}, negated=negated)
    with pytest.raises(UsageError) as err:
        write_sem_conll(Corpus((_sentence(doc_id="a"), sent)))
    assert str(err.value) == (
        "cannot write sentence ('d', 4): a cell of token 2 holds a tab, line feed or carriage return"
    )


@pytest.mark.parametrize("control", _CONTROLS)
def test_conll_writer_refuses_a_control_character_in_an_affix_cell(control):
    tokens = (Token(0, "not"), Token(1, f"un{control}real"))
    affix = element_for(tokens[1], (0, 3))
    sent = Sentence("d", 4, tokens, (NegationInstance(frozenset({affix})),))
    with pytest.raises(UsageError, match="token 1 holds"):
        write_sem_conll(Corpus((sent,)))


@pytest.mark.parametrize("control", _CONTROLS)
def test_conll_writer_refuses_a_control_character_in_the_document_id(control):
    with pytest.raises(UsageError) as err:
        write_sem_conll(Corpus((_sentence(doc_id=f"d{control}1"),)))
    assert str(err.value) == (
        f"cannot write sentence ({f'd{control}1'!r}, 4): its document id holds a tab, line feed or "
        "carriage return"
    )


@pytest.mark.parametrize("control", _CONTROLS)
@pytest.mark.parametrize("kind", list(EncodingKind))
def test_graph_writer_refuses_a_control_character(kind, control):
    sent = _sentence(surface=f"New{control}York")
    with pytest.raises(UsageError) as err:
        encode_corpus(Corpus((_sentence(doc_id="a"), sent)), kind)
    assert str(err.value) == (
        "cannot write sentence ('d', 4): a cell of token 2 holds a tab, line feed or carriage return"
    )
    sent = _sentence(doc_id=f"d{control}1")
    with pytest.raises(UsageError) as err:
        format_graph(sent, encode(sent, kind))
    assert str(err.value) == (
        f"cannot write sentence ({f'd{control}1'!r}, 4): its document id holds a tab, line feed or "
        "carriage return"
    )


def test_other_whitespace_is_written_as_it_is():
    sent = _sentence(surface="New York", lemma="new york", pos="\x0bNNP")
    assert write_sem_conll(Corpus((sent,))) == reference_write_sem_conll(Corpus((sent,)))
    graph = encode(sent, EncodingKind.DIRECT)
    assert format_graph(sent, graph) == reference_format_graph(sent, graph)


# ---------------------------------------------------------------------------
# Instances that validate rejects: every writer refuses them with its message


_FAULTS = ("index too high", "negative index", "empty text", "whole-surface text", "text not in token", "empty cue")


def _faulty_instance(rng: random.Random, tokens: tuple[Token, ...], fault: str) -> NegationInstance:
    token = rng.choice(tokens)
    element = {
        "index too high": AnnotationElement(len(tokens) + rng.randrange(3)),
        "negative index": AnnotationElement(-1 - rng.randrange(3)),
        "empty text": AnnotationElement(token.index, ""),
        "whole-surface text": AnnotationElement(token.index, token.surface),
        "text not in token": AnnotationElement(token.index, token.surface + "x"),
        "empty cue": None,
    }[fault]
    scope = frozenset(element_for(t) for t in tokens if rng.random() < 0.3)
    if element is None:
        return NegationInstance(frozenset(), scope)
    if rng.random() < 0.5:
        return NegationInstance(frozenset({element_for(token)}), scope | {element})
    return NegationInstance(frozenset({element}), scope)


@pytest.mark.parametrize("fault", _FAULTS)
def test_every_writer_refuses_what_validate_rejects(fault):
    for seed in range(40):
        rng = random.Random(seed)
        corpus = Corpus(tuple(random_sentence(rng, "d", i, max_instances=3) for i in range(3)))
        assert parse_sem_conll(write_sem_conll(corpus)) == corpus, seed
        sent = rng.choice(corpus.sentences)
        instances = list(sent.instances)
        instances.insert(rng.randint(0, len(instances)), _faulty_instance(rng, sent.tokens, fault))
        bad = replace(sent, instances=renumber(instances))
        faulty = Corpus(tuple(bad if s is sent else s for s in corpus.sentences))
        (error,) = [d for d in validate(faulty) if d.level == "error"]
        writers = [
            lambda: write_sem_conll(faulty),
            lambda: format_patch_file(faulty, [ReannotationPatch("d", bad.sent_index, 0, bad.instances)]),
            lambda: encode_corpus(faulty, EncodingKind.DIRECT),
            lambda: encode_corpus(faulty, EncodingKind.NESTED),
        ]
        for write in writers:
            with pytest.raises(UsageError) as err:
                write()
            assert str(err.value).startswith(f"cannot write sentence {bad.key}: instance "), seed
            assert str(err.value).endswith(f": {error.message}"), seed


def test_the_writers_name_one_fault_under_every_hash_seed():
    script = (
        "from negeval import *\n"
        "from negeval.depgraph import EncodingKind, encode_corpus\n"
        "tokens = (Token(0, 'abc'), Token(1, 'def'))\n"
        "E = AnnotationElement\n"
        "cue = frozenset({E(1, 'x'), E(0, 'y'), E(1, ''), E(0, 'q'), E(1, 'def'), E(0, 'b')})\n"
        "corpus = Corpus((Sentence('d', 0, tokens, (NegationInstance(cue),)),))\n"
        "patch = ReannotationPatch('d', 0, 0, corpus.sentences[0].instances)\n"
        "for write in (write_sem_conll, lambda c: format_patch_file(c, [patch]),\n"
        "              lambda c: encode_corpus(c, EncodingKind.NESTED)):\n"
        "    try:\n"
        "        write(corpus)\n"
        "    except UsageError as exc:\n"
        "        print(exc)\n"
    )
    message = (
        "cannot write sentence ('d', 0): instance 0: element on token 0: "
        "annotation cell 'q' is not a substring of token 'abc'"
    )
    assert outputs_under_hash_seeds(["-c", script]) == {(0, f"{message}\n" * 3, "")}


# ---------------------------------------------------------------------------
# The writer contract: refuse with a UsageError, or write text that the
# matching reader reads back equal


_INJECTIONS = (
    None, "reserved surface", "reserved affix", "index", "empty surface", "reserved lemma", "reserved POS", "repeated key",
)
_RESERVED = ("_", "***")


def _token(token: Token, surface: str | None = None, index: int | None = None) -> Token:
    """``token`` with another surface or index, and punctuation as a reader decides it."""
    surface = token.surface if surface is None else surface
    index = token.index if index is None else index
    return Token(index, surface, token.lemma, token.pos, _punct_flags([surface], [token.pos])[0])


def _inject(rng: random.Random, corpus: Corpus, injection: str | None) -> Corpus:
    """``corpus`` with one sentence given a token the readers reject, a
    lemma or POS tag ``_``, an element whose CoNLL cell is ``_`` or ``***``,
    or the key of another."""
    sentences = list(corpus.sentences)
    n = rng.randrange(len(sentences))
    sent = sentences[n]
    tokens, instances = list(sent.tokens), list(sent.instances)
    i = rng.randrange(len(tokens))
    elements = [e for inst in instances for e in (*inst.cue, *inst.scope, *inst.event)]
    if injection == "reserved surface":  # on a token without affix elements, which it would break
        affixed = {e.token_index for e in elements if e.text is not None}
        plain = [t.index for t in tokens if t.index not in affixed]
        if plain:
            i = rng.choice(plain)
            tokens[i] = _token(tokens[i], surface=rng.choice(_RESERVED))
    elif injection == "reserved affix":  # a new instance on a token in no cue, so no graph refuses it
        cued = {e.token_index for inst in instances for e in inst.cue}
        free = [t.index for t in tokens if t.index not in cued]
        if free:
            i, reserved = rng.choice(free), rng.choice(_RESERVED)
            tokens[i] = _token(tokens[i], surface=tokens[i].surface + reserved)
            instances.append(NegationInstance(frozenset({AnnotationElement(i, reserved)}), instance_id=len(instances)))
    elif injection == "index":
        tokens[i] = _token(tokens[i], index=i + rng.choice((-1, 1, len(tokens))))
    elif injection == "empty surface":
        tokens[i] = _token(tokens[i], surface="")
    elif injection == "reserved lemma":
        tokens[i] = replace(tokens[i], lemma="_")
    elif injection == "reserved POS":
        tokens[i] = replace(tokens[i], pos="_")
    elif injection == "repeated key":
        donor = rng.choice(sentences)
        sentences.insert(rng.randint(n + 1, len(sentences)), Sentence(*sent.key, donor.tokens, donor.instances))
    sentences[n] = Sentence(sent.doc_id, sent.sent_index, tuple(tokens), tuple(instances))
    return Corpus(tuple(sentences))


def _conll_reads_back(corpus: Corpus, text: str) -> bool:
    # the format numbers instances by position
    expected = [Sentence(*s.key, s.tokens, renumber(s.instances)) for s in corpus.sentences]
    return list(parse_sem_conll(text).sentences) == expected


def _patches(corpus: Corpus) -> list[ReannotationPatch]:
    """A patch for each sentence that a patch can target, replacing its
    first instance with all of its instances."""
    by_key = {s.key: s for s in corpus.sentences}
    return [ReannotationPatch(*s.key, 0, s.instances) for s in by_key.values() if s.instances]


def _graphs_read_back(corpus: Corpus, kind: EncodingKind, text: str) -> bool:
    """Whether the graph reader reads back the surfaces and graphs written.
    A direct graph must also decode; a nested graph of overlapping scopes
    may hold a cycle, as ``encode`` warns with ``nested-lossy``."""
    if kind is EncodingKind.DIRECT:
        decode_corpus(text, kind)
    expected = [(s.doc_id, s.sent_index, s.surfaces(), encode(s, kind)) for s in corpus.sentences]
    return parse_graph_corpus(text) == expected


def test_every_writer_refuses_a_corpus_or_writes_what_its_reader_reads_back_equal():
    outcomes: Counter[tuple[str, str | None, str]] = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        for clean in corpus_pair(seed):
            injection = rng.choice(_INJECTIONS)
            corpus = _inject(rng, clean, injection)
            patches = _patches(corpus)
            writers = {
                "conll": (lambda c=corpus: write_sem_conll(c), lambda text, c=corpus: _conll_reads_back(c, text)),
                "patch": (
                    lambda c=corpus: format_patch_file(c, patches),
                    lambda text, c=corpus: apply_patches(c, parse_patch_file(text, c)) == apply_patches(c, patches),
                ),
            }
            for kind in EncodingKind:  # on the sentences whose instances have representatives of their own
                writers[kind.value] = (
                    lambda c=corpus, kind=kind: encode_corpus(_encodable(c, kind), kind),
                    lambda text, c=corpus, kind=kind: _graphs_read_back(_encodable(c, kind), kind, text),
                )
            for name, (write, reads_back) in writers.items():
                try:
                    text = write()
                except UsageError as exc:
                    assert str(exc).startswith("cannot write "), (seed, injection, name, str(exc))
                    outcomes[name, injection, "refused"] += 1
                    continue
                assert reads_back(text), f"seed {seed}: {injection}: {name} wrote {text!r}"
                outcomes[name, injection, "read back"] += 1
    for name in ("conll", "patch", "direct", "nested"):
        assert not outcomes[name, None, "refused"], name
        for injection in ("index", "empty surface", "reserved lemma", "reserved POS"):
            assert outcomes[name, injection, "refused"], (name, injection)
    # a lemma or POS tag "_" would read back as none; every CoNLL write holds the token
    for injection in ("reserved lemma", "reserved POS"):
        assert not outcomes["conll", injection, "read back"], injection
    # the CoNLL cells "_" and "***" mark no element; a graph writes any surface
    for injection in ("reserved surface", "reserved affix"):
        for name in ("conll", "patch"):
            assert outcomes[name, injection, "refused"] and outcomes[name, injection, "read back"], (name, injection)
        for name in ("direct", "nested"):
            assert not outcomes[name, injection, "refused"], (name, injection)
    for name in ("conll", "direct", "nested"):
        assert outcomes[name, "repeated key", "refused"], name
