"""The CoNLL and graph writers: byte equality with row-by-row reference
writers, and refusal of cells the formats cannot hold."""

from __future__ import annotations

import random

import pytest

from negeval import Corpus, NegationInstance, Sentence, Token, UsageError, element_for, write_sem_conll
from negeval.depgraph import EncodingKind, encode, encode_corpus, format_graph
from negeval.errors import GraphError
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
        f"cannot write sentence ({f'd{control}1'!r}, 4): a cell of token 0 holds a tab, line feed or "
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
