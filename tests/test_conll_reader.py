"""The CoNLL reader's contract: exact errors and their order, accepted
variants of the format, the parse/write round trip with affix and
surface-only punctuation tokens, and token sharing through ``tokens_from``."""

from __future__ import annotations

import random

import pytest

from negeval import (
    Corpus,
    NegationInstance,
    ParseError,
    Sentence,
    Token,
    element_for,
    parse_sem_conll,
    write_sem_conll,
)
from negeval.model import is_punct_surface
from negeval.testing import random_corpus


def row(*cols):
    return "\t".join(cols)


def plain(i, surface, *annotation):
    """One row of doc ``d``, sentence 0, with lemma = surface and POS X."""
    return row("d", "0", str(i), surface, surface, "X", "_", *(annotation or ("***",)))


def error_of(*lines: str) -> str:
    with pytest.raises(ParseError) as err:
        parse_sem_conll("\n".join(lines), source="bad.conll")
    return str(err.value)


# ---------------------------------------------------------------------------
# Every reader error, exactly


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            [row("d", "0", "0", "a", "a", "X", "_")],
            "bad.conll:1: expected at least 8 columns, found 7",
        ),
        (
            [row("d", "0", "0", "a", "a", "X", "_", "a", "_")],
            "bad.conll:1: annotation columns must come in cue/scope/event triples, found 2",
        ),
        (
            [plain(0, "a"), row("d", "0", "1", "b", "b", "X", "_")],
            "bad.conll:2: expected 8 columns as in the first row of the sentence, found 7",
        ),
        (
            [row("d", "x", "0", "a", "a", "X", "_", "***")],
            "bad.conll:1: sentence number is not an integer: 'x'",
        ),
        (
            [plain(0, "a"), row("d", "0", "one", "b", "b", "X", "_", "***")],
            "bad.conll:2: token number is not an integer: 'one'",
        ),
        (
            [plain(0, "a"), plain(2, "b")],
            "bad.conll:2: token numbers must be contiguous from 0, found 2 at position 1",
        ),
        (
            [plain(0, "a"), row("d", "0", "1", "", "b", "X", "_", "***")],
            "bad.conll:2: empty token surface",
        ),
        (
            [plain(0, "no", "no", "_", "_"), plain(1, "b", "***", "_", "_")],
            "bad.conll:2: '***' mixed with instance cells",
        ),
        (
            [plain(0, "a"), plain(1, "b", "_")],
            "bad.conll:2: sentence without negation columns must carry '***', found '_'",
        ),
        (
            [plain(0, "no", "no", "_", "_"), plain(1, "cat", "_", "dog", "_")],
            "bad.conll:2: annotation cell 'dog' is not a substring of token 'cat'",
        ),
    ],
    ids=[
        "too-few-columns",
        "not-triples",
        "ragged-row",
        "sentence-number",
        "token-number",
        "non-contiguous",
        "empty-surface",
        "mixed-stars",
        "missing-stars",
        "not-a-substring",
    ],
)
def test_reader_error_message_and_line(lines, message):
    assert error_of(*lines) == message


def test_line_numbers_count_every_line_of_the_file():
    text = "\n".join([plain(0, "a"), "", "  ", row("d", "1", "0", "b", "b", "X", "_", "_")])
    with pytest.raises(ParseError) as err:
        parse_sem_conll(text, source="bad.conll")
    assert str(err.value) == "bad.conll:4: sentence without negation columns must carry '***', found '_'"
    assert (err.value.source, err.value.line) == ("bad.conll", 4)


# ---------------------------------------------------------------------------
# Which error wins


def test_the_earlier_of_two_faulty_rows_is_reported():
    assert error_of(
        plain(0, "a"), row("d", "0", "1", "", "b", "X", "_", "***"), row("d", "0", "2", "c")
    ) == "bad.conll:2: empty token surface"
    assert error_of(
        plain(0, "a"), row("d", "0", "1", "b"), plain(5, "c")
    ) == "bad.conll:2: expected 8 columns as in the first row of the sentence, found 4"


@pytest.mark.parametrize(
    "bad_row, message",
    [
        # width before token number
        (row("d", "0", "x", "b", "b", "X", "_", "***", "_"), "expected 8 columns as in the first row of the sentence, found 9"),
        # token number before surface
        (row("d", "0", "x", "", "b", "X", "_", "***"), "token number is not an integer: 'x'"),
        (row("d", "0", "7", "", "b", "X", "_", "***"), "token numbers must be contiguous from 0, found 7 at position 1"),
        # surface before the '***' cell
        (row("d", "0", "1", "", "b", "X", "_", "_"), "empty token surface"),
    ],
)
def test_two_faults_in_one_row_follow_the_check_order(bad_row, message):
    assert error_of(plain(0, "a"), bad_row) == f"bad.conll:2: {message}"


def test_row_faults_win_over_cell_faults():
    assert error_of(
        plain(0, "no", "zz", "_", "_"), row("d", "0", "1", "b", "b", "X", "_", "_", "_")
    ) == "bad.conll:2: expected 10 columns as in the first row of the sentence, found 9"


def test_first_bad_cell_row_by_row_then_cue_scope_event():
    # row 1's scope cell comes before row 2's cue cell
    assert error_of(
        plain(0, "no", "no", "_", "_"), plain(1, "cat", "_", "dog", "_"), plain(2, "sat", "fox", "_", "_")
    ) == "bad.conll:2: annotation cell 'dog' is not a substring of token 'cat'"
    # within a row, cue before scope before event
    assert error_of(
        plain(0, "no", "no", "_", "_"), plain(1, "cat", "_", "dog", "emu")
    ) == "bad.conll:2: annotation cell 'dog' is not a substring of token 'cat'"
    assert error_of(
        plain(0, "no", "no", "_", "_"), plain(1, "cat", "ant", "dog", "_")
    ) == "bad.conll:2: annotation cell 'ant' is not a substring of token 'cat'"


def test_an_earlier_instance_reports_first():
    assert error_of(
        plain(0, "no", "no", "_", "_", "_", "ewe", "_"),
        plain(1, "cat", "_", "dog", "_", "not", "_", "_"),
    ) == "bad.conll:2: annotation cell 'dog' is not a substring of token 'cat'"


def test_an_empty_annotation_cell_is_an_error():
    assert error_of(row("d", "0", "0", "not", "not", "RB", "_", "not", "", "_")) == (
        "bad.conll:1: empty annotation cell"
    )
    # the first bad cell still wins, row by row and then cue, scope, event
    assert error_of(
        plain(0, "no", "no", "_", "_"), plain(1, "cat", "_", "", "dog")
    ) == "bad.conll:2: empty annotation cell"
    assert error_of(
        plain(0, "no", "no", "_", "_"), plain(1, "cat", "_", "dog", "")
    ) == "bad.conll:2: annotation cell 'dog' is not a substring of token 'cat'"
    assert error_of(
        plain(0, "no", "no", "_", "_"), plain(1, "cat", "dog", "_", "_"), plain(2, "sat", "", "_", "_")
    ) == "bad.conll:2: annotation cell 'dog' is not a substring of token 'cat'"
    assert error_of(
        plain(0, "no", "no", "_", "_", "_", "ewe", "_"), plain(1, "cat", "_", "", "_", "no", "_", "_")
    ) == "bad.conll:2: empty annotation cell"


def test_instance_without_a_cue_cell_is_an_error():
    text = "\n".join(
        [
            plain(0, "a"),
            "",
            row("d", "4", "0", "not", "not", "RB", "_", "not", "_", "_", "_", "_", "_"),
            row("d", "4", "1", "good", "good", "JJ", "_", "_", "good", "_", "_", "good", "_"),
        ]
    )
    with pytest.raises(ParseError) as err:
        parse_sem_conll(text, source="x.conll")
    assert str(err.value) == "x.conll:3: instance 1 of d#4 has no cue cell"
    assert (err.value.source, err.value.line) == ("x.conll", 3)


# ---------------------------------------------------------------------------
# Accepted variants of the format


CANONICAL = "\n".join(
    [
        row("d", "0", "0", "It", "it", "PRP", "_", "_", "It", "_"),
        row("d", "0", "1", "imprecise", "_", "_", "_", "im", "precise", "_"),
        row("d", "0", "2", ".", ".", ".", "_", "_", "_", "_"),
        "",
        row("d", "1", "0", "All", "all", "DT", "_", "***"),
        row("d", "1", "1", "good", "good", "JJ", "_", "***"),
    ]
) + "\n"


@pytest.mark.parametrize(
    "variant",
    [
        CANONICAL.replace("\t", " "),
        CANONICAL.replace("\t", "   "),
        CANONICAL.replace("\n", "\r\n"),
        CANONICAL.replace("\n\n", "\n \t \n\n"),
        "\n\n" + CANONICAL + "\n\n",
        CANONICAL.rstrip("\n"),
        CANONICAL.replace("\t1\t0\t", "\t1\t00\t").replace("\t1\t1\t", "\t1\t01\t"),
    ],
    ids=["spaces", "space-runs", "crlf", "whitespace-separator", "extra-blank-lines", "no-final-newline", "zero-padded"],
)
def test_accepted_variants_parse_as_the_canonical_form(variant):
    assert parse_sem_conll(variant) == parse_sem_conll(CANONICAL)


def test_a_sentence_of_any_length():
    words = [f"w{i}" for i in range(1500)]
    rows = [row("d", "0", str(i), w, w, "NN", "_", "w" if i == 1234 else "_", "_", "_") for i, w in enumerate(words)]
    (sent,) = parse_sem_conll("\n".join(rows)).sentences
    assert [t.surface for t in sent.tokens] == words
    assert [t.index for t in sent.tokens] == list(range(1500))
    ((cue,),) = [inst.cue for inst in sent.instances]
    assert (cue.token_index, cue.text, cue.subspan) == (1234, "w", (0, 1))
    assert parse_sem_conll(write_sem_conll(Corpus((sent,)))) == Corpus((sent,))


# ---------------------------------------------------------------------------
# Round trip with affixes and surface-only punctuation


_SURFACE_ONLY = ("—", "...", "«", "word")


def _with_affixes(rng: random.Random, corpus: Corpus) -> Corpus:
    """Affix sub-spans, tokens without lemma/POS and appended tokens whose
    punctuation flag comes from their surface, in a corpus of ``random_corpus``."""
    sentences = []
    for sent in corpus.sentences:
        tokens = []
        for t in sent.tokens:
            if rng.random() < 0.2:
                t = Token(t.index, t.surface, None, None, is_punct_surface(t.surface))
            tokens.append(t)
        for _ in range(rng.randint(0, 2)):
            surface = rng.choice(_SURFACE_ONLY)
            tokens.append(Token(len(tokens), surface, None, None, is_punct_surface(surface)))

        def affixed(elements):
            out = set()
            for e in elements:
                surface = tokens[e.token_index].surface
                if len(surface) > 1 and rng.random() < 0.3:
                    start = rng.randrange(len(surface) - 1)
                    end = rng.randint(start + 1, len(surface) - (start == 0))
                    e = element_for(tokens[e.token_index], (start, end))
                out.add(e)
            return frozenset(out)

        instances = []
        for inst in sent.instances:
            scope = affixed(inst.scope)
            event = frozenset(e for e in scope if rng.random() < 0.3)
            instances.append(NegationInstance(affixed(inst.cue), scope, event, inst.instance_id))
        sentences.append(Sentence(sent.doc_id, sent.sent_index, tuple(tokens), tuple(instances)))
    return Corpus(tuple(sentences), name=corpus.name)


def test_parse_write_round_trip_with_affixes_and_surface_punctuation():
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        corpus = _with_affixes(rng, random_corpus(rng, name=""))
        assert parse_sem_conll(write_sem_conll(corpus)) == corpus, f"seed {seed}"
        for sent in corpus.sentences:
            kinds |= {("punct-by-surface", t.is_punct) for t in sent.tokens if t.pos is None}
            kinds |= {"affix" for i in sent.instances for e in (*i.cue, *i.scope) if e.text is not None}
            kinds |= {"event" for i in sent.instances if i.event}
    assert kinds == {("punct-by-surface", True), ("punct-by-surface", False), "affix", "event"}


# ---------------------------------------------------------------------------
# tokens_from


GOLD = "\n".join(
    [
        row("d", "0", "0", "Not", "not", "RB", "_", "Not", "_", "_"),
        row("d", "0", "1", "bad", "bad", "JJ", "_", "_", "bad", "_"),
        row("d", "0", "2", ".", ".", ".", "_", "_", "_", "_"),
        "",
        row("d", "1", "0", "Fine", "_", "_", "_", "***"),
        row("d", "1", "1", "!", "_", "_", "_", "***"),
    ]
)


def test_equal_rows_reuse_the_token_tuple():
    gold = parse_sem_conll(GOLD)
    pred_text = GOLD.replace("\t_\tbad\t_", "\t_\t_\t_")
    pred = parse_sem_conll(pred_text, tokens_from=gold)
    assert [p.tokens is g.tokens for p, g in zip(pred.sentences, gold.sentences)] == [True, True]
    assert pred == parse_sem_conll(pred_text)


@pytest.mark.parametrize(
    "old, new",
    [
        ("\tbad\tbad\tJJ\t", "\tbads\tbad\tJJ\t"),  # surface
        ("\tbad\tbad\tJJ\t", "\tbad\tBad\tJJ\t"),  # lemma
        ("\tbad\tbad\tJJ\t", "\tbad\tbad\tNN\t"),  # POS
        ("\t.\t.\t.\t", "\t.\t.\tNN\t"),  # POS, and with it is_punct
        ("\tbad\tbad\tJJ\t", "\tbad\t_\tJJ\t"),  # lemma missing
        ("\n" + row("d", "0", "2", ".", ".", ".", "_", "_", "_", "_"), ""),  # length
        ("d\t0\t", "d\t7\t"),  # key not in tokens_from
    ],
    ids=["surface", "lemma", "pos", "punct", "no-lemma", "length", "missing-key"],
)
def test_different_rows_get_fresh_tokens(old, new):
    gold = parse_sem_conll(GOLD)
    pred_text = GOLD.replace(old, new)
    assert pred_text != GOLD
    pred = parse_sem_conll(pred_text, tokens_from=gold)
    assert pred.sentences[0].tokens is not gold.sentences[0].tokens
    assert pred.sentences[1].tokens is gold.sentences[1].tokens
    assert pred == parse_sem_conll(pred_text)


def test_punctuation_tags_take_part_in_the_comparison():
    gold = parse_sem_conll(GOLD)
    pred = parse_sem_conll(GOLD, punct_pos=frozenset(), tokens_from=gold)
    assert pred.sentences[0].tokens is not gold.sentences[0].tokens  # "." is no longer punctuation
    assert pred.sentences[1].tokens is gold.sentences[1].tokens  # no POS: decided by the surface
    assert pred == parse_sem_conll(GOLD, punct_pos=frozenset())


def test_tokens_from_any_corpus():
    built = Corpus((Sentence("d", "1", (Token(0, "Fine"), Token(1, "!", is_punct=True))),))
    assert parse_sem_conll(GOLD, tokens_from=built).sentences[1].tokens is not built.sentences[0].tokens
    built = Corpus((Sentence("d", 1, (Token(0, "Fine"), Token(1, "!", is_punct=True))),))
    assert parse_sem_conll(GOLD, tokens_from=built).sentences[1].tokens is built.sentences[0].tokens
