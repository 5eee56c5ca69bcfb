"""The CoNLL reader's contract: the line rule that cuts every text input
into blocks, exact errors and their order, accepted variants of the
format, the parse/write round trip with affix and surface-only
punctuation tokens, and the reading of a prediction against its gold's
blocks, which must read as ``parse_sem_conll`` reads the prediction on its
own."""

from __future__ import annotations

import codecs
import random
from collections import Counter

import pytest

from conftest import fixture_path
from negeval import (
    Corpus,
    EncodingKind,
    NegationInstance,
    ParseError,
    ReannotationPatch,
    Sentence,
    Token,
    TokenizerConfig,
    element_for,
    format_patch_file,
    full_report,
    load_sem_conll,
    parse_patch_file,
    parse_sem_conll,
    write_sem_conll,
)
from negeval.conll import _blocks, _parse_paired, load_pair
from negeval.datatools import parse_assignment
from negeval.depgraph import decode_corpus, encode_corpus
from negeval.model import is_punct_surface
from negeval.testing import random_corpus
from test_reader_contract import _outcome, _read_counting_paths


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
            [plain(0, "a"), plain(1, "b"), row("e", "7", "2", "c", "c", "X", "_", "***")],
            "bad.conll:3: document id 'e' differs from 'd' in the first row of the sentence",
        ),
        (
            [plain(0, "a"), row("d", "3", "1", "b", "b", "X", "_", "***")],
            "bad.conll:2: sentence number '3' differs from '0' in the first row of the sentence",
        ),
        (
            [plain(0, "a"), row("d", "x", "1", "b", "b", "X", "_", "***")],
            "bad.conll:2: sentence number is not an integer: 'x'",
        ),
        (
            # rows of 8, 13 and 3 cells: as many as three rows of 8, which would pass every column check
            [plain(0, "a"), row(*plain(1, "b").split("\t"), "q", "d", "0", "2", "c"), row("x", "y", "***")],
            "bad.conll:2: expected 8 columns as in the first row of the sentence, found 13",
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
        "other-document",
        "other-sentence",
        "later-sentence-number",
        "widths-that-add-up",
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


_LINE_PIECES = ("a", "b", "\n", "\r", "\r\n", " ", "\t", "\x0c", "\x85", "\u2028")


def _blocks_by_the_line_rule(text: str) -> list[tuple[int, list[str]]]:
    """The blocks of ``text`` by the README's line rule: lines end at line
    feeds and lose their trailing carriage returns, a line that is empty or
    all whitespace is blank, and a block is a maximal run of non-blank
    lines, named by the number of its first line, counted from 1."""
    blocks: list[tuple[int, list[str]]] = []
    in_block = False
    for number, line in enumerate(text.split("\n"), 1):
        while line.endswith("\r"):
            line = line[:-1]
        if all(ch.isspace() for ch in line):  # the empty line too
            in_block = False
        elif in_block:
            blocks[-1][1].append(line)
        else:
            blocks.append((number, [line]))
            in_block = True
    return blocks


def test_blocks_follow_the_line_rule():
    rng = random.Random(5)
    seen: Counter[str] = Counter()
    for case in range(20_000):
        text = "".join(rng.choices(_LINE_PIECES, k=rng.randrange(30)))
        expected = _blocks_by_the_line_rule(text)
        assert list(_blocks(text)) == expected, f"case {case}: {text!r}"
        seen[("no block", "one block", "blocks")[min(len(expected), 2)]] += 1
        seen["no blank line"] += expected == [(1, text.split("\n"))]
    assert all(seen[kind] > 1000 for kind in ("no block", "one block", "blocks", "no blank line")), seen


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
        # width before document id, document id before sentence number,
        # sentence number before token number
        (row("e", "0", "x", "b", "b", "X", "_", "***", "_"), "expected 8 columns as in the first row of the sentence, found 9"),
        (row("e", "1", "x", "b", "b", "X", "_", "***"), "document id 'e' differs from 'd' in the first row of the sentence"),
        (row("d", "1", "x", "b", "b", "X", "_", "***"), "sentence number '1' differs from '0' in the first row of the sentence"),
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
        CANONICAL.replace("d\t1\t1\t", "d\t01\t1\t"),
    ],
    ids=[
        "spaces",
        "space-runs",
        "crlf",
        "whitespace-separator",
        "extra-blank-lines",
        "no-final-newline",
        "zero-padded",
        "zero-padded-sentence-number",
    ],
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
    assert (cue.token_index, cue.text) == (1234, "w")
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
# a prediction read against its gold's blocks

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


_D0, _D1 = GOLD.split("\n\n")
_ROW = _D0.split("\n")[1]  # d#0's second row, "bad"
_SPACED = GOLD.replace(_ROW, _ROW.replace("\t", " "))  # that row written with spaces
_D1_NEGATED = "\n".join(
    [row("d", "1", "0", "Fine", "_", "_", "_", "Fine", "_", "_"), row("d", "1", "1", "!", "_", "_", "_", "_", "_", "_")]
)
_D0_CLEARED = "\n".join(line.rsplit("\t", 3)[0] + "\t***" for line in _D0.split("\n"))


@pytest.mark.parametrize(
    "gold_text, pred_text, gold_sentences",
    [
        (GOLD, GOLD, [True, True]),
        (GOLD, GOLD.replace("\n", "\r\n"), [True, True]),
        (GOLD, f"\n\n{_D1}\n \n\n{_D0}\n\n\n", [True, True]),  # reordered, with blank lines
        (GOLD, _D0, [True]),  # a key missing
        (GOLD, GOLD.replace("\t_\tbad\t_", "\t_\t_\t_"), [False, True]),  # another scope
        (GOLD, GOLD.replace(_D1, _D1_NEGATED), [True, False]),  # an instance where gold has none
        (GOLD, GOLD.replace(_D0, _D0_CLEARED), [False, True]),  # no instance where gold has one
        (GOLD, GOLD.replace("\tbad\tbad\tJJ\t", "\tbads\tbad\tJJ\t"), [False, True]),  # another surface
        (GOLD, GOLD.replace("\tJJ\t_\t", "\tJJ\tS\t"), [False, True]),  # another syntax cell
        (GOLD, GOLD.replace("d\t1\t", "d\t01\t"), [True, False]),  # a sentence number written otherwise
        (GOLD, GOLD.replace("\t", " "), [False, False]),  # space-padded rows
        (_SPACED, _SPACED, [True, True]),
        (_SPACED, _SPACED.replace("\tNot\t_\t_", "\tNot\t_\tNot"), [False, True]),
        (_SPACED, _SPACED.replace(_ROW.replace("\t", " "), _ROW.replace("\t", " ") + "\t_\t_\t_"), None),
        (GOLD, f"{_D0}\n\n{_D1}\n\n{_D0}", None),  # a repeated key
        (GOLD, GOLD.replace("\t_\tbad\t_", "\t_\tbad"), None),  # a short row
        (GOLD, GOLD.replace("\t_\tbad\t_", "\t_\tbax\t_"), None),  # a cell not in its token
        (GOLD, GOLD.replace("\t_\tbad\t_", "\t***\tbad\t_"), None),  # "***" among instance cells
        (GOLD, GOLD.replace("\tNot\t_\t_", "\t_\t_\t_"), None),  # an instance without a cue cell
        (GOLD, GOLD.replace("\t***", "\t_"), None),  # no "***" in a sentence without instances
        (GOLD, GOLD.replace("\t***", "\t_\t_"), None),  # annotation cells not in triples
        # token cells other than the gold's: the block is read with tokens of its own
        (GOLD, GOLD.replace("\tbad\tbad\tJJ\t", "\tbad\tBad\tJJ\t"), [False, True]),  # lemma
        (GOLD, GOLD.replace("\tbad\tbad\tJJ\t", "\tbad\tbad\tNN\t"), [False, True]),  # POS
        (GOLD, GOLD.replace("\t.\t.\t.\t", "\t.\t.\tNN\t"), [False, True]),  # POS, and with it is_punct
        (GOLD, GOLD.replace("\tbad\tbad\tJJ\t", "\tbad\t_\tJJ\t"), [False, True]),  # lemma missing
        (GOLD, GOLD.replace("\n" + row("d", "0", "2", ".", ".", ".", "_", "_", "_", "_"), ""), [False, True]),  # length
        (GOLD, GOLD.replace("d\t0\t", "d\t7\t"), [False, True]),  # a key not in the gold
    ],
)
def test_a_prediction_read_against_its_gold_reads_as_parse_sem_conll_reads_it(gold_text, pred_text, gold_sentences):
    blocks: dict = {}
    gold = _parse_paired(gold_text, blocks)
    paired = _outcome(
        lambda: _read_counting_paths(Counter(), gold.sentences, _parse_paired, pred_text, blocks, "p", "p.conll")
    )
    assert paired == _outcome(lambda: parse_sem_conll(pred_text, "p", "p.conll"))
    if gold_sentences is None:
        assert paired[0] is ParseError
        return
    by_key = {s.key: s for s in gold.sentences}
    assert [s is by_key.get(s.key) for s in paired[1].sentences] == gold_sentences


@pytest.mark.parametrize(
    "pred_text",
    [GOLD.replace("\tJJ\t_\t", "\tJJ\tS\t"), GOLD.replace("d\t1\t", "d\t01\t")],
    ids=["another syntax cell", "a sentence number written otherwise"],
)
def test_a_block_with_the_gold_surface_lemma_and_pos_columns_shares_the_gold_tokens(pred_text):
    blocks: dict = {}
    gold = _parse_paired(GOLD, blocks)
    paired = _parse_paired(pred_text, blocks)
    assert paired == parse_sem_conll(pred_text)
    assert [p.tokens is g.tokens for p, g in zip(paired.sentences, gold.sentences)] == [True, True]
    assert [p is g for p, g in zip(paired.sentences, gold.sentences)].count(False) == 1


# ---------------------------------------------------------------------------
# load_pair: a gold file and its predictions, read as ``evaluate`` reads them

_PAIR = [fixture_path(f"two_systems_{name}.conll") for name in ("gold", "a", "b")]


def test_load_pair_reads_each_file_as_load_sem_conll_reads_it():
    corpora = load_pair(*_PAIR)
    assert corpora == tuple(map(load_sem_conll, _PAIR))
    assert [corpus.name for corpus in corpora] == list(map(str, _PAIR))
    assert load_pair(_PAIR[0]) == (load_sem_conll(_PAIR[0]),)


def test_load_pair_shares_the_gold_sentences_and_tokens_a_prediction_repeats():
    gold, *preds = load_pair(*_PAIR)
    gold_blocks = ["\n".join(lines) for _, lines in _blocks(_PAIR[0].read_text("utf-8"))]

    def columns(sent):
        return [(t.surface, t.lemma, t.pos) for t in sent.tokens]

    shared = Counter()
    for path, pred in zip(_PAIR[1:], preds):
        blocks = ["\n".join(lines) for _, lines in _blocks(path.read_text("utf-8"))]
        assert [s.key for s in pred.sentences] == [s.key for s in gold.sentences]
        pairs = list(zip(pred.sentences, gold.sentences))
        assert [p is g for p, g in pairs] == [b == g for b, g in zip(blocks, gold_blocks)]
        assert [p.tokens is g.tokens for p, g in pairs] == [columns(p) == columns(g) for p, g in pairs]
        shared.update(("sentence" if p is g else "tokens" if p.tokens is g.tokens else "none") for p, g in pairs)
    # both systems repeat some gold blocks byte for byte and only the token columns of others
    assert shared["sentence"] and shared["tokens"], shared


def test_load_pair_reads_each_prediction_against_the_blocks_of_the_files_before_it(tmp_path):
    system = GOLD.replace("\t_\tbad\t_", "\t_\t_\t_")  # d#0 differs from the gold, d#1 is the gold's
    paths = [tmp_path / name for name in ("gold.conll", "a.conll", "b.conll")]
    for path, text in zip(paths, (GOLD, system, system)):
        path.write_text(text, encoding="utf-8")
    gold, a, b = load_pair(*paths)
    assert (a, b) == (parse_sem_conll(system, str(paths[1])), parse_sem_conll(system, str(paths[2])))
    assert [s is g for s, g in zip(a.sentences, gold.sentences)] == [False, True]
    assert [s is t for s, t in zip(b.sentences, a.sentences)] == [True, True]
    assert a.sentences[0].tokens is gold.sentences[0].tokens


def test_load_pair_raises_the_error_load_sem_conll_raises(tmp_path):
    lines = _PAIR[1].read_text("utf-8").split("\n")
    last = max(i for i, line in enumerate(lines) if "\t" in line)
    lines[last] = lines[last].rsplit("\t", 1)[0]  # a short row, in a block the gold has byte for byte
    bad = tmp_path / "a.conll"
    bad.write_text("\n".join(lines), encoding="utf-8")
    expected = _outcome(lambda: load_sem_conll(bad))
    assert expected[0] is ParseError and expected[3] == last + 1
    assert _outcome(lambda: load_pair(_PAIR[0], bad)) == expected
    assert _outcome(lambda: load_pair(_PAIR[0], _PAIR[2], bad)) == expected


def test_a_report_on_load_pair_is_the_report_on_two_plain_reads():
    for pred in _PAIR[1:]:
        plain = full_report(load_sem_conll(_PAIR[0]), load_sem_conll(pred))
        assert full_report(*load_pair(_PAIR[0], pred)).to_json() == plain.to_json()


# ---------------------------------------------------------------------------
# A leading byte-order mark: every line reader drops one, as ``_blocks`` does

_BOM = "\ufeff"


def _marked_copy(path, directory):
    """A copy of the file at ``path`` in ``directory``, its bytes led by a UTF-8 byte-order mark."""
    copy = directory / path.name
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def test_blocks_drop_one_leading_byte_order_mark_and_keep_any_other():
    assert list(_blocks(_BOM + "a\n\nb")) == [(1, ["a"]), (3, ["b"])]
    assert list(_blocks(_BOM + "\r\n a\n")) == [(2, [" a"])]
    assert list(_blocks(_BOM + _BOM + "a")) == [(1, [_BOM + "a"])]
    assert list(_blocks("a\n" + _BOM + "\nb" + _BOM)) == [(1, ["a", _BOM, "b" + _BOM])]


def test_a_byte_order_marked_conll_text_reads_as_the_plain_one():
    text = _PAIR[0].read_text("utf-8")
    assert parse_sem_conll(_BOM + text, "g") == parse_sem_conll(text, "g")
    assert parse_sem_conll(codecs.BOM_UTF8 + text.encode(), "g") == parse_sem_conll(text, "g")
    # a repeated key names the same line with the mark as without it
    lines = text.rstrip("\n").split("\n")
    repeated = "\n".join([*lines, "", *text.split("\n\n")[0].split("\n")])
    expected = _outcome(lambda: parse_sem_conll(repeated))
    assert expected[0] is ParseError and expected[3] == len(lines) + 2
    assert _outcome(lambda: parse_sem_conll(_BOM + repeated)) == expected


def test_load_pair_reads_byte_order_marked_files_as_the_plain_ones(tmp_path):
    marked = load_pair(*(_marked_copy(path, tmp_path) for path in _PAIR))
    plain = load_pair(*_PAIR)
    assert [corpus.sentences for corpus in marked] == [corpus.sentences for corpus in plain]

    def shared(corpora):
        gold, *preds = corpora
        return [[p is g for p, g in zip(pred.sentences, gold.sentences)] for pred in preds]

    assert shared(marked) == shared(plain)


def test_a_byte_order_marked_graph_decodes_as_the_plain_one():
    gold = load_sem_conll(_PAIR[0])
    for kind in EncodingKind:
        graph = encode_corpus(gold, kind)
        assert decode_corpus(_BOM + graph, kind) == decode_corpus(graph, kind)


def test_a_byte_order_marked_patch_reads_as_the_plain_one():
    gold = load_sem_conll(_PAIR[0])
    sent = next(s for s in gold.sentences if s.instances)
    text = format_patch_file(gold, [ReannotationPatch(sent.doc_id, sent.sent_index, 0, sent.instances[:1])])
    assert parse_patch_file(_BOM + text, gold) == parse_patch_file(text, gold)


def test_a_byte_order_marked_assignment_reads_as_the_plain_one():
    text = "doc1\ttest\n# a comment\ndoc2 dev\n"
    assert parse_assignment(_BOM + text) == parse_assignment(text) == {"doc1": "test", "doc2": "dev"}


def test_a_byte_order_marked_tokenizer_rule_file_reads_as_the_plain_one(tmp_path):
    rules = fixture_path("tokenizer.rules")
    assert rules.read_text("utf-8").startswith("#")
    assert TokenizerConfig.from_file(_marked_copy(rules, tmp_path)) == TokenizerConfig.from_file(rules)
