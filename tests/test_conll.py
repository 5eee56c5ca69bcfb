from __future__ import annotations

import random

import pytest

from conftest import fixture_path
from negeval import ParseError, dump_sem_conll, parse_sem_conll, write_sem_conll
from negeval.testing import random_corpus


def row(*cols):
    return "\t".join(cols)


def test_affix_cue_becomes_subspan():
    text = "\n".join(
        [
            row("d", "0", "0", "It", "it", "PRP", "_", "_", "It", "_"),
            row("d", "0", "1", "imprecise", "imprecise", "JJ", "_", "im", "precise", "_"),
        ]
    )
    corpus = parse_sem_conll(text)
    inst = corpus.sentences[0].instances[0]
    (cue,) = inst.cue
    assert cue.token_index == 1 and cue.text == "im"
    scope_texts = {(e.token_index, e.text) for e in inst.scope}
    assert scope_texts == {(0, None), (1, "precise")}


def test_whole_surface_cell_is_whole_token_element():
    text = row("d", "0", "0", "no", "no", "DT", "_", "no", "_", "_")
    (cue,) = parse_sem_conll(text).sentences[0].instances[0].cue
    assert cue.text is None


def test_no_negation_sentence_has_empty_instances():
    text = "\n".join(
        [
            row("d", "0", "0", "All", "all", "DT", "_", "***"),
            row("d", "0", "1", "good", "good", "JJ", "_", "***"),
        ]
    )
    sent = parse_sem_conll(text).sentences[0]
    assert sent.instances == ()


def test_punctuation_flag_from_pos():
    text = "\n".join(
        [
            row("d", "0", "0", "Hi", "hi", "UH", "_", "***"),
            row("d", "0", "1", ",", ",", ",", "_", "***"),
        ]
    )
    tokens = parse_sem_conll(text).sentences[0].tokens
    assert [t.is_punct for t in tokens] == [False, True]


def test_tagged_tokens_go_by_their_tag_and_untagged_ones_by_their_surface():
    text = "\n".join(
        [
            row("d", "0", "0", "x", "_", "PUNCT", "_", "***"),
            row("d", "0", "1", ".", "_", "NN", "_", "***"),
            row("d", "0", "2", "!", "_", "_", "_", "***"),
            row("d", "0", "3", "y", "_", "_", "_", "***"),
        ]
    )
    tokens = parse_sem_conll(text).sentences[0].tokens
    assert [t.is_punct for t in tokens] == [True, False, True, False]


class TestParseErrors:
    def test_ragged_columns_reports_line(self):
        text = "\n".join(
            [
                row("d", "0", "0", "a", "a", "X", "_", "***"),
                row("d", "0", "1", "b", "b", "X", "***"),
            ]
        )
        with pytest.raises(ParseError) as err:
            parse_sem_conll(text, source="bad.conll")
        assert "bad.conll:2" in str(err.value)

    def test_cell_not_substring_of_surface(self):
        text = row("d", "0", "0", "cat", "cat", "NN", "_", "dog", "_", "_")
        with pytest.raises(ParseError):
            parse_sem_conll(text)

    def test_star_cell_mixed_with_instances(self):
        text = "\n".join(
            [
                row("d", "0", "0", "a", "a", "X", "_", "a", "_", "_"),
                row("d", "0", "1", "b", "b", "X", "_", "***", "_", "_"),
            ]
        )
        with pytest.raises(ParseError):
            parse_sem_conll(text)

    def test_bad_annotation_arity(self):
        text = row("d", "0", "0", "a", "a", "X", "_", "a", "_")
        with pytest.raises(ParseError):
            parse_sem_conll(text)

    def test_non_contiguous_token_numbers(self):
        text = "\n".join(
            [
                row("d", "0", "0", "a", "a", "X", "_", "***"),
                row("d", "0", "2", "b", "b", "X", "_", "***"),
            ]
        )
        with pytest.raises(ParseError):
            parse_sem_conll(text)


def test_write_empty_corpus_is_empty_stream():
    from negeval import Corpus

    assert write_sem_conll(Corpus()) == ""


def test_fixture_round_trip_is_byte_identical():
    raw = fixture_path("roundtrip.conll").read_text(encoding="utf-8")
    assert write_sem_conll(parse_sem_conll(raw, name="rt")) == raw


def test_dump_writes_what_write_gives(tmp_path):
    corpus = parse_sem_conll(fixture_path("roundtrip.conll").read_bytes())
    dump_sem_conll(corpus, tmp_path / "out.conll")
    assert (tmp_path / "out.conll").read_bytes() == write_sem_conll(corpus).encode("utf-8")


def test_affix_round_trip_keeps_substring_text():
    raw = fixture_path("roundtrip.conll").read_text(encoding="utf-8")
    out = write_sem_conll(parse_sem_conll(raw))
    assert "\tim\t" in out  # the affix column survives as its substring


def test_parse_write_structural_identity_on_random_corpora():
    for seed in range(300):
        corpus = random_corpus(random.Random(seed), name="")
        again = parse_sem_conll(write_sem_conll(corpus))
        assert again == corpus, f"seed {seed}"


def test_write_parse_write_is_stable():
    for seed in range(50):
        corpus = random_corpus(random.Random(seed), name="")
        once = write_sem_conll(corpus)
        assert write_sem_conll(parse_sem_conll(once)) == once
