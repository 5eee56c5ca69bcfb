from __future__ import annotations

import pytest

from conftest import fixture_path
from negeval import ParseError, load_sfu, parse_sfu


@pytest.fixture(scope="module")
def corpus():
    return load_sfu(fixture_path("sfu_sample.xml"))


def test_document_id_is_the_file_stem(corpus):
    assert {s.doc_id for s in corpus.sentences} == {"sfu_sample"}


def test_simple_cue_and_scope(corpus):
    sent = corpus.sentences[0]
    (inst,) = sent.instances
    assert {e.token_index for e in inst.cue} == {2}
    assert {e.token_index for e in inst.scope} == {3, 4}
    # whole-token elements only: this corpus never produces sub-spans
    assert all(e.text is None for e in inst.cue | inst.scope)


def test_discontinuous_scope_is_the_union_of_fragments(corpus):
    sent = corpus.sentences[1]
    (inst,) = sent.instances
    assert {e.token_index for e in inst.scope} == {0, 1, 3}
    assert {e.token_index for e in inst.cue} == {2}


def test_speculation_markup_is_ignored(corpus):
    assert corpus.sentences[2].instances == ()


def test_cue_without_scope_yields_empty_scope(corpus):
    sent = corpus.sentences[3]
    (inst,) = sent.instances
    assert {e.token_index for e in inst.cue} == {1}
    assert inst.scope == frozenset()


def test_punctuation_from_surface(corpus):
    sent = corpus.sentences[0]
    assert sent.tokens[-1].is_punct  # "."
    assert not sent.tokens[0].is_punct


def test_punctuation_by_the_surface_of_each_token():
    (sent,) = parse_sfu("<DOCUMENT><SENTENCE><W>No</W><W>\u2014</W><W>way</W></SENTENCE></DOCUMENT>").sentences
    assert [(t.surface, t.is_punct) for t in sent.tokens] == [("No", False), ("\u2014", True), ("way", False)]


def test_instance_count_matches_hand_count(corpus):
    assert sum(len(s.instances) for s in corpus.sentences) == 3


def test_ref_child_linkage_is_supported():
    xml = (
        "<DOCUMENT><PARAGRAPH><SENTENCE>"
        "<cue type='negation' ID='7'><W>no</W></cue>"
        "<xcope><ref SRC='7'/><W>luck</W></xcope>"
        "</SENTENCE></PARAGRAPH></DOCUMENT>"
    )
    corpus = parse_sfu(xml, name="r")
    (inst,) = corpus.sentences[0].instances
    assert {e.token_index for e in inst.scope} == {1}


def test_a_blank_word_element_is_no_token():
    xml = (
        "<DOCUMENT><PARAGRAPH><SENTENCE><W/>"
        "<cue type='negation' ID='1'><W>no</W></cue><W> </W>"
        "<xcope><ref SRC='1'/><W>luck</W></xcope>"
        "</SENTENCE></PARAGRAPH></DOCUMENT>"
    )
    (sent,) = parse_sfu(xml, name="r").sentences
    assert sent.surfaces() == ("no", "luck")
    (inst,) = sent.instances
    assert ({e.token_index for e in inst.cue}, {e.token_index for e in inst.scope}) == ({0}, {1})


def test_scope_with_unknown_cue_reference_is_an_error():
    xml = (
        "<DOCUMENT><PARAGRAPH><SENTENCE>"
        "<W>a</W><xcope ID='9'><W>b</W></xcope>"
        "</SENTENCE></PARAGRAPH></DOCUMENT>"
    )
    with pytest.raises(ParseError):
        parse_sfu(xml)


def test_malformed_xml_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_sfu("<DOCUMENT><SENTENCE><W>a</W></DOCUMENT>")
