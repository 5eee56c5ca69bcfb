from __future__ import annotations

import pytest

from conftest import fixture_path
from negeval import ParseError, load_bioscope, parse_bioscope


@pytest.fixture(scope="module")
def corpus():
    return load_bioscope(fixture_path("bioscope_sample.xml"))


def test_cue_inside_scope_by_default(corpus):
    sent = corpus.sentences[0]
    (inst,) = sent.instances
    cue_idx = {e.token_index for e in inst.cue}
    scope_idx = {e.token_index for e in inst.scope}
    assert cue_idx == {2}
    assert cue_idx <= scope_idx
    assert scope_idx == {2, 3, 4, 5}  # no evidence of infection


def test_normalization_switch_removes_cue_tokens():
    corpus = load_bioscope(fixture_path("bioscope_sample.xml"), remove_cue_from_scope=True)
    (inst,) = corpus.sentences[0].instances
    assert {e.token_index for e in inst.scope} == {3, 4, 5}


def test_speculation_only_sentence_has_no_instances(corpus):
    assert corpus.sentences[1].instances == ()


def test_nested_scopes_inner_subset_of_outer(corpus):
    sent = corpus.sentences[2]
    assert len(sent.instances) == 2
    outer, inner = sorted(
        sent.instances, key=lambda i: len(i.scope), reverse=True
    )
    inner_idx = {e.token_index for e in inner.scope}
    outer_idx = {e.token_index for e in outer.scope}
    assert inner_idx < outer_idx


def test_affix_cue_maps_to_subspan(corpus):
    sent = corpus.sentences[2]
    inner = min(sent.instances, key=lambda i: len(i.scope))
    (cue,) = inner.cue
    token = sent.tokens[cue.token_index]
    assert token.surface == "unable"
    assert cue.text == "un"


def test_elements_lie_inside_their_markup_span(corpus):
    # every scope element covers text inside the xcope it came from; check
    # via the sentence text boundaries recovered from token order
    sent = corpus.sentences[0]
    (inst,) = sent.instances
    indices = sorted(e.token_index for e in inst.scope)
    assert indices == list(range(indices[0], indices[-1] + 1))


def test_document_id_from_document_element(corpus):
    assert {s.doc_id for s in corpus.sentences} == {"doc1"}


def test_punctuation_detected_without_pos(corpus):
    sent = corpus.sentences[0]
    assert sent.tokens[-1].surface == "."
    assert sent.tokens[-1].is_punct


def test_punctuation_by_the_surface_of_each_token():
    (sent,) = parse_bioscope("<sentence>No \u2014 way</sentence>").sentences
    assert [(t.surface, t.is_punct) for t in sent.tokens] == [("No", False), ("\u2014", True), ("way", False)]


def test_malformed_xml_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_bioscope("<sentence>unclosed <xcope id='x'>...</sentence>")


def test_scope_without_cue_reference_is_an_error():
    xml = "<doc><sentence id='s'>a <xcope id='X1'>lonely scope</xcope>.</sentence></doc>"
    with pytest.raises(ParseError):
        parse_bioscope(xml)


def test_cue_with_unknown_reference_is_an_error():
    xml = (
        "<doc><sentence id='s'><xcope id='X1'>"
        "<cue type='negation' ref='X9'>no</cue> luck</xcope>.</sentence></doc>"
    )
    with pytest.raises(ParseError):
        parse_bioscope(xml)


def test_entities_are_decoded_before_offsets():
    # "&amp;" is five raw characters but one decoded one; scope offsets must
    # refer to the decoded text or everything after it shifts
    xml = (
        "<doc><sentence id='s'>r&amp;d was <xcope id='X1'>"
        "<cue type='negation' ref='X1'>not</cue> done</xcope></sentence></doc>"
    )
    corpus = parse_bioscope(xml)
    sent = corpus.sentences[0]
    assert [t.surface for t in sent.tokens] == ["r", "&", "d", "was", "not", "done"]
    (inst,) = sent.instances
    assert {e.token_index for e in inst.scope} == {4, 5}
