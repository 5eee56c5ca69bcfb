from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import outputs_under_hash_seeds
from negeval import (
    AnnotationElement,
    GraphError,
    NegationInstance,
    ParseError,
    Sentence,
    Token,
)
from negeval.depgraph import (
    Edge,
    EncodingKind,
    NegDepGraph,
    decode,
    decode_corpus,
    encode,
    encode_corpus,
    format_graph,
    parse_graph_corpus,
)
from negeval.testing import random_laminar_sentence, random_sentence


def signatures(instances):
    return sorted(((i.cue, i.scope, i.event) for i in instances), key=repr)


def tokens(n):
    return tuple(Token(i, f"w{i}") for i in range(n))


def inst(cue, scope=(), event=(), instance_id=0):
    return NegationInstance(
        frozenset(AnnotationElement(i) for i in cue),
        frozenset(AnnotationElement(i) for i in scope),
        frozenset(AnnotationElement(i) for i in event),
        instance_id=instance_id,
    )


class TestNestedSentenceFixture:
    """The two-instance nested sentence: outer cue at 3 with event at 4,
    inner cue at 8, inner extent inside the outer scope."""

    def test_direct_edges(self, nested_corpus):
        graph = encode(nested_corpus.sentences[0], EncodingKind.DIRECT)
        assert Counter(e.label for e in graph.edges) == {"S": 15, "CUE": 2, "E": 1}
        assert graph.dependents(None, "CUE") == [3, 8]
        assert graph.dependents(3, "S") == [1, 2, 5, 6, 7, 8, 9, 10, 11]
        assert graph.dependents(3, "E") == [4]
        assert graph.dependents(8, "S") == [5, 6, 7, 9, 10, 11]

    def test_nested_edges(self, nested_corpus):
        graph = encode(nested_corpus.sentences[0], EncodingKind.NESTED)
        assert Counter(e.label for e in graph.edges) == {"S": 9, "CUE": 2, "E": 1}
        assert graph.dependents(3, "S") == [1, 2, 8]  # only one link into the inner scope
        assert graph.dependents(3, "E") == [4]
        assert graph.dependents(8, "S") == [5, 6, 7, 9, 10, 11]

    def test_round_trip_both_kinds(self, nested_corpus):
        sent = nested_corpus.sentences[0]
        for kind in EncodingKind:
            back = decode(encode(sent, kind), kind)
            assert signatures(back) == signatures(sent.instances)

    def test_direct_has_at_least_as_many_edges_as_nested(self, nested_corpus):
        sent = nested_corpus.sentences[0]
        assert len(encode(sent, EncodingKind.DIRECT).edges) >= len(
            encode(sent, EncodingKind.NESTED).edges
        )


def test_sentence_without_instances_has_no_edges():
    sent = Sentence("d", 0, tokens(4), ())
    for kind in EncodingKind:
        assert encode(sent, kind).edges == frozenset()
        assert decode(encode(sent, kind), kind) == []


def test_multiword_cue_attaches_to_representative():
    sent = Sentence("d", 0, tokens(6), (inst({1, 3}, {4, 5}),))
    graph = encode(sent, EncodingKind.DIRECT)
    assert graph.dependents(None, "CUE") == [1]
    assert graph.dependents(1, "MWC") == [3]
    back = decode(graph, EncodingKind.DIRECT)
    assert signatures(back) == signatures(sent.instances)


def test_shared_representative_is_an_error():
    sent = Sentence("d", 0, tokens(4), (inst({0}, {1}), inst({0, 2}, {3}, instance_id=1)))
    with pytest.raises(GraphError):
        encode(sent, EncodingKind.DIRECT)


def test_affix_elements_are_promoted_with_diagnostic():
    sent = Sentence(
        "d",
        0,
        (Token(0, "imprecise"), Token(1, "was")),
        (NegationInstance(frozenset({AnnotationElement(0, "im")}), frozenset({AnnotationElement(1)})),),
    )
    diags = []
    graph = encode(sent, EncodingKind.DIRECT, diags)
    assert graph.dependents(None, "CUE") == [0]
    assert [d.code for d in diags] == ["affix-promoted"]


def test_non_laminar_family_falls_back_to_direct_locally():
    # two instances overlapping on token 3, neither containing the other
    sent = Sentence("d", 0, tokens(8), (inst({0}, {1, 2, 3}), inst({5}, {3, 6, 7}, instance_id=1)))
    diags = []
    graph = encode(sent, EncodingKind.NESTED, diags)
    assert graph.dependents(0, "S") == [1, 2, 3]
    assert graph.dependents(5, "S") == [3, 6, 7]
    assert "non-laminar-scopes" in {d.code for d in diags}
    direct = encode(sent, EncodingKind.DIRECT)
    assert graph.edges == direct.edges  # fully degenerate here


def test_decode_rejects_scope_edge_from_non_cue_head():
    graph = NegDepGraph(4, frozenset({Edge(None, 0, "CUE"), Edge(2, 1, "S")}))
    with pytest.raises(GraphError):
        decode(graph, EncodingKind.DIRECT)


def test_decode_rejects_cue_edge_not_on_root():
    graph = NegDepGraph(4, frozenset({Edge(None, 0, "CUE"), Edge(0, 1, "CUE")}))
    with pytest.raises(GraphError):
        decode(graph, EncodingKind.DIRECT)


def test_decode_rejects_a_root_edge_other_than_cue():
    graph = NegDepGraph(2, frozenset({Edge(None, 0, "CUE"), Edge(None, 1, "S")}))
    with pytest.raises(GraphError) as err:
        decode(graph, EncodingKind.DIRECT)
    assert str(err.value) == "root edge with label 'S'; only CUE may attach to root"


def test_decode_rejects_an_unknown_label():
    graph = NegDepGraph(2, frozenset({Edge(None, 0, "CUE"), Edge(0, 1, "X")}))
    with pytest.raises(GraphError) as err:
        decode(graph, EncodingKind.DIRECT)
    assert str(err.value) == "edge with unknown label 'X'"


def test_decode_rejects_an_edge_outside_its_graph():
    graph = NegDepGraph(2, frozenset({Edge(None, 9, "CUE"), Edge(9, 1, "S"), Edge(9, -3, "S")}))
    with pytest.raises(GraphError) as err:
        decode(graph, EncodingKind.DIRECT)
    assert str(err.value) == "S edge to token -3, outside the graph's 2 tokens"
    # a head outside the graph carries no CUE edge, or its CUE edge is outside too
    cues = {Edge(None, 0, "CUE"), Edge(None, 2, "CUE")}
    for edges in (cues, cues | {Edge(2, 1, "S")}):
        with pytest.raises(GraphError) as err:
            decode(NegDepGraph(2, frozenset(edges)), EncodingKind.NESTED)
        assert str(err.value) == "CUE edge to token 2, outside the graph's 2 tokens"
    with pytest.raises(GraphError) as err:
        decode(NegDepGraph(2, frozenset({Edge(None, 0, "CUE"), Edge(7, 1, "S")})), EncodingKind.DIRECT)
    assert str(err.value) == "S edge from token 7, which carries no CUE edge"


def test_decode_reports_the_first_fault_in_row_order_under_every_hash_seed(tmp_path):
    # token 1's root S edge comes before token 3's CUE edge with head 1
    path = tmp_path / "g.graph"
    path.write_text("#doc d\n#sent 0\n1\tno\t0:S\n2\tway\t3:E\n3\there\t0:CUE|1:CUE\n", encoding="utf-8")
    outputs = outputs_under_hash_seeds(["-m", "negeval.cli", "dep-decode", str(path)])
    assert outputs == {
        (5, "", f"negeval: graph-error: {path}:1: root edge with label 'S'; only CUE may attach to root\n")
    }


def test_decode_rejects_nesting_cycles():
    graph = NegDepGraph(
        4,
        frozenset(
            {
                Edge(None, 0, "CUE"),
                Edge(None, 1, "CUE"),
                Edge(0, 1, "S"),
                Edge(1, 0, "S"),
            }
        ),
    )
    with pytest.raises(GraphError):
        decode(graph, EncodingKind.NESTED)


def test_random_laminar_round_trips():
    for seed in range(300):
        rng = random.Random(seed)
        sent = random_laminar_sentence(rng, n_tokens=rng.randint(6, 20), depth=3)
        for kind in EncodingKind:
            back = decode(encode(sent, kind), kind)
            assert signatures(back) == signatures(sent.instances), (seed, kind)


def _decoded(graph, kind):
    """The (cue, scope, event) multiset ``graph`` decodes to, or None."""
    try:
        return Counter((i.cue, i.scope, i.event) for i in decode(graph, kind))
    except GraphError:
        return None


def test_minimal_lossy_nested_case_warns():
    # instance 1 is not nested in instance 0, yet its representative lies in
    # instance 0's scope, so decoding would add token 3 to that scope
    sent = Sentence("d", 0, tokens(4), (inst({0}, {0, 1}), inst({1}, {3}, instance_id=1), inst({3}, instance_id=2)))
    diags = []
    graph = encode(sent, EncodingKind.NESTED, diags)
    assert [d.code for d in diags] == ["nested-lossy"]
    assert _decoded(graph, EncodingKind.NESTED) != Counter((i.cue, i.scope, i.event) for i in sent.instances)


def test_an_encoding_without_diagnostics_round_trips():
    """Over random sentences with overlapping scopes and cues inside other
    scopes, a sentence encoded without a diagnostic decodes to its own
    instances, and a nested graph that does not gives a nested-lossy warning."""
    rng = random.Random(2)
    seen = Counter()
    for n in range(2000):
        sent = random_sentence(rng, "d", n, max_tokens=40, max_instances=3, punct_prob=0.25)
        original = Counter((i.cue, i.scope, i.event) for i in sent.instances)
        for kind in EncodingKind:
            diags = []
            graph = encode(sent, kind, diags)
            codes = {d.code for d in diags}
            same = _decoded(graph, kind) == original
            assert same or "nested-lossy" in codes, (n, kind, codes)
            if len(sent.instances) > 1:
                seen[kind, bool(codes), same] += 1
    assert seen.keys() == {
        (EncodingKind.DIRECT, False, True),
        (EncodingKind.NESTED, False, True),
        (EncodingKind.NESTED, True, True),
        (EncodingKind.NESTED, True, False),
    }


def test_nested_never_has_more_edges_than_direct():
    for seed in range(100):
        rng = random.Random(seed)
        sent = random_laminar_sentence(rng, n_tokens=rng.randint(6, 20), depth=3)
        direct = encode(sent, EncodingKind.DIRECT)
        nested = encode(sent, EncodingKind.NESTED)
        assert len(nested.edges) <= len(direct.edges)


def test_encoding_is_deterministic(nested_corpus):
    sent = nested_corpus.sentences[0]
    for kind in EncodingKind:
        assert encode(sent, kind) == encode(sent, kind)


def test_decoded_tokens_are_punctuation_by_their_surface():
    corpus = decode_corpus("#doc d\n#sent 0\n1\tNo\t0:CUE\n2\t\u2014\t_\n3\tway\t1:S\n", EncodingKind.DIRECT)
    assert [t.is_punct for t in corpus.sentences[0].tokens] == [False, True, False]


class TestSerialization:
    def test_root_is_written_as_index_zero(self, nested_corpus):
        sent = nested_corpus.sentences[0]
        text = format_graph(sent, encode(sent, EncodingKind.DIRECT))
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert rows[3].startswith("4\tno\t0:CUE")  # token 4 (1-based) is the cue

    def test_corpus_round_trip(self, nested_corpus):
        text = encode_corpus(nested_corpus, EncodingKind.NESTED)
        parsed = parse_graph_corpus(text)
        assert len(parsed) == 1
        doc_id, sent_index, surfaces, graph = parsed[0]
        assert (doc_id, sent_index) == ("wisteria01", 0)
        assert surfaces == nested_corpus.sentences[0].surfaces()
        assert graph == encode(nested_corpus.sentences[0], EncodingKind.NESTED)

    def test_decode_corpus_recovers_instances(self, nested_corpus):
        text = encode_corpus(nested_corpus, EncodingKind.NESTED)
        corpus = decode_corpus(text, EncodingKind.NESTED)
        assert signatures(corpus.sentences[0].instances) == signatures(nested_corpus.sentences[0].instances)


# ---------------------------------------------------------------------------
# Reading graph blocks: other layouts give what format_graph's layout
# gives, and each row error names its line


GRAPH = "#doc d\n#sent 4\n1\tno\t0:CUE\n2\tway\t1:S|1:E\n3\t.\t_\n"


@pytest.mark.parametrize(
    "variant",
    [
        GRAPH.replace("#doc d\n#sent 4\n", "#sent 4\n#doc d\n"),
        GRAPH.replace("\n2\t", "\n02\t"),
        GRAPH.replace("#sent 4\n", "#sent 4\n#doc e\n#doc d\n"),
        GRAPH + "#doc d\n",
    ],
    ids=["sent-first", "zero-padded", "repeated-doc", "trailing-doc"],
)
def test_other_graph_layouts_parse_as_the_written_one(variant):
    written = parse_graph_corpus(GRAPH)
    edges = frozenset({Edge(None, 0, "CUE"), Edge(0, 1, "S"), Edge(0, 1, "E")})
    assert written == [("d", 4, ("no", "way", "."), NegDepGraph(3, edges))]
    assert parse_graph_corpus(variant) == written


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("#sent 4", "#sent four", "g:2: malformed #sent line"),
        ("2\tway\t1:S|1:E", "2\tway", "g:4: expected 3 columns in graph row, found 2"),
        ("2\tway\t1:S|1:E", "2\tway\t1:S\t_", "g:4: expected 3 columns in graph row, found 4"),
        ("3\t.", "4\t.", "g:5: token indices must be contiguous from 1, found 4"),
        ("1:S|1:E", "1:S|1", "g:4: malformed head:label pair '1'"),
        ("1:S|1:E", "1:S|1:X", "g:4: unknown edge label in '1:X'"),
        ("1:S|1:E", "one:S", "g:4: bad head index in 'one:S'"),
        ("1:S|1:E", "1:S|", "g:4: malformed head:label pair ''"),
        ("1:S|1:E", "4:S", "g:4: head index 4 outside 0..3 of its sentence"),
        ("0:CUE", "9:CUE", "g:3: head index 9 outside 0..3 of its sentence"),
    ],
)
def test_graph_row_errors_name_their_line(old, new, message):
    with pytest.raises(ParseError) as err:
        parse_graph_corpus(GRAPH.replace(old, new), source="g")
    assert str(err.value) == message
