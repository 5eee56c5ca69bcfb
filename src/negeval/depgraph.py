"""Encoding negation instances as labeled dependency graphs, and back.

Cue tokens hang off an artificial root with the label CUE; the linearly
first cue token of an instance acts as its representative, and the remaining
tokens of a multiword cue attach to the representative as MWC.  Scope and
event tokens attach to representatives with labels S and E.

Two encodings are supported.  The *direct* encoding attaches every scope
token to the representative of every instance whose scope contains it.  The
*nested* encoding attaches each token only to the representative of the
innermost instance containing it, which for embedded scopes leaves a single
S link from the outer representative to the inner one; decoding expands the
inner instance's cue and scope back into the outer scope.  When instances
overlap without one containing the other (no innermost instance exists),
the affected tokens fall back to direct attachment and a diagnostic is
recorded; a nested graph that does not decode back to its instances is
recorded too.

Sub-token (affix) elements cannot be represented: they are promoted to
their containing token with a diagnostic, which is lossy.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .conll import _blocks, _check_block, _check_distinct_keys, _check_instances, _check_keys, _check_tokens
from .errors import GraphError, ParseError
from .model import Corpus, Diagnostic, NegationInstance, Sentence, _tokens, _whole_token

LABEL_CUE = "CUE"
LABEL_SCOPE = "S"
LABEL_EVENT = "E"
LABEL_MULTIWORD = "MWC"
_LABELS = frozenset({LABEL_CUE, LABEL_SCOPE, LABEL_EVENT, LABEL_MULTIWORD})


class EncodingKind(enum.Enum):
    DIRECT = "direct"
    NESTED = "nested"


@dataclass(frozen=True)
class Edge:
    """head -> dependent with a label; ``head=None`` is the artificial root."""

    head: int | None
    dependent: int
    label: str


@dataclass(frozen=True)
class NegDepGraph:
    n_tokens: int
    edges: frozenset[Edge]

    def dependents(self, head: int | None, label: str) -> list[int]:
        return sorted(e.dependent for e in self.edges if e.head == head and e.label == label)


def _token_sets(inst: NegationInstance) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    cue = frozenset(e.token_index for e in inst.cue)
    scope = frozenset(e.token_index for e in inst.scope)
    event = frozenset(e.token_index for e in inst.event)
    return cue, scope, event


def encode(
    sentence: Sentence, kind: EncodingKind, diagnostics: list[Diagnostic] | None = None
) -> NegDepGraph:
    """Encode a sentence's instances as a negation dependency graph.

    Raises :class:`UsageError` for an instance that ``validate`` finds at
    fault, and :class:`GraphError` when two instances share a representative
    token (their edges would be indistinguishable).  With a ``diagnostics``
    list, a nested graph is decoded again, and a graph that does not give
    back the instances' cue, scope and event tokens adds a ``nested-lossy``
    warning.
    """

    def diag(code: str, message: str) -> None:
        if diagnostics is not None:
            diagnostics.append(
                Diagnostic("warning", code, message, sentence.doc_id, sentence.sent_index)
            )

    if not sentence.instances:
        return NegDepGraph(len(sentence.tokens), frozenset())
    _check_instances(sentence, sentence.instances)
    insts = []
    for inst in sentence.instances:
        if any(e.text is not None for e in (*inst.cue, *inst.scope, *inst.event)):
            diag(
                "affix-promoted",
                f"instance {inst.instance_id} has sub-token elements; encoded at whole tokens",
            )
        insts.append(_token_sets(inst))

    reps = []
    seen = set()
    for cue, _, _ in insts:
        rep = min(cue)
        if rep in seen:
            raise GraphError(
                f"two instances of {sentence.doc_id}#{sentence.sent_index} share representative token {rep}"
            )
        seen.add(rep)
        reps.append(rep)

    edges: set[Edge] = set()
    for (cue, _, event), rep in zip(insts, reps):
        edges.add(Edge(None, rep, LABEL_CUE))
        for c in cue:
            if c != rep:
                edges.add(Edge(rep, c, LABEL_MULTIWORD))
        for t in event:
            edges.add(Edge(rep, t, LABEL_EVENT))

    if kind is EncodingKind.DIRECT:
        for (_, scope, _), rep in zip(insts, reps):
            for t in scope:
                edges.add(Edge(rep, t, LABEL_SCOPE))
        return NegDepGraph(len(sentence.tokens), frozenset(edges))

    # Nested encoding: attach each scope token to the innermost instance
    # containing it.  Instance b is nested in a iff scope(b) ∪ cue(b) ⊆
    # scope(a).
    full = [cue | scope for cue, scope, _ in insts]
    scopes = [scope for _, scope, _ in insts]

    def nested_in(b: int, a: int) -> bool:
        return a != b and full[b] <= scopes[a]

    non_laminar = False
    for t in set().union(*scopes):
        containing = [i for i in range(len(insts)) if t in scopes[i]]
        minimal = [i for i in containing if not any(nested_in(j, i) for j in containing)]
        if len(minimal) == 1:
            targets = minimal
        elif not minimal and all(
            nested_in(a, b) for a in containing for b in containing if a != b
        ):
            # Everything mutually nested means identical effective extents;
            # break the tie toward the smaller scope, then the earlier cue.
            targets = [min(containing, key=lambda i: (len(scopes[i]), reps[i]))]
        else:
            # Two or more incomparable containing instances: no innermost
            # one exists for this token.
            targets = containing
            non_laminar = True
        for i in targets:
            edges.add(Edge(reps[i], t, LABEL_SCOPE))
    if non_laminar:
        diag(
            "non-laminar-scopes",
            "overlapping instances without containment; overlap tokens attached directly",
        )
    graph = NegDepGraph(len(sentence.tokens), frozenset(edges))
    if diagnostics is not None and not _decodes_to(graph, insts):
        diag("nested-lossy", "the nested graph does not decode to these instances")
    return graph


def _decodes_to(graph: NegDepGraph, insts: list[tuple[frozenset[int], ...]]) -> bool:
    """Whether the nested ``graph`` decodes to the token sets ``insts``, in any order."""
    try:
        decoded = decode(graph, EncodingKind.NESTED)
    except GraphError:
        return False
    return Counter(map(_token_sets, decoded)) == Counter(insts)


def _row_order(edge: Edge) -> tuple[int, int, str]:
    """Sort key of ``edge`` as written: by dependent, then head with the root
    first, then label."""
    return (edge.dependent, -1 if edge.head is None else edge.head, edge.label)


def decode(graph: NegDepGraph, kind: EncodingKind) -> list[NegationInstance]:
    """Rebuild whole-token instances from a graph.

    Raises :class:`GraphError` for an edge to a token outside the graph, a
    root edge other than CUE, a CUE edge off the root, other edges whose
    head carries no CUE edge, an unknown label and cycles in the nesting
    relation of a nested graph.  Edges are checked in the order in which
    ``format_graph`` writes them, so the first fault reported does not
    depend on set order.
    """
    if not graph.edges:
        return []
    reps = sorted(e.dependent for e in graph.edges if e.head is None and e.label == LABEL_CUE)
    cue_tokens = {r: {r} for r in reps}
    direct_scope: dict[int, set[int]] = {r: set() for r in reps}
    events: dict[int, set[int]] = {r: set() for r in reps}
    by_label = {LABEL_MULTIWORD: cue_tokens, LABEL_SCOPE: direct_scope, LABEL_EVENT: events}
    for edge in sorted(graph.edges, key=_row_order):
        if not 0 <= edge.dependent < graph.n_tokens:
            raise GraphError(f"{edge.label} edge to token {edge.dependent}, outside the graph's {graph.n_tokens} tokens")
        if edge.head is None:
            if edge.label != LABEL_CUE:
                raise GraphError(f"root edge with label {edge.label!r}; only CUE may attach to root")
        elif edge.label == LABEL_CUE:
            raise GraphError(f"CUE edge with head {edge.head}; cues attach to the root only")
        elif edge.head not in cue_tokens:
            raise GraphError(
                f"{edge.label} edge from token {edge.head}, which carries no CUE edge"
            )
        elif edge.label not in by_label:
            raise GraphError(f"edge with unknown label {edge.label!r}")
        else:
            by_label[edge.label][edge.head].add(edge.dependent)

    if kind is EncodingKind.NESTED:
        expanded: dict[int, set[int]] = {}

        def expand(r: int, stack: tuple[int, ...]) -> set[int]:
            if r in stack:
                raise GraphError(f"cycle in nested encoding through representatives {stack + (r,)}")
            if r in expanded:
                return expanded[r]
            scope = set(direct_scope[r])
            for d in direct_scope[r]:
                if d in cue_tokens and d != r:
                    scope |= cue_tokens[d]
                    scope |= expand(d, stack + (r,))
            expanded[r] = scope
            return scope

        scope_of = {r: expand(r, ()) for r in reps}
    else:
        scope_of = direct_scope

    instances = []
    for k, r in enumerate(reps):
        instances.append(
            NegationInstance(
                cue=frozenset(map(_whole_token, cue_tokens[r])),
                scope=frozenset(map(_whole_token, scope_of[r])),
                event=frozenset(map(_whole_token, events[r])),
                instance_id=k,
            )
        )
    return instances


# ---------------------------------------------------------------------------
# Serialisation: CoNLL-style rows "index  surface  head:label|..." with the
# root written as index 0 and tokens numbered from 1.  ``#doc``/``#sent``
# comment lines keep the corpus structure.


def format_graph(sentence: Sentence, graph: NegDepGraph) -> str:
    """Serialise one sentence's graph.  Raises :class:`UsageError` for a
    token that ``validate`` finds at fault, and when a surface or the
    document id holds a tab, line feed or carriage return."""
    _check_tokens(sentence)
    by_dep: dict[int, list[tuple[int, str]]] = {}
    for edge in graph.edges:
        head = 0 if edge.head is None else edge.head + 1
        by_dep.setdefault(edge.dependent, []).append((head, edge.label))
    cells = {
        dependent: "|".join(f"{head}:{label}" for head, label in sorted(pairs))
        for dependent, pairs in by_dep.items()
    }
    rows = [f"{t.index + 1}\t{t.surface}\t{cells.get(t.index, '_')}" for t in sentence.tokens]
    block = "\n".join((f"#doc {sentence.doc_id}", f"#sent {sentence.sent_index}", *rows))
    _check_block(sentence, block, rows, 2, header_lines=2)
    return block


def encode_corpus(corpus: Corpus, kind: EncodingKind, diagnostics: list[Diagnostic] | None = None) -> str:
    """Encode and serialise every sentence of ``corpus``.  Raises what
    ``encode`` and ``format_graph`` raise, and a :class:`UsageError` for a
    sentence key that an earlier sentence has."""
    blocks = [format_graph(s, encode(s, kind, diagnostics)) for s in corpus.sentences]
    _check_distinct_keys(corpus.sentences)
    return ("\n\n".join(blocks) + "\n") if blocks else ""


def _parse_graph_block(lines: list[str], first_line: int, source: str):
    doc_id = ""
    sent_index = 0
    surfaces: list[str] = []
    edges: set[Edge] = set()
    heads: list[tuple[int, int]] = []  # (1-based head, line), checked once n is known
    for lineno, line in enumerate(lines, first_line):
        if line.startswith("#doc "):
            doc_id = line[len("#doc ") :]
            continue
        if line.startswith("#sent "):
            try:
                sent_index = int(line[len("#sent ") :])
            except ValueError:
                raise ParseError("malformed #sent line", source, lineno) from None
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(f"expected 3 columns in graph row, found {len(cols)}", source, lineno)
        if not cols[1]:
            raise ParseError("empty token surface", source, lineno)
        try:
            index = int(cols[0]) - 1
        except ValueError:
            raise ParseError(f"bad token index {cols[0]!r}", source, lineno) from None
        if index != len(surfaces):
            raise ParseError(f"token indices must be contiguous from 1, found {cols[0]}", source, lineno)
        surfaces.append(cols[1])
        if cols[2] != "_":
            for pair in cols[2].split("|"):
                head_text, _, label = pair.partition(":")
                if not label:
                    raise ParseError(f"malformed head:label pair {pair!r}", source, lineno)
                if label not in _LABELS:
                    raise ParseError(f"unknown edge label in {pair!r}", source, lineno)
                try:
                    head = int(head_text)
                except ValueError:
                    raise ParseError(f"bad head index in {pair!r}", source, lineno) from None
                heads.append((head, lineno))
                edges.add(Edge(None if head == 0 else head - 1, index, label))
    for head, lineno in heads:
        if not 0 <= head <= len(surfaces):
            raise ParseError(
                f"head index {head} outside 0..{len(surfaces)} of its sentence", source, lineno
            )
    return (doc_id, sent_index, tuple(surfaces), NegDepGraph(len(surfaces), frozenset(edges)))


def decode_corpus(text: str, kind: EncodingKind, source: str = "<string>", name: str = "") -> Corpus:
    """Decode serialised graphs into a corpus.  Raises :class:`ParseError`,
    with its row, for an empty token surface, and with the line of its
    block, for a sentence key an earlier block has; a :class:`GraphError`
    from :func:`decode` also names the first line of its block."""
    sentences = []
    for first_line, lines in _blocks(text):
        doc_id, sent_index, surfaces, graph = _parse_graph_block(lines, first_line, source)
        try:
            instances = tuple(decode(graph, kind))
        except GraphError as exc:
            raise GraphError(str(exc), source, first_line) from None
        sentences.append(
            Sentence(doc_id=doc_id, sent_index=sent_index, tokens=_tokens(surfaces), instances=instances)
        )
    _check_keys(sentences, source, text)
    return Corpus(tuple(sentences), name=name)
