"""Reader for BioScope-style XML (nested ``xcope``/``cue`` markup).

BioScope ships untokenized: scopes and cues are character ranges of the
sentence text, which this reader maps onto tokens produced by the
configurable tokenizer.  Only negation-type cues are extracted; speculation
markup is ignored.  BioScope annotates the cue as part of its scope — the
``remove_cue_from_scope`` switch subtracts the cue elements again for
comparison with corpora that keep cues outside the scope.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import IO

from .conll import _check_keys, _decode
from .errors import ParseError
from .model import (
    AnnotationElement,
    Corpus,
    NegationInstance,
    Sentence,
    Token,
    element_for,
    is_punct_surface,
    renumber,
)
from .tokenizer import CharSpan, TokenizerConfig, tokenize

_NEGATION = "negation"


def parse_bioscope(
    data: str | bytes | IO,
    tokenizer: TokenizerConfig | None = None,
    *,
    remove_cue_from_scope: bool = False,
    name: str = "",
    source: str = "<string>",
) -> Corpus:
    """Parse one BioScope XML document set into a :class:`Corpus`.

    Raises :class:`ParseError` for malformed XML, a cue or scope without its
    counterpart, and a sentence key that an earlier sentence has (two
    documents with one ``DocumentID``).
    """
    try:
        root = ET.fromstring(_decode(data, source))
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}", source) from None
    tokenizer = tokenizer or TokenizerConfig()

    documents = root.findall(".//Document")
    if not documents:
        documents = [root]
    sentences: list[Sentence] = []
    for doc_no, doc in enumerate(documents):
        doc_id = _document_id(doc, doc_no)
        for sent_index, sent_el in enumerate(doc.iter("sentence")):
            sentences.append(
                _parse_sentence(sent_el, doc_id, sent_index, tokenizer, remove_cue_from_scope, source)
            )
    _check_keys(sentences, source)
    return Corpus(tuple(sentences), name=name)


def load_bioscope(path, tokenizer: TokenizerConfig | None = None, *, remove_cue_from_scope: bool = False) -> Corpus:
    with open(path, "rb") as handle:
        return parse_bioscope(
            handle,
            tokenizer,
            remove_cue_from_scope=remove_cue_from_scope,
            name=str(path),
            source=str(path),
        )


def _document_id(doc: ET.Element, doc_no: int) -> str:
    id_el = doc.find(".//DocumentID")
    if id_el is not None and id_el.text:
        return id_el.text.strip()
    return doc.get("id", f"doc{doc_no}")


def _parse_sentence(
    sent_el: ET.Element,
    doc_id: str,
    sent_index: int,
    tokenizer: TokenizerConfig,
    remove_cue_from_scope: bool,
    source: str,
) -> Sentence:
    text_parts: list[str] = []
    scope_spans: dict[str, tuple[int, int]] = {}
    cue_spans: list[tuple[str, int, int]] = []  # (ref, start, end), negation cues only

    def walk(element: ET.Element) -> None:
        start = sum(len(p) for p in text_parts)
        if element.text:
            text_parts.append(element.text)
        for child in element:
            walk(child)
            if child.tail:
                text_parts.append(child.tail)
        end = sum(len(p) for p in text_parts)
        tag = element.tag.lower()
        if tag == "xcope":
            xcope_id = element.get("id", "")
            scope_spans[xcope_id] = (start, end)
        elif tag == "cue" and element.get("type") == _NEGATION:
            cue_spans.append((element.get("ref", ""), start, end))

    walk(sent_el)
    text = "".join(text_parts)
    spans = tokenize(text, tokenizer)
    tokens = tuple(
        Token(index=i, surface=s.text, is_punct=is_punct_surface(s.text))
        for i, s in enumerate(spans)
    )
    where = f"{doc_id} sentence {sent_el.get('id', sent_index)}"

    by_ref: dict[str, list[tuple[int, int]]] = {}
    for ref, start, end in cue_spans:
        if ref not in scope_spans:
            raise ParseError(f"{where}: negation cue references unknown scope id {ref!r}", source)
        by_ref.setdefault(ref, []).append((start, end))
    # A scope is only malformed when nothing references it at all; scopes
    # referenced solely by speculation cues are silently skipped.
    all_refs = {el.get("ref", "") for el in sent_el.iter("cue")}
    for xcope_id in scope_spans:
        if xcope_id not in all_refs:
            raise ParseError(f"{where}: scope {xcope_id!r} has no matching cue reference", source)

    instances: list[NegationInstance] = []
    for xcope_id in sorted(by_ref, key=lambda i: scope_spans[i][0]):
        cue: set[AnnotationElement] = set()
        for start, end in by_ref[xcope_id]:
            cue.update(_elements_in_span(tokens, spans, start, end))
        scope = set(_elements_in_span(tokens, spans, *scope_spans[xcope_id]))
        if remove_cue_from_scope:
            scope -= cue
        instances.append(NegationInstance(frozenset(cue), frozenset(scope)))
    return Sentence(
        doc_id=doc_id,
        sent_index=sent_index,
        tokens=tokens,
        instances=renumber(inst for inst in instances if inst.cue),
    )


def _elements_in_span(
    tokens: tuple[Token, ...], spans: list[CharSpan], start: int, end: int
) -> list[AnnotationElement]:
    """Tokens fully inside [start, end) become whole-token elements; tokens
    straddling a boundary contribute the contained part as a sub-span."""
    out: list[AnnotationElement] = []
    for token, span in zip(tokens, spans):
        if span.end <= start or span.start >= end:
            continue
        lo, hi = max(span.start, start), min(span.end, end)
        if lo >= hi:
            continue
        out.append(element_for(token, (lo - span.start, hi - span.start)))
    return out
