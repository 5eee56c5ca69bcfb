"""Reader for SFU Review-style XML (pre-tokenized ``W`` markup).

Each sentence is a flat mix of ``W`` word elements, ``cue`` elements wrapping
their words, and ``xcope`` elements wrapping scope words.  A cue and its
scope fragments are linked by a shared ``ID`` attribute (an ``xcope`` may
alternatively carry a ``<ref SRC="..."/>`` child naming the cue).  Several
``xcope`` fragments may point at one cue — that is how discontinuous scopes
are written.  Cues stay outside the scope in this corpus, and affix negation
is annotated on the whole word, so every element here is a whole token.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import IO

from .conll import _decode
from .errors import ParseError
from .model import Corpus, NegationInstance, Sentence, _tokens, element_for

_NEGATION = "negation"


def parse_sfu(data: str | bytes | IO, *, name: str = "", source: str = "<string>") -> Corpus:
    """Parse one SFU review document into a :class:`Corpus` (one doc_id)."""
    try:
        root = ET.fromstring(_decode(data, source))
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}", source) from None
    doc_id = name or root.get("id", "document")
    sentences = []
    for sent_index, sent_el in enumerate(root.iter("SENTENCE")):
        sentences.append(_parse_sentence(sent_el, doc_id, sent_index, source))
    return Corpus(tuple(sentences), name=name)


def load_sfu(path) -> Corpus:
    p = Path(path)
    with open(p, "rb") as handle:
        return parse_sfu(handle, name=p.stem, source=str(p))


def _parse_sentence(sent_el: ET.Element, doc_id: str, sent_index: int, source: str) -> Sentence:
    surfaces: list[str] = []
    cue_words: dict[str, list[int]] = {}  # cue ID -> token indices (negation only)
    scope_words: dict[str, list[int]] = {}  # referenced cue ID -> token indices
    where = f"{doc_id} sentence {sent_index}"

    def add_word(element: ET.Element) -> int | None:
        surface = (element.text or "").strip()
        if not surface:
            return None
        surfaces.append(surface)
        return len(surfaces) - 1

    def walk(element: ET.Element, cue_ids: tuple[str, ...], scope_ids: tuple[str, ...]) -> None:
        # Stacks, not single ids: a word inside nested xcope markup belongs
        # to every enclosing scope.
        for child in element:
            tag = child.tag
            if tag == "W":
                index = add_word(child)
                if index is None:
                    continue
                for cue_id in cue_ids:
                    cue_words.setdefault(cue_id, []).append(index)
                for scope_id in scope_ids:
                    scope_words.setdefault(scope_id, []).append(index)
            elif tag == "cue":
                child_id = child.get("ID", child.get("id", ""))
                is_neg = child.get("type") == _NEGATION
                walk(child, cue_ids + (child_id,) if is_neg else cue_ids, scope_ids)
            elif tag == "xcope":
                ref = child.find("ref")
                if ref is not None:
                    xcope_ref = ref.get("SRC", ref.get("src", ""))
                else:
                    xcope_ref = child.get("ID", child.get("id", ""))
                walk(child, cue_ids, scope_ids + (xcope_ref,))
            else:
                walk(child, cue_ids, scope_ids)

    walk(sent_el, (), ())

    known_cues = {el.get("ID", el.get("id", "")) for el in sent_el.iter("cue")}
    for ref in scope_words:
        if ref not in known_cues:
            raise ParseError(f"{where}: scope references unknown cue id {ref!r}", source)

    tokens = _tokens(surfaces)
    instances = []
    for k, cue_id in enumerate(sorted(cue_words, key=lambda c: min(cue_words[c]))):
        cue = frozenset(element_for(tokens[i]) for i in cue_words[cue_id])
        scope = frozenset(element_for(tokens[i]) for i in scope_words.get(cue_id, []))
        instances.append(NegationInstance(cue, scope, instance_id=k))
    return Sentence(doc_id=doc_id, sent_index=sent_index, tokens=tokens, instances=tuple(instances))
