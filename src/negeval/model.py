"""Unified in-memory model for negation-annotated corpora.

A corpus is a sequence of sentences; each sentence carries its tokens and a
list of negation instances.  An instance is a set of cue elements plus a set
of scope elements (and optionally event elements).  An element points at a
token and may cover only part of its text, which is how affix cues ("im" in
"imprecise") are represented.

All types are immutable after construction and hashable, so they can be
shared freely and processed in parallel.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import logging
import operator
import unicodedata
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable, Iterator, Sequence

logger = logging.getLogger(__name__)

#: POS tags of punctuation (PTB-style tags used by the CoNLL negation data,
#: plus the UD "PUNCT" tag).
DEFAULT_PUNCT_POS = frozenset(
    {",", ".", ":", "``", "''", "`", "'", "(", ")", "-LRB-", "-RRB-", "HYPH", "NFP", "PUNCT"}
)


def is_punct_surface(surface: str) -> bool:
    """True when every character of ``surface`` is Unicode punctuation."""
    # No letter or digit has a P* category, so a word skips the per-character walk.
    if surface.isalnum():
        return False
    return bool(surface) and all(unicodedata.category(ch).startswith("P") for ch in surface)


@dataclass(frozen=True, slots=True)
class Token:
    """One token of a sentence.  ``index`` is the 0-based sentence position."""

    index: int
    surface: str
    lemma: str | None = None
    pos: str | None = None
    is_punct: bool = False


_set_index, _set_surface, _set_lemma, _set_pos, _set_is_punct = (
    Token.__dict__[name].__set__ for name in ("index", "surface", "lemma", "pos", "is_punct")
)


def _punct_flags(surfaces: Sequence[str], tags: Sequence[str | None] | None = None) -> list[bool]:
    """Whether each token is punctuation: the one place of the rule.

    A token with a POS tag is punctuation when the tag is in
    ``DEFAULT_PUNCT_POS``.  A token without one (XML and graph corpora carry
    no tags, CoNLL writes ``_``) is punctuation when its surface is.
    """
    if tags is None:
        return list(map(is_punct_surface, surfaces))
    if None not in tags:
        return list(map(DEFAULT_PUNCT_POS.__contains__, tags))
    return [is_punct_surface(s) if t is None else t in DEFAULT_PUNCT_POS for s, t in zip(surfaces, tags)]


def _tokens(
    surfaces: Sequence[str], lemmas: Sequence[str | None] | None = None, tags: Sequence[str | None] | None = None
) -> tuple[Token, ...]:
    """Tokens numbered from 0 with ``surfaces`` and, where given, ``lemmas``
    and POS ``tags``: the one token builder of the package, and the one
    place that sets ``is_punct``, by ``_punct_flags``.

    Each field is set a column at a time through the class's slot
    descriptors, which saves the frozen ``__init__`` call per token.
    """
    n = len(surfaces)
    tokens = list(map(object.__new__, repeat(Token, n)))
    # each setter returns None, so any() runs a map to its end
    any(map(_set_index, tokens, range(n)))
    any(map(_set_surface, tokens, surfaces))
    any(map(_set_lemma, tokens, repeat(None) if lemmas is None else lemmas))
    any(map(_set_pos, tokens, repeat(None) if tags is None else tags))
    any(map(_set_is_punct, tokens, _punct_flags(surfaces, tags)))
    return tuple(tokens)


@dataclass(frozen=True, slots=True)
class AnnotationElement:
    """A cue/scope/event constituent: a token, or text within one.

    ``text`` is ``None`` for a whole-token element, and otherwise part of the
    token's surface that ``_text_fault`` accepts (affix cues).
    """

    token_index: int
    text: str | None = None

    def effective_text(self, token: Token) -> str:
        """The surface text this element denotes within ``token``."""
        return token.surface if self.text is None else self.text


@functools.lru_cache(maxsize=None)
def _whole_token(index: int) -> AnnotationElement:
    """The one shared whole-token element for ``index``.

    Sharing lets set operations between gold and predicted elements stop at
    CPython's identity check instead of calling ``__eq__``, and keeps held
    corpora small.  Equality and hashing are by value as for any element.
    """
    return AnnotationElement(index)


def element_for(token: Token, subspan: tuple[int, int] | None = None) -> AnnotationElement:
    """Build an element for ``token``, normalising full-surface sub-spans.

    Whole-token elements are shared objects; sub-span elements are new ones.
    Raises ``ValueError`` when the sub-span does not satisfy
    ``0 <= start < end <= len(surface)``.
    """
    if subspan is None:
        return _whole_token(token.index)
    start, end = subspan
    if not (0 <= start < end <= len(token.surface)):
        raise ValueError(
            f"subspan {subspan!r} out of bounds for token {token.surface!r} (index {token.index})"
        )
    if start == 0 and end == len(token.surface):
        return _whole_token(token.index)
    return AnnotationElement(token.index, token.surface[start:end])


def _text_fault(text: str, surface: str) -> str | None:
    """Why ``text`` cannot be an element's text on a token with ``surface``,
    or None: the one rule of element text.  It must be a non-empty substring
    of the surface, and not the whole surface, which text ``None`` covers."""
    if not text:
        return "empty annotation cell"
    if text == surface:
        return f"annotation cell {text!r} is the whole token, which an element without text covers"
    if text not in surface:
        return f"annotation cell {text!r} is not a substring of token {surface!r}"
    return None


@dataclass(frozen=True)
class NegationInstance:
    """One negation: a non-empty cue set, a scope set, and optional events.

    The scope may be empty ("If not, ..." has a cue without any scope).
    ``instance_id`` is the ordinal of the instance within its sentence.
    """

    cue: frozenset[AnnotationElement]
    scope: frozenset[AnnotationElement] = frozenset()
    event: frozenset[AnnotationElement] = frozenset()
    instance_id: int = 0

    def first_cue_index(self) -> int:
        """Token index of the linearly first cue element (-1 if cue is empty)."""
        return min(map(_token_index, self.cue), default=-1)

    def last_cue_index(self) -> int:
        return max(map(_token_index, self.cue), default=-1)


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    sent_index: int
    tokens: tuple[Token, ...]
    instances: tuple[NegationInstance, ...] = ()

    @property
    def key(self) -> tuple[str, int]:
        return (self.doc_id, self.sent_index)

    def surfaces(self) -> tuple[str, ...]:
        # a comprehension's slot loads beat an attrgetter map on CPython 3.11
        return tuple([t.surface for t in self.tokens])


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...] = ()
    name: str = ""

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class Diagnostic:
    """One machine-readable validation finding."""

    level: str  # "error" or "warning"
    code: str
    message: str
    doc_id: str | None = None
    sent_index: int | None = None
    instance_id: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.doc_id is not None:
            where = f" at {self.doc_id}#{self.sent_index}"
            if self.instance_id is not None:
                where += f"/instance {self.instance_id}"
        return f"{self.level}[{self.code}]{where}: {self.message}"


@contextlib.contextmanager
def _gc_paused():
    """Pause cyclic GC for the block, then restore the caller's setting.

    The model holds no reference cycles, so reference counting frees corpora
    on its own and cyclic GC would only rescan them.  Nested use keeps the
    outermost caller's setting.  As a decorator it resumes GC after the
    call's frame, and with it every temporary, is gone.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def renumber(instances: Iterable[NegationInstance]) -> tuple[NegationInstance, ...]:
    """``instances`` with each ``instance_id`` set to the instance's position."""
    return tuple(NegationInstance(i.cue, i.scope, i.event, n) for n, i in enumerate(instances))


_token_index = operator.attrgetter("token_index")


def _without(elements: frozenset[AnnotationElement], punct: set[int]) -> frozenset[AnnotationElement]:
    """``elements`` less those on a ``punct`` token; the same set if none is."""
    if punct.isdisjoint(map(_token_index, elements)):
        return elements
    # a copy keeps the stored hashes, so only the removed elements are hashed
    return elements.difference([e for e in elements if e.token_index in punct])


def _punct_indices(tokens: tuple[Token, ...]) -> set[int]:
    # On CPython 3.11 a comprehension's slot loads beat an attrgetter map:
    # this takes about half the time of set(compress(range(n), map(...))).
    return {t.index for t in tokens if t.is_punct}


def _records(sent: Sentence, punct: set[int] | None = None) -> list[tuple]:
    """``sent``'s instances as scoring reads them, in instance order.

    Each record is ``(first cue index, position, cue, scope)``, the position
    being the instance's index in ``sent.instances``.  Sorted records give
    the cue order in which ``alignment._match`` takes instances, ties going
    by position, so no sets are compared and no ``instance_id`` is read.
    Events are left out, since no score reads them.

    This is the one place of the stripping rule: with ``punct`` tokens, their
    elements are left out, and an instance left with no cue is dropped with a
    warning, since it cannot take part in cue matching.
    """
    if not punct:
        return [
            (min(map(_token_index, inst.cue)) if inst.cue else -1, n, inst.cue, inst.scope)
            for n, inst in enumerate(sent.instances)
        ]
    records = []
    for position, inst in enumerate(sent.instances):
        cue = _without(inst.cue, punct)
        if not cue:
            logger.warning(
                "dropping instance %d of %s#%d: cue is entirely punctuation",
                inst.instance_id,
                sent.doc_id,
                sent.sent_index,
            )
            continue
        records.append((min(map(_token_index, cue)), position, cue, _without(inst.scope, punct)))
    return records


def strip_punctuation(corpus: Corpus) -> Corpus:
    """Remove punctuation tokens from every cue/scope/event set.

    Tokens themselves are kept (indices never change); only the annotation
    sets shrink.  An instance whose cue consists solely of punctuation is
    dropped with a warning, since it cannot take part in cue matching.  In a
    sentence with punctuation tokens the kept instances are renumbered by
    position.  Sets, instances and sentences that this leaves unchanged are
    returned as the same objects.  Idempotent.
    """
    out_sentences = []
    for sent in corpus.sentences:
        punct = _punct_indices(sent.tokens)
        if punct and sent.instances:
            kept, changed = [], False
            for n, (_, position, cue, scope) in enumerate(_records(sent, punct)):
                inst = sent.instances[position]
                event = _without(inst.event, punct)
                if cue is not inst.cue or scope is not inst.scope or event is not inst.event or inst.instance_id != n:
                    inst = NegationInstance(cue, scope, event, n)
                    changed = True
                kept.append(inst)
            if changed or len(kept) != len(sent.instances):
                sent = Sentence(sent.doc_id, sent.sent_index, sent.tokens, tuple(kept))
        out_sentences.append(sent)
    return replace(corpus, sentences=tuple(out_sentences))


def _element_order(element: AnnotationElement) -> tuple[int, bool, str]:
    """Sort key of ``element``: by token index, then whole token first, then text."""
    return (element.token_index, element.text is not None, element.text or "")


def _instance_faults(inst: NegationInstance, tokens: Sequence[Token]) -> list[tuple[str, str]]:
    """The ``(code, message)`` of each fault of ``inst`` on ``tokens``: an
    empty cue, then each element on no token or with text that ``_text_fault``
    rejects, in ``_element_order``.  Only faulty elements are sorted."""
    n = len(tokens)
    found = []
    for e in (*inst.cue, *inst.scope, *inst.event):
        i = e.token_index
        if not 0 <= i < n:
            message = f"element references token {i} in a {n}-token sentence"
            found.append((_element_order(e), "index-out-of-range", message))
        elif e.text is not None and (fault := _text_fault(e.text, tokens[i].surface)) is not None:
            found.append((_element_order(e), "bad-element-text", f"element on token {i}: {fault}"))
    found.sort()
    return [("empty-cue", "instance has no cue elements")] * (not inst.cue) + [f[1:] for f in found]


def _token_faults(tokens: Sequence[Token]) -> list[tuple[str, str]]:
    """The ``(code, message)`` of each fault of ``tokens``, token by token:
    an index other than the token's position, an empty surface, then a
    lemma and a POS tag ``_``, the CoNLL cell that reads back as none.
    One comprehension tests every token first, so tokens without a fault
    are not walked."""
    # a comprehension's slot loads beat an attrgetter map on CPython 3.11
    if not [i for i, t in enumerate(tokens) if t.index != i or not t.surface or t.lemma == "_" or t.pos == "_"]:
        return []
    found = []
    for position, token in enumerate(tokens):
        if token.index != position:
            found.append(("bad-token-index", f"token {position} carries index {token.index}"))
        if not token.surface:
            found.append(("empty-surface", f"token {position} has empty surface"))
        for field, value in (("lemma", token.lemma), ("POS tag", token.pos)):
            if value == "_":
                found.append(("reserved-token-field", f"token {position} has {field} '_', which CoNLL reads as none"))
    return found


def _first_repeat(keys: list) -> int | None:
    """The position of the first of ``keys`` that an earlier one equals, or
    None: the one rule of which repeated sentence key an error names."""
    seen = set()
    for position, key in enumerate(keys):
        if key in seen:
            return position
        seen.add(key)
    return None


def validate(corpus: Corpus) -> list[Diagnostic]:
    """Check every model invariant and return the violations found.

    Errors: empty surfaces, non-contiguous token indices, a lemma or POS
    tag ``_``, empty cue sets and elements that ``_instance_faults``
    rejects, duplicate sentence keys.
    Warnings: cue sets shared between instances of one sentence (evaluation
    still proceeds on such data).  The readers raise a ``ParseError`` for
    input that would give one of these errors, so this is for corpora built
    in Python.
    """
    diags: list[Diagnostic] = []
    seen_keys: set[tuple[str, int]] = set()
    for sent in corpus.sentences:
        if sent.key in seen_keys:
            diags.append(
                Diagnostic("error", "duplicate-sentence", f"duplicate sentence key {sent.key}", *sent.key)
            )
        seen_keys.add(sent.key)
        diags.extend(Diagnostic("error", code, message, *sent.key) for code, message in _token_faults(sent.tokens))
        for inst in sent.instances:
            diags.extend(
                Diagnostic("error", code, message, *sent.key, inst.instance_id)
                for code, message in _instance_faults(inst, sent.tokens)
            )
        for i, a in enumerate(sent.instances):
            for b in sent.instances[i + 1 :]:
                if a.cue & b.cue:
                    message = f"instances {a.instance_id} and {b.instance_id} share cue elements"
                    diags.append(Diagnostic("warning", "overlapping-cues", message, *sent.key, a.instance_id))
    return diags
