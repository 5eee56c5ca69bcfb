"""Unified in-memory model for negation-annotated corpora.

A corpus is a sequence of sentences; each sentence carries its tokens and a
list of negation instances.  An instance is a set of cue elements plus a set
of scope elements (and optionally event elements).  An element points at a
token and may cover only a sub-token character range, which is how affix
cues ("im" in "imprecise") are represented.

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
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)

#: POS tags treated as punctuation by default (PTB-style tags used by the
#: CoNLL negation data, plus the UD "PUNCT" tag).
DEFAULT_PUNCT_POS = frozenset(
    {",", ".", ":", "``", "''", "`", "'", "(", ")", "-LRB-", "-RRB-", "HYPH", "NFP", "PUNCT"}
)


def is_punct_surface(surface: str) -> bool:
    """True when every character of ``surface`` is Unicode punctuation."""
    # No letter or digit has a P* category, so a word skips the per-character walk.
    if surface.isalnum():
        return False
    return bool(surface) and all(unicodedata.category(ch).startswith("P") for ch in surface)


def detect_punct(surface: str, pos: str | None, punct_pos: frozenset[str] = DEFAULT_PUNCT_POS) -> bool:
    """Decide whether a token is punctuation.

    With a POS tag available the decision is by tag membership; without one
    (XML corpora carry no tags) it falls back to the Unicode character
    categories of the surface form.
    """
    if pos is not None:
        return pos in punct_pos
    return is_punct_surface(surface)


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """One token of a sentence.  ``index`` is the 0-based sentence position."""

    index: int
    surface: str
    lemma: str | None = None
    pos: str | None = None
    is_punct: bool = False

    def __init__(
        self,
        index: int,
        surface: str,
        lemma: str | None = None,
        pos: str | None = None,
        is_punct: bool = False,
    ) -> None:
        # The generated frozen __init__ calls object.__setattr__ per field;
        # the slot descriptors store the same values in half the time.
        _set_index(self, index)
        _set_surface(self, surface)
        _set_lemma(self, lemma)
        _set_pos(self, pos)
        _set_is_punct(self, is_punct)


_set_index, _set_surface, _set_lemma, _set_pos, _set_is_punct = (
    Token.__dict__[name].__set__ for name in ("index", "surface", "lemma", "pos", "is_punct")
)


@dataclass(frozen=True, slots=True)
class AnnotationElement:
    """A cue/scope/event constituent: a token, or a character range within one.

    ``text`` is ``None`` for a whole-token element and the covered substring
    otherwise.  Equality and hashing use ``(token_index, text)`` only, so a
    whole-token element equals a sub-span element covering the full surface
    (``element_for`` normalises that case away at construction time), and two
    sub-spans with identical text within the same token compare equal.
    ``subspan`` is kept for provenance but excluded from comparisons.
    """

    token_index: int
    text: str | None = None
    subspan: tuple[int, int] | None = field(default=None, compare=False)

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
    return AnnotationElement(token.index, token.surface[start:end], (start, end))


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

    Each record is ``(first cue index, id, position, cue, scope)``, the
    position being the instance's index in ``sent.instances``.  Sorted
    records give the order in which ``alignment._match`` takes instances,
    and the position breaks ties, so no sets are compared.  Events are left
    out, since no score reads them.

    This is the one place of the stripping rule.  Without ``punct`` tokens
    each instance keeps its cue, scope and ``instance_id``.  Otherwise its
    elements on ``punct`` tokens are left out, an instance left with no cue
    is dropped with a warning, since it cannot take part in cue matching,
    and each id is the kept instance's position among the kept ones.
    """
    if not punct:
        return [
            (min(map(_token_index, inst.cue)) if inst.cue else -1, inst.instance_id, n, inst.cue, inst.scope)
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
        records.append((min(map(_token_index, cue)), len(records), position, cue, _without(inst.scope, punct)))
    return records


def _kept_instances(sent: Sentence, punct: set[int]) -> tuple[NegationInstance, ...]:
    """``sent``'s instances as ``_records`` keeps them, with every element
    on a ``punct`` token removed.

    Returns ``sent.instances`` itself when that changes nothing, and keeps
    unchanged instances as the same objects.
    """
    if not punct or not sent.instances:
        return sent.instances
    kept: list[NegationInstance] = []
    changed = False
    for _, n, position, cue, scope in _records(sent, punct):
        inst = sent.instances[position]
        event = _without(inst.event, punct)
        if cue is not inst.cue or scope is not inst.scope or event is not inst.event or inst.instance_id != n:
            inst = NegationInstance(cue, scope, event, n)
            changed = True
        kept.append(inst)
    return tuple(kept) if changed or len(kept) != len(sent.instances) else sent.instances


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
        kept = _kept_instances(sent, _punct_indices(sent.tokens))
        if kept is not sent.instances:
            sent = Sentence(sent.doc_id, sent.sent_index, sent.tokens, kept)
        out_sentences.append(sent)
    return replace(corpus, sentences=tuple(out_sentences))


def validate(corpus: Corpus) -> list[Diagnostic]:
    """Check every model invariant and return the violations found.

    Errors: empty surfaces, non-contiguous token indices, out-of-range or
    out-of-bounds elements, empty cue sets, duplicate sentence keys.
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
        for pos, token in enumerate(sent.tokens):
            if token.index != pos:
                diags.append(
                    Diagnostic(
                        "error",
                        "bad-token-index",
                        f"token {pos} carries index {token.index}",
                        *sent.key,
                    )
                )
            if not token.surface:
                diags.append(
                    Diagnostic("error", "empty-surface", f"token {pos} has empty surface", *sent.key)
                )
        n = len(sent.tokens)
        for inst in sent.instances:
            if not inst.cue:
                diags.append(
                    Diagnostic("error", "empty-cue", "instance has no cue elements", *sent.key, inst.instance_id)
                )
            for element in (*inst.cue, *inst.scope, *inst.event):
                if not 0 <= element.token_index < n:
                    diags.append(
                        Diagnostic(
                            "error",
                            "index-out-of-range",
                            f"element references token {element.token_index} in a {n}-token sentence",
                            *sent.key,
                            inst.instance_id,
                        )
                    )
                    continue
                if element.subspan is not None:
                    start, end = element.subspan
                    surface = sent.tokens[element.token_index].surface
                    if not (0 <= start < end <= len(surface)):
                        diags.append(
                            Diagnostic(
                                "error",
                                "bad-subspan",
                                f"subspan {element.subspan} out of bounds for {surface!r}",
                                *sent.key,
                                inst.instance_id,
                            )
                        )
        for i, a in enumerate(sent.instances):
            for b in sent.instances[i + 1 :]:
                if a.cue & b.cue:
                    diags.append(
                        Diagnostic(
                            "warning",
                            "overlapping-cues",
                            f"instances {a.instance_id} and {b.instance_id} share cue elements",
                            *sent.key,
                            a.instance_id,
                        )
                    )
    return diags


def instance_signature(inst: NegationInstance) -> tuple[frozenset, frozenset]:
    """(cue, scope) pair used wherever instances are compared as annotations."""
    return (inst.cue, inst.scope)
