"""Deterministic offset-preserving tokenizer for untokenized XML corpora.

The splitter is intentionally simple: whitespace separates chunks, URLs are
protected as single tokens, known abbreviations are kept whole, and anything
else is split into alternating runs of word and punctuation characters.  A
punctuation character flanked by word characters on both sides (hyphen,
apostrophe, decimal point, ...) stays word-internal, so "IL-2" and "3.5"
survive as single tokens.

Every token carries its half-open character offsets into the input, and the
tokens partition exactly the non-whitespace characters: gluing surfaces back
together with the skipped whitespace reproduces the input byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .conll import _decode
from .errors import ParseError

DEFAULT_URL_PATTERN = r"(?:https?|ftp)://\S+|www\.\S+"
#: Trailing characters peeled off a URL match so that "see http://x.y/z."
#: does not swallow the sentence-final period.
_URL_TRAIL = ".,;:!?)\"']}"
DEFAULT_WORD_INTERNAL = "-'’."
DEFAULT_ABBREVIATIONS = frozenset(
    {"Mr.", "Mrs.", "Ms.", "Dr.", "Prof.", "St.", "No.", "etc.", "e.g.", "i.e.", "vs.", "Fig.", "cf."}
)


@dataclass(frozen=True)
class TokenizerConfig:
    url_pattern: str = DEFAULT_URL_PATTERN
    word_internal: str = DEFAULT_WORD_INTERNAL
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS

    @classmethod
    def from_text(cls, text: str) -> "TokenizerConfig":
        """Parse the plain-text rule format: one ``key value`` rule per line.

        Keys: ``url`` (regex, last one wins), ``internal`` (characters kept
        word-internal), ``abbrev`` (one abbreviation per line; repeatable).
        ``#`` starts a comment.  Raises :class:`ParseError` for an unknown
        key or a ``url`` pattern that does not compile.
        """
        return _parse_rules(text, "<string>")

    @classmethod
    def from_file(cls, path) -> "TokenizerConfig":
        with open(path, "rb") as handle:
            return _parse_rules(_decode(handle.read(), str(path)), str(path))


def _parse_rules(text: str, source: str) -> TokenizerConfig:
    url = DEFAULT_URL_PATTERN
    internal = DEFAULT_WORD_INTERNAL
    abbrevs: set[str] = set()
    saw_abbrev = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "url":
            try:
                re.compile(value)
            except re.error as exc:
                message = f"url pattern {value!r} does not compile: {exc}"
                raise ParseError(message, source, lineno) from None
            url = value
        elif key == "internal":
            internal = value
        elif key == "abbrev":
            abbrevs.add(value)
            saw_abbrev = True
        else:
            raise ParseError(f"unknown tokenizer rule {key!r}", source, lineno)
    return TokenizerConfig(
        url_pattern=url,
        word_internal=internal,
        abbreviations=frozenset(abbrevs) if saw_abbrev else DEFAULT_ABBREVIATIONS,
    )


@dataclass(frozen=True)
class CharSpan:
    """A token surface with its half-open offsets into the source text."""

    text: str
    start: int
    end: int


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[CharSpan]:
    """Split ``text`` deterministically into offset-carrying tokens."""
    config = config or TokenizerConfig()
    url_re = re.compile(config.url_pattern)
    internal = set(config.word_internal)
    spans: list[CharSpan] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        match = url_re.match(text, i)
        if match and match.end() > i:
            end = match.end()
            while end > i + 1 and text[end - 1] in _URL_TRAIL:
                end -= 1
            spans.append(CharSpan(text[i:end], i, end))
            i = end
            continue
        # Maximal non-space chunk starting here.
        j = i
        while j < n and not text[j].isspace():
            j += 1
        chunk = text[i:j]
        if chunk in config.abbreviations:
            spans.append(CharSpan(chunk, i, j))
            i = j
            continue
        spans.extend(_split_chunk(chunk, i, internal))
        i = j
    return spans


def _split_chunk(chunk: str, offset: int, internal: set[str]) -> list[CharSpan]:
    """Char-class state machine over one whitespace-free chunk.

    Word runs stay together; a punctuation run is one token per maximal run
    of the *same* character ("..." is one token, ")," is two).
    """
    spans: list[CharSpan] = []
    k = 0
    n = len(chunk)
    while k < n:
        ch = chunk[k]
        if _is_word_char(ch):
            end = k + 1
            while end < n:
                nxt = chunk[end]
                if _is_word_char(nxt):
                    end += 1
                elif nxt in internal and end + 1 < n and _is_word_char(chunk[end + 1]):
                    end += 2
                else:
                    break
            spans.append(CharSpan(chunk[k:end], offset + k, offset + end))
            k = end
        else:
            end = k + 1
            while end < n and chunk[end] == ch:
                end += 1
            spans.append(CharSpan(chunk[k:end], offset + k, offset + end))
            k = end
    return spans
