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

from .conll import _blocks, _decode
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
    def from_file(cls, path) -> "TokenizerConfig":
        """Read the plain-text rule format: one ``key value`` rule per line.

        Keys: ``url`` (regex, last one wins), ``internal`` (characters kept
        word-internal), ``abbrev`` (one abbreviation per line; repeatable).
        ``#`` starts a comment.  Raises :class:`ParseError` for an unknown
        key or a ``url`` pattern that does not compile.
        """
        with open(path, "rb") as handle:
            return _parse_rules(_decode(handle.read(), str(path)), str(path))


def _parse_rules(text: str, source: str) -> TokenizerConfig:
    url = DEFAULT_URL_PATTERN
    internal = DEFAULT_WORD_INTERNAL
    abbrevs: set[str] = set()
    saw_abbrev = False
    for first_line, lines in _blocks(text):
        for lineno, raw in enumerate(lines, first_line):
            line = raw.strip()
            if line.startswith("#"):
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


#: The whitespace-free chunks of a text; ``\s`` is ``str.isspace``.
_CHUNKS = re.compile(r"\S+")


def _pieces(word_internal: str) -> re.Pattern:
    r"""The pattern of a chunk's tokens: a word run, which keeps each of
    ``word_internal`` that stands between two word characters, or a run of
    one repeated other character.  ``\w`` is ``str.isalnum()`` or ``_``."""
    internal = f"(?:[{re.escape(word_internal)}]\\w+)*" if word_internal else ""
    return re.compile(rf"\w+{internal}|(\W)\1*")


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[CharSpan]:
    """Split ``text`` deterministically into offset-carrying tokens."""
    config = config or TokenizerConfig()
    url_re = re.compile(config.url_pattern)
    pieces = _pieces(config.word_internal)
    spans: list[CharSpan] = []
    for chunk in _CHUNKS.finditer(text):
        start, end = chunk.span()
        # A URL ends at the chunk's end at the latest, without its trailing
        # punctuation; the rest of the chunk may start another.
        while start < end and (match := url_re.match(text, start)) and match.end() > start:
            url_end = min(match.end(), end)
            while url_end > start + 1 and text[url_end - 1] in _URL_TRAIL:
                url_end -= 1
            spans.append(CharSpan(text[start:url_end], start, url_end))
            start = url_end
        if start == end:
            continue
        rest = text[start:end]
        if rest in config.abbreviations:
            spans.append(CharSpan(rest, start, end))
            continue
        for piece in pieces.finditer(text, start, end):
            spans.append(CharSpan(piece[0], piece.start(), piece.end()))
    return spans
