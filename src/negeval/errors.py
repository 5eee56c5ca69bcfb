"""Exception hierarchy shared by all negeval modules."""

from __future__ import annotations


class NegevalError(Exception):
    """Base class for all errors raised by this package.

    Carries the source name and line number when known so that command-line
    messages can point at the offending input.
    """

    def __init__(self, message: str, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ParseError(NegevalError):
    """A corpus file could not be parsed."""


class AlignmentError(NegevalError):
    """Gold and predicted corpora do not cover the same sentences/tokens."""


class UsageError(NegevalError):
    """An operation was called with arguments it does not support."""


class PatchError(NegevalError):
    """A re-annotation patch does not apply to the given corpus."""


class GraphError(NegevalError):
    """A negation dependency graph is malformed or cannot be built."""


class SplitError(NegevalError):
    """A corpus split specification cannot be satisfied."""
