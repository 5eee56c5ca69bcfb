"""Reader and writer for the *SEM-style negation CoNLL format.

Column layout: ``doc_id  sent_no  token_no  surface  lemma  pos  syntax``
followed by annotation cells — a single ``***`` cell when the sentence has
no negation, otherwise three cells (cue, scope, event) per negation
instance.  An annotation cell holds ``_`` (not part of the set), the full
token surface, or a substring of it (affix cues such as "im" within
"imprecise").  Files are UTF-8, tab-separated, with a blank line between
sentences.
"""

from __future__ import annotations

import itertools
import operator
from typing import IO, Iterator

from .errors import ParseError, UsageError
from .model import (
    DEFAULT_PUNCT_POS,
    AnnotationElement,
    Corpus,
    NegationInstance,
    Sentence,
    Token,
    detect_punct,
    element_for,
)

_FIXED_COLUMNS = 7
_NO_NEG = "***"
_EMPTY = "_"


def _decode(data: str | bytes | IO, source: str) -> str:
    """Every reader's input as text; bytes that are not UTF-8 raise a ParseError."""
    try:
        content = data if isinstance(data, (str, bytes)) else data.read()
        return content.decode("utf-8") if isinstance(content, bytes) else content
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason} at byte {exc.start}", source) from None


def _blocks(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each block of non-blank lines, with the number of its first line.

    Lines end at a line feed and lose any trailing carriage returns; a line
    of whitespace ends a block as an empty one does.
    """
    lines = text.split("\n")
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    start = 0
    for end, line in enumerate(lines):
        if not line or line.isspace():
            if start < end:
                yield start + 1, lines[start:end]
            start = end + 1
    if start < len(lines):
        yield start + 1, lines[start:]


def cell_element(cell: str, token: Token, source: str, lineno: int) -> AnnotationElement:
    if cell == token.surface:
        return element_for(token)
    if not cell:
        raise ParseError("empty annotation cell", source, lineno)
    start = token.surface.find(cell)
    if start < 0:
        raise ParseError(
            f"annotation cell {cell!r} is not a substring of token {token.surface!r}",
            source,
            lineno,
        )
    return element_for(token, (start, start + len(cell)))


def parse_sem_conll(
    data: str | bytes | IO,
    name: str = "",
    source: str = "<string>",
    punct_pos: frozenset[str] = DEFAULT_PUNCT_POS,
    *,
    tokens_from: Corpus | None = None,
) -> Corpus:
    """Parse CoNLL negation data into a :class:`Corpus`.

    Raises :class:`ParseError` (with line numbers) for ragged column counts,
    annotation cells that do not occur in their token's surface, ``***``
    cells mixed with instance cells, instances without a cue cell and a
    sentence key that an earlier sentence has.

    A sentence whose key is in ``tokens_from`` and whose rows give the same
    tokens as that sentence's reuses its token tuple, so a prediction file
    read with ``tokens_from=gold`` does not build the gold's tokens again.
    """
    text = _decode(data, source)
    known = {} if tokens_from is None else {s.key: s.tokens for s in tokens_from.sentences}
    sentences = [
        _parse_sentence(lines, first_line, source, punct_pos, known)
        for first_line, lines in _blocks(text)
    ]
    _check_keys(sentences, source, text)
    return Corpus(tuple(sentences), name=name)


def _check_keys(sentences: list[Sentence], source: str, text: str | None = None) -> None:
    """Raise a ParseError for the first sentence whose key an earlier one has.

    With ``text``, the input in which each of ``_blocks(text)`` holds one
    sentence, the error names the first line of the repeated sentence.
    """
    keys = [(s.doc_id, s.sent_index) for s in sentences]
    if len(set(keys)) == len(keys):
        return
    seen = set()
    for position, key in enumerate(keys):
        if key in seen:
            line = None if text is None else next(itertools.islice(_blocks(text), position, None))[0]
            raise ParseError(f"duplicate sentence key {key}", source, line)
        seen.add(key)


_token_fields = operator.attrgetter("index", "surface", "lemma", "pos", "is_punct")


#: The token-number column as written, for sentences of up to 256 tokens.
_NUMBERS = [str(i) for i in range(256)]


def _parse_sentence(
    lines: list[str],
    first_line: int,
    source: str,
    punct_pos: frozenset[str],
    known: dict[tuple[str, int], tuple[Token, ...]],
) -> Sentence:
    # Tab-separated is canonical; fall back to whitespace runs for
    # space-padded variants of the format.
    rows = [line.split("\t") if "\t" in line else line.split() for line in lines]
    first_cols = rows[0]
    width = len(first_cols)
    if width < _FIXED_COLUMNS + 1:
        raise ParseError(
            f"expected at least {_FIXED_COLUMNS + 1} columns, found {width}", source, first_line
        )
    extra = width - _FIXED_COLUMNS
    has_negation = extra != 1
    if has_negation and extra % 3 != 0:
        raise ParseError(
            f"annotation columns must come in cue/scope/event triples, found {extra}",
            source,
            first_line,
        )
    doc_id = first_cols[0]
    sent_no = _parse_int(first_cols[1], source, first_line, "sentence number")

    # Column j is cells[j::width].  Slicing one flat list, rather than
    # zip(*rows), frees no tuples: CPython 3.11 never reuses a freed
    # 20-item tuple, so a zip would keep ~0.4 MB of them on a free list.
    n = len(rows)
    if len(set(map(len, rows))) != 1:
        _check_rows(rows, width, has_negation, source, first_line)
    cells = list(itertools.chain.from_iterable(rows))
    numbers, surfaces = cells[2::width], cells[3::width]
    annotation = [cells[j::width] for j in range(_FIXED_COLUMNS, width)]
    # Checks over whole columns pass for well-formed rows; otherwise the
    # row walk finds the first error, or accepts the rows (a token or
    # sentence number "01", a sentence longer than _NUMBERS).
    if not (
        cells[0::width].count(doc_id) == n
        and cells[1::width].count(first_cols[1]) == n
        and numbers == _NUMBERS[:n]
        and all(surfaces)
        and (
            not any(_NO_NEG in column for column in annotation)
            if has_negation
            else annotation[0].count(_NO_NEG) == n
        )
    ):
        _check_rows(rows, width, has_negation, source, first_line)
    lemmas, tag_column = _optional(cells[4::width]), cells[5::width]
    tags = _optional(tag_column)
    if tags is tag_column:  # every token has a tag, so the tag decides
        puncts = list(map(punct_pos.__contains__, tags))
    else:
        puncts = list(map(detect_punct, surfaces, tags, itertools.repeat(punct_pos, n)))
    tokens = known.get((doc_id, sent_no))
    if tokens is None or list(map(_token_fields, tokens)) != list(
        zip(range(n), surfaces, lemmas, tags, puncts)
    ):
        # from a list, the tuple is allocated at its exact size
        tokens = tuple(list(map(Token, range(n), surfaces, lemmas, tags, puncts)))

    instances = []
    for k in range(extra // 3 if has_negation else 0):
        triple = annotation[3 * k : 3 * k + 3]
        try:
            cue, scope, event = (
                _element_set(column, tokens, source, first_line) for column in triple
            )
        except ParseError:
            _check_cells(triple, tokens, source, first_line)
            raise
        if not cue:
            raise ParseError(f"instance {k} of {doc_id}#{sent_no} has no cue cell", source, first_line)
        instances.append(NegationInstance(cue, scope, event, k))
    return Sentence(doc_id, sent_no, tokens, tuple(instances))


def _optional(column: list[str]) -> list[str | None]:
    """``column`` with each ``_`` cell read as ``None``."""
    if _EMPTY not in column:
        return column
    return [None if cell == _EMPTY else cell for cell in column]


def _element_set(
    column: list[str], tokens: tuple[Token, ...], source: str, first_line: int
) -> frozenset[AnnotationElement]:
    return frozenset(
        {
            cell_element(cell, tokens[i], source, first_line + i)
            for i, cell in enumerate(column)
            if cell != _EMPTY
        }
    )


def _check_rows(
    rows: list[list[str]], width: int, has_negation: bool, source: str, first_line: int
) -> None:
    """Raise the first row error in reading order: width, document id,
    sentence number, token number, surface, then the ``***`` cells."""
    doc_id, sent_no = rows[0][0], int(rows[0][1])
    for position, cols in enumerate(rows):
        lineno = first_line + position
        if len(cols) != width:
            raise ParseError(
                f"expected {width} columns as in the first row of the sentence, found {len(cols)}",
                source,
                lineno,
            )
        if cols[0] != doc_id:
            raise ParseError(
                f"document id {cols[0]!r} differs from {doc_id!r} in the first row of the sentence",
                source,
                lineno,
            )
        if _parse_int(cols[1], source, lineno, "sentence number") != sent_no:
            raise ParseError(
                f"sentence number {cols[1]!r} differs from {rows[0][1]!r} in the first row of the sentence",
                source,
                lineno,
            )
        token_no = _parse_int(cols[2], source, lineno, "token number")
        if token_no != position:
            raise ParseError(
                f"token numbers must be contiguous from 0, found {token_no} at position {position}",
                source,
                lineno,
            )
        if not cols[3]:
            raise ParseError("empty token surface", source, lineno)
        annotation = cols[_FIXED_COLUMNS:]
        if has_negation:
            if _NO_NEG in annotation:
                raise ParseError("'***' mixed with instance cells", source, lineno)
        elif annotation[0] != _NO_NEG:
            raise ParseError(
                f"sentence without negation columns must carry '***', found {annotation[0]!r}",
                source,
                lineno,
            )


def _check_cells(
    cells: list[list[str]], tokens: tuple[Token, ...], source: str, first_line: int
) -> None:
    """Raise the first bad cell of an instance, row by row and then cue,
    scope, event."""
    for i, row in enumerate(zip(*cells)):
        for cell in row:
            if cell != _EMPTY:
                cell_element(cell, tokens[i], source, first_line + i)


def _parse_int(cell: str, source: str, lineno: int, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {cell!r}", source, lineno) from None


def write_sem_conll(corpus: Corpus) -> str:
    """Render ``corpus`` in the tab-separated CoNLL layout.

    Sub-span elements are written as their substring text, whole-token
    elements as the full surface; sentences without instances get the
    single ``***`` cell.  Raises :class:`UsageError` for a cell holding a
    tab, line feed or carriage return, and for a sentence without tokens,
    which the layout cannot represent.
    """
    blocks = []
    for sent in corpus.sentences:
        if not sent.tokens:
            raise UsageError(f"cannot write sentence {sent.key}: it has no tokens")
        head = f"{sent.doc_id}\t{sent.sent_index}"
        tail = "" if sent.instances else f"\t{_NO_NEG}"
        rows = [
            f"{head}\t{t.index}\t{t.surface}\t{_EMPTY if t.lemma is None else t.lemma}"
            f"\t{_EMPTY if t.pos is None else t.pos}\t{_EMPTY}{tail}"
            for t in sent.tokens
        ]
        if sent.instances:
            rows = list(map("\t".join, zip(rows, *_annotation_columns(sent))))
        block = "\n".join(rows)
        annotation_cells = 3 * len(sent.instances) or 1  # the triples, or "***"
        _check_block(sent, block, rows, _FIXED_COLUMNS + annotation_cells - 1)
        blocks.append(block)
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def _annotation_columns(sent: Sentence) -> list[list[str]]:
    """The cue, scope and event cells of each instance, one column each."""
    columns = []
    for inst in sent.instances:
        for elements in (inst.cue, inst.scope, inst.event):
            cells = {e.token_index: e.effective_text(sent.tokens[e.token_index]) for e in elements}
            columns.append([cells.get(t.index, _EMPTY) for t in sent.tokens])
    return columns


def _check_block(sent: Sentence, block: str, rows: list[str], tabs: int, header_lines: int = 0) -> None:
    """Raise a UsageError when a cell of ``sent`` holds a tab, line feed or
    carriage return, which would split it into more columns or lines.

    ``block`` is the sentence as written: ``header_lines`` lines without a
    tab, then ``rows``, one per token, each with ``tabs`` separators.
    Comparing the block's counts with these costs nothing per token; only a
    block that differs is walked row by row to name the token.
    """
    if (
        block.count("\t") == tabs * len(rows)
        and block.count("\n") == header_lines + len(rows) - 1
        and "\r" not in block
    ):
        return
    for token, row in zip(sent.tokens, rows):
        if row.count("\t") != tabs or "\n" in row or "\r" in row:
            raise UsageError(
                f"cannot write sentence {sent.key}: a cell of token {token.index} "
                "holds a tab, line feed or carriage return"
            )
    raise UsageError(
        f"cannot write sentence {sent.key}: its document id holds a tab, line feed or carriage return"
    )


def load_sem_conll(
    path,
    name: str | None = None,
    punct_pos: frozenset[str] = DEFAULT_PUNCT_POS,
    *,
    tokens_from: Corpus | None = None,
) -> Corpus:
    with open(path, "rb") as handle:
        return parse_sem_conll(
            handle,
            name=name if name is not None else str(path),
            source=str(path),
            punct_pos=punct_pos,
            tokens_from=tokens_from,
        )


def dump_sem_conll(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(write_sem_conll(corpus))
