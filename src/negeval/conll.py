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

from typing import IO

from .errors import ParseError
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


def _split_columns(line: str) -> list[str]:
    # Tab-separated is canonical; fall back to whitespace runs for
    # space-padded variants of the format.
    if "\t" in line:
        return line.split("\t")
    return line.split()


def cell_element(cell: str, token: Token, source: str, lineno: int) -> AnnotationElement:
    if cell == token.surface:
        return element_for(token)
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
) -> Corpus:
    """Parse CoNLL negation data into a :class:`Corpus`.

    Raises :class:`ParseError` (with line numbers) for ragged column counts,
    annotation cells that do not occur in their token's surface, and ``***``
    cells mixed with instance cells.
    """
    text = _decode(data, source)
    sentences: list[Sentence] = []
    block: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip():
            if block:
                sentences.append(_parse_sentence(block, source, punct_pos))
                block = []
            continue
        block.append((lineno, _split_columns(line)))
    if block:
        sentences.append(_parse_sentence(block, source, punct_pos))
    return Corpus(tuple(sentences), name=name)


def _parse_sentence(
    block: list[tuple[int, list[str]]], source: str, punct_pos: frozenset[str]
) -> Sentence:
    first_line, first_cols = block[0]
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

    tokens: list[Token] = []
    rows: list[tuple[int, list[str]]] = []
    doc_id = first_cols[0]
    sent_no = _parse_int(first_cols[1], source, first_line, "sentence number")
    for position, (lineno, cols) in enumerate(block):
        if len(cols) != width:
            raise ParseError(
                f"expected {width} columns as in the first row of the sentence, found {len(cols)}",
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
        surface = cols[3]
        if not surface:
            raise ParseError("empty token surface", source, lineno)
        lemma = None if cols[4] == _EMPTY else cols[4]
        pos = None if cols[5] == _EMPTY else cols[5]
        tokens.append(
            Token(
                index=position,
                surface=surface,
                lemma=lemma,
                pos=pos,
                is_punct=detect_punct(surface, pos, punct_pos),
            )
        )
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
        rows.append((lineno, annotation))

    instances: list[NegationInstance] = []
    if has_negation:
        for k in range(extra // 3):
            cue: set[AnnotationElement] = set()
            scope: set[AnnotationElement] = set()
            event: set[AnnotationElement] = set()
            for (lineno, annotation), token in zip(rows, tokens):
                cells = annotation[3 * k : 3 * k + 3]
                for cell, bucket in zip(cells, (cue, scope, event)):
                    if cell != _EMPTY:
                        bucket.add(cell_element(cell, token, source, lineno))
            instances.append(
                NegationInstance(frozenset(cue), frozenset(scope), frozenset(event), instance_id=k)
            )
    return Sentence(doc_id=doc_id, sent_index=sent_no, tokens=tuple(tokens), instances=tuple(instances))


def _parse_int(cell: str, source: str, lineno: int, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {cell!r}", source, lineno) from None


def write_sem_conll(corpus: Corpus) -> str:
    """Render ``corpus`` in the tab-separated CoNLL layout.

    Sub-span elements are written as their substring text, whole-token
    elements as the full surface; sentences without instances get the
    single ``***`` cell.
    """
    blocks = []
    for sent in corpus.sentences:
        cue_cells, scope_cells, event_cells = _annotation_cells(sent)
        lines = []
        for token in sent.tokens:
            cols = [
                sent.doc_id,
                str(sent.sent_index),
                str(token.index),
                token.surface,
                token.lemma if token.lemma is not None else _EMPTY,
                token.pos if token.pos is not None else _EMPTY,
                _EMPTY,
            ]
            if not sent.instances:
                cols.append(_NO_NEG)
            else:
                for k in range(len(sent.instances)):
                    cols.append(cue_cells[k].get(token.index, _EMPTY))
                    cols.append(scope_cells[k].get(token.index, _EMPTY))
                    cols.append(event_cells[k].get(token.index, _EMPTY))
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def _annotation_cells(sent: Sentence):
    cue_cells: list[dict[int, str]] = []
    scope_cells: list[dict[int, str]] = []
    event_cells: list[dict[int, str]] = []
    for inst in sent.instances:
        for elements, cells in (
            (inst.cue, cue_cells),
            (inst.scope, scope_cells),
            (inst.event, event_cells),
        ):
            mapping: dict[int, str] = {}
            for element in sorted(elements, key=lambda e: e.token_index):
                mapping[element.token_index] = element.effective_text(sent.tokens[element.token_index])
            cells.append(mapping)
    return cue_cells, scope_cells, event_cells


def load_sem_conll(path, name: str | None = None, punct_pos: frozenset[str] = DEFAULT_PUNCT_POS) -> Corpus:
    with open(path, "rb") as handle:
        return parse_sem_conll(handle, name=name if name is not None else str(path), source=str(path), punct_pos=punct_pos)


def dump_sem_conll(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(write_sem_conll(corpus))
