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
from typing import IO, Iterator, Sequence

from .errors import ParseError, UsageError
from .model import AnnotationElement, Corpus, NegationInstance, Sentence, Token, _first_repeat, _instance_faults
from .model import _text_fault, _token_faults, _tokens, _whole_token, element_for

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
    of whitespace ends a block as an empty one does.  One byte-order mark
    at the start of ``text`` is dropped; one anywhere else stays text.
    """
    lines = text.removeprefix("\ufeff").split("\n")
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
    fault = _text_fault(cell, token.surface)
    if fault is not None:
        raise ParseError(fault, source, lineno)
    return AnnotationElement(token.index, cell)


def parse_sem_conll(data: str | bytes | IO, name: str = "", source: str = "<string>") -> Corpus:
    """Parse CoNLL negation data into a :class:`Corpus`.

    Raises :class:`ParseError` (with line numbers) for ragged column counts,
    annotation cells that do not occur in their token's surface, ``***``
    cells mixed with instance cells, instances without a cue cell and a
    sentence key that an earlier sentence has.  :func:`load_pair` reads a
    gold file and its predictions as ``negeval evaluate`` does.
    """
    text = _decode(data, source)
    sentences = [_parse_sentence(lines, _ROW_BREAK.join(lines), i, source, {}) for i, lines in _blocks(text)]
    _check_keys(sentences, source, text)
    return Corpus(tuple(sentences), name=name)


def _check_keys(sentences: list[Sentence], source: str, text: str | None = None) -> None:
    """Raise a ParseError for the first sentence whose key an earlier one has.

    With ``text``, the input in which each of ``_blocks(text)`` holds one
    sentence, the error names the first line of the repeated sentence.
    """
    position = _first_repeat([(s.doc_id, s.sent_index) for s in sentences])
    if position is not None:
        line = None if text is None else next(itertools.islice(_blocks(text), position, None))[0]
        raise ParseError(f"duplicate sentence key {sentences[position].key}", source, line)


#: The token-number column as written, for sentences of up to 256 tokens.
_NUMBERS = [str(i) for i in range(256)]

#: Joins a block's lines into the string that keys the block in a block map
#: and whose split at tabs is every row's cells, a line-feed cell between rows.
_ROW_BREAK = "\t\n\t"


def _rows(lines: list[str]) -> list[list[str]]:
    # Tab-separated is canonical; fall back to whitespace runs for
    # space-padded variants of the format.
    return [line.split("\t") if "\t" in line else line.split() for line in lines]


def _parse_sentence(
    lines: list[str], block: str, first_line: int, source: str, gold: dict[tuple[str, int], Sentence]
) -> Sentence:
    """The sentence of one block: its ``lines``, from ``first_line``, and
    ``block``, those lines joined by ``_ROW_BREAK``.  A block whose key is in
    ``gold`` and whose surface, lemma and POS columns are those of the gold
    sentence with that key has that sentence's token tuple; any other block
    has tokens of its own."""
    (first_cols,) = _rows(lines[:1])
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

    # Column j is cells[j::step] of one flat list of every row's cells: the
    # block split at tabs, with a line-feed cell after each row but the last;
    # those cells fall every ``step`` cells exactly when each row has
    # ``width`` tab-separated cells.  Slicing one flat list, rather than
    # zip(*rows), frees no tuples: CPython 3.11 never reuses a freed 20-item
    # tuple, so a zip would keep ~0.4 MB of them on a free list.
    n = len(lines)
    step = width + 1
    cells = block.split("\t")
    if len(cells) != n * step - 1 or cells[width::step].count("\n") != n - 1:
        rows = _rows(lines)
        if len(set(map(len, rows))) != 1:
            _check_rows(rows, width, has_negation, source, first_line)
        cells, step = list(itertools.chain.from_iterable(rows)), width
    numbers, surfaces = cells[2::step], cells[3::step]
    annotation = [cells[j::step] for j in range(_FIXED_COLUMNS, width)]
    # Checks over whole columns pass for well-formed rows; otherwise the
    # row walk finds the first error, or accepts the rows (a token or
    # sentence number "01", a sentence longer than _NUMBERS).
    if not (
        cells[0::step].count(doc_id) == n
        and cells[1::step].count(first_cols[1]) == n
        and numbers == _NUMBERS[:n]
        and all(surfaces)
        and _stars_placed(annotation, n)
    ):
        _check_rows(_rows(lines), width, has_negation, source, first_line)
    lemmas, tags = _optional(cells[4::step]), _optional(cells[5::step])
    shared = gold.get((doc_id, sent_no))
    if shared is not None and (
        [t.surface for t in shared.tokens] == surfaces
        and [t.lemma for t in shared.tokens] == lemmas
        and [t.pos for t in shared.tokens] == tags
    ):
        tokens = shared.tokens
    else:
        tokens = _tokens(surfaces, lemmas, tags)
    return Sentence(doc_id, sent_no, tokens, _negations(annotation, tokens, doc_id, sent_no, source, first_line))


def _stars_placed(annotation: list[list[str]], n: int) -> bool:
    """Whether the ``***`` cells are where the format puts them: in each of
    the ``n`` rows of a sentence with one annotation column, and in no cell
    of a sentence with instance columns."""
    if len(annotation) == 1:
        return annotation[0].count(_NO_NEG) == n
    return not any(_NO_NEG in column for column in annotation)


def _negations(
    annotation: list[list[str]], tokens: tuple[Token, ...], doc_id: str, sent_no: int, source: str, first_line: int
) -> tuple[NegationInstance, ...]:
    """The instances of a sentence's cue/scope/event cell columns, one row
    per token from ``first_line``; a single ``***`` column gives none."""
    instances = []
    for k in range(len(annotation) // 3):
        triple = annotation[3 * k : 3 * k + 3]
        cue, scope, event = _cell_sets(triple, tokens, source, range(first_line, first_line + len(tokens)))
        if not cue:
            raise ParseError(f"instance {k} of {doc_id}#{sent_no} has no cue cell", source, first_line)
        instances.append(NegationInstance(cue, scope, event, k))
    return tuple(instances)


def _optional(column: list[str]) -> list[str | None]:
    """``column`` with each ``_`` cell read as ``None``."""
    if _EMPTY not in column:
        return column
    return [None if cell == _EMPTY else cell for cell in column]


def _cell_sets(
    columns: list[list[str]], tokens: tuple[Token, ...], source: str, lines: Sequence[int]
) -> list[frozenset[AnnotationElement]]:
    """The cue, scope and event sets of one instance, read from its three
    cell columns; the cells of token ``i`` are on line ``lines[i]``.  Raises
    the ParseError of the first bad cell, token by token and then cue,
    scope, event."""
    try:
        return [
            frozenset({
                _whole_token(i) if c == tokens[i].surface else cell_element(c, tokens[i], source, lines[i])
                for i, c in enumerate(column)
                if c != _EMPTY
            })
            for column in columns
        ]
    except ParseError:
        for i, row in enumerate(zip(*columns)):
            for cell in row:
                if cell != _EMPTY:
                    cell_element(cell, tokens[i], source, lines[i])
        raise


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


def _parse_int(cell: str, source: str, lineno: int, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {cell!r}", source, lineno) from None


def _parse_paired(
    data: str | bytes | IO, blocks: dict[str, Sentence], name: str = "", source: str = "<string>"
) -> Corpus:
    """``parse_sem_conll(data, name, source)``, read against ``blocks``, the
    sentences of earlier reads by the text of their blocks (lines joined by
    ``_ROW_BREAK``): an equal corpus, or the same first error.

    A block whose text is a key of ``blocks`` is that ``Sentence``.  Any
    other block is read by ``_parse_sentence``, taking the tokens of the
    first sentence in ``blocks`` with its key where the block's token
    columns are that sentence's, and is added to ``blocks`` once the whole
    input has read, so a read that fails adds nothing.
    """
    text = _decode(data, source)
    by_key = {s.key: s for s in reversed(blocks.values())}
    sentences = []
    parsed: dict[str, Sentence] = {}
    for first_line, lines in _blocks(text):
        block = _ROW_BREAK.join(lines)
        sent = blocks.get(block)
        if sent is None:
            sent = parsed[block] = _parse_sentence(lines, block, first_line, source, by_key)
        sentences.append(sent)
    _check_keys(sentences, source, text)
    blocks.update(parsed)
    return Corpus(tuple(sentences), name=name)


def write_sem_conll(corpus: Corpus) -> str:
    """Render ``corpus`` in the tab-separated CoNLL layout.

    Sub-span elements are written as their substring text, whole-token
    elements as the full surface; sentences without instances get the
    single ``***`` cell.  Raises :class:`UsageError` for a token, instance
    or repeated sentence key that ``validate`` finds at fault, for a set
    with two elements on one token, for an element written as ``_`` or
    ``***``, for a document id or cell holding a tab, line feed or carriage
    return, and for a sentence without tokens, which the layout cannot
    represent.
    """
    blocks = []
    for sent in corpus.sentences:
        if not sent.tokens:
            raise UsageError(f"cannot write sentence {sent.key}: it has no tokens")
        _check_tokens(sent)
        head = f"{sent.doc_id}\t{sent.sent_index}"
        tail = "" if sent.instances else f"\t{_NO_NEG}"
        rows = [
            f"{head}\t{t.index}\t{t.surface}\t{_EMPTY if t.lemma is None else t.lemma}"
            f"\t{_EMPTY if t.pos is None else t.pos}\t{_EMPTY}{tail}"
            for t in sent.tokens
        ]
        if sent.instances:
            rows = list(map("\t".join, zip(rows, *_cell_columns(sent, sent.instances))))
        block = "\n".join(rows)
        annotation_cells = 3 * len(sent.instances) or 1  # the triples, or "***"
        _check_block(sent, block, rows, _FIXED_COLUMNS + annotation_cells - 1)
        blocks.append(block)
    _check_distinct_keys(corpus.sentences)
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def _cell_columns(sent: Sentence, instances: tuple[NegationInstance, ...]) -> list[list[str]]:
    """The cue, scope and event cells of each of ``instances``, one column
    each, on the tokens of ``sent``.  Raises a UsageError for an instance
    that ``model._instance_faults`` rejects, for a set with two elements on
    one token, which one cell cannot hold, and for an element whose cell
    would be ``_`` or ``***``, which the reader takes for no element."""
    _check_instances(sent, instances)
    columns = []
    for inst in instances:
        for elements in (inst.cue, inst.scope, inst.event):
            cells = {e.token_index: e.effective_text(sent.tokens[e.token_index]) for e in elements}
            k, which = divmod(len(columns), 3)
            which = ("cue", "scope", "event")[which]
            if len(cells) != len(elements):
                token = min(i for i in cells if sum(e.token_index == i for e in elements) > 1)
                raise UsageError(
                    f"cannot write sentence {sent.key}: instance {k} has two {which} elements on token {token}"
                )
            if _EMPTY in cells.values() or _NO_NEG in cells.values():
                token, cell = min((i, c) for i, c in cells.items() if c in (_EMPTY, _NO_NEG))
                raise UsageError(
                    f"cannot write sentence {sent.key}: instance {k} has a {which} element on token {token} "
                    f"written as {cell!r}, which the format reserves"
                )
            columns.append([cells.get(t.index, _EMPTY) for t in sent.tokens])
    return columns


def _check_tokens(sent: Sentence) -> None:
    """The writers' check of tokens: raise a UsageError for the first of ``model._token_faults``."""
    faults = _token_faults(sent.tokens)
    if faults:
        raise UsageError(f"cannot write sentence {sent.key}: {faults[0][1]}")


def _check_distinct_keys(sentences: Sequence[Sentence]) -> None:
    """The writers' check of keys: raise a UsageError for the first sentence
    whose key an earlier one has."""
    position = _first_repeat([(s.doc_id, s.sent_index) for s in sentences])
    if position is not None:
        raise UsageError(f"cannot write sentence {sentences[position].key}: an earlier sentence has its key")


def _check_instances(sent: Sentence, instances: tuple[NegationInstance, ...]) -> None:
    """The writers' check: raise a UsageError for the first of ``model._instance_faults``."""
    for k, inst in enumerate(instances):
        faults = _instance_faults(inst, sent.tokens)
        if faults:
            raise UsageError(f"cannot write sentence {sent.key}: instance {k}: {faults[0][1]}")


def _check_block(sent: Sentence, block: str, rows: list[str], tabs: int, header_lines: int = 0) -> None:
    """Raise a UsageError when the document id or a cell of ``sent`` holds a
    tab, line feed or carriage return, which would split it into more
    columns or lines.

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
    _check_doc_id(sent)
    _check_token_rows(sent, rows, tabs)


def _check_doc_id(sent: Sentence) -> None:
    """Raise a UsageError when the document id of ``sent`` holds a tab, line
    feed or carriage return."""
    if "\t" in sent.doc_id or "\n" in sent.doc_id or "\r" in sent.doc_id:
        raise UsageError(
            f"cannot write sentence {sent.key}: its document id holds a tab, line feed or carriage return"
        )


def _check_token_rows(sent: Sentence, rows: list[str], tabs: int) -> None:
    """Raise a UsageError naming the token of the first of ``rows``, one per
    token of ``sent``, that holds other than ``tabs`` tabs or a line break."""
    for token, row in zip(sent.tokens, rows):
        if row.count("\t") != tabs or "\n" in row or "\r" in row:
            raise UsageError(
                f"cannot write sentence {sent.key}: a cell of token {token.index} "
                "holds a tab, line feed or carriage return"
            )


def load_sem_conll(path, name: str | None = None) -> Corpus:
    with open(path, "rb") as handle:
        return parse_sem_conll(handle, name=name if name is not None else str(path), source=str(path))


def dump_sem_conll(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(write_sem_conll(corpus))


def load_pair(gold, *preds) -> tuple[Corpus, ...]:
    """``(gold, *preds)``: the corpus of the CoNLL file at each path, as
    ``load_sem_conll`` reads and names it, with the same errors and lines.

    Each file is read against the blocks of every file before it, as
    ``negeval evaluate`` and ``compare`` read a CoNLL pair: a block
    byte-identical to an earlier block is that block's sentence, and any
    other block is read as ``parse_sem_conll`` reads it, taking the tokens
    of the first earlier sentence with its key, the gold's if there is one,
    when its surface, lemma and POS columns are that sentence's.  The blocks
    are dropped when this returns.
    """
    blocks: dict[str, Sentence] = {}
    corpora = []
    for path in (gold, *preds):
        with open(path, "rb") as handle:
            corpora.append(_parse_paired(handle, blocks, name=str(path), source=str(path)))
    return tuple(corpora)
