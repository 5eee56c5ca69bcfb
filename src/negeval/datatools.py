"""Dataset utilities: document-level splits, corpus statistics, patches.

Splitting works at document granularity.  Documents are ordered by a stable
keyed hash of (seed, doc_id) and assigned greedily to whichever part is
furthest below its target sentence share, so re-running with the same seed
always reproduces the same split and adding a document perturbs the others
minimally.  An explicit assignment file (``doc_id<TAB>part``) overrides the
hash for the documents it lists, which is how published splits are
reproduced.

Re-annotation patches replace one instance of one sentence with a list of
new instances.  A patch names the instance by its position in the sentence
(0 for the first), as the CoNLL format numbers instances.  The patch file
is line-oriented, one block per patch::

    target<TAB>doc_id<TAB>sent_index<TAB>instance_id
    replace<TAB>cue/scope/event cells, three per token (CoNLL cell syntax)
    replace<TAB>...

Blocks are separated by blank lines; ``#`` starts a comment line.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace

from .conll import _blocks, _cell_columns, _cell_sets, _check_doc_id, _check_token_rows, _check_tokens
from .errors import ParseError, PatchError, SplitError, UsageError
from .model import Corpus, NegationInstance, Sentence, _punct_indices, _records, renumber

PARTS = ("train", "dev", "test")


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[int, int, int] = (80, 10, 10)
    seed: int = 0
    assignment: dict[str, str] | None = None

    def __post_init__(self):
        if len(self.ratios) != len(PARTS):
            raise SplitError(f"split ratios must have three parts, got {self.ratios}")
        if any(part < 0 for part in self.ratios):
            raise SplitError(f"split ratios must not be negative, got {self.ratios}")
        if sum(self.ratios) != 100:
            raise SplitError(f"split ratios must sum to 100, got {self.ratios}")
        if self.assignment:
            for doc_id, part in self.assignment.items():
                if part not in PARTS:
                    raise SplitError(f"unknown split part {part!r} for document {doc_id!r}")


def parse_assignment(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse a ``doc_id<TAB>part`` assignment file.  A line whose first
    non-blank character is ``#`` and that holds no tab is a comment, so a
    document id may start with ``#``.  Raises :class:`SplitError`, with its
    line, for a line without two fields and for a document that an earlier
    line assigns."""
    assignment: dict[str, str] = {}
    for first_line, lines in _blocks(text):
        for lineno, raw in enumerate(lines, first_line):
            line = raw.strip()
            if line.startswith("#") and "\t" not in line:
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise SplitError(f"expected 'doc_id<TAB>part', got {raw!r}", source, lineno)
            doc_id, part = parts
            if doc_id in assignment:
                raise SplitError(f"document {doc_id!r} is assigned twice", source, lineno)
            assignment[doc_id] = part
    return assignment


def _doc_hash(seed: int, doc_id: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{doc_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def split_corpus(corpus: Corpus, spec: SplitSpec | None = None) -> tuple[Corpus, Corpus, Corpus]:
    """Partition a corpus into (train, dev, test) by document."""
    spec = spec or SplitSpec()
    doc_sentences: dict[str, list[Sentence]] = {}
    for sent in corpus.sentences:
        doc_sentences.setdefault(sent.doc_id, []).append(sent)

    assigned: dict[str, str] = {}
    if spec.assignment:
        unknown = sorted(set(spec.assignment) - set(doc_sentences))
        if unknown:
            raise SplitError(f"assignment file names unknown documents: {unknown[:5]}")
        assigned.update(spec.assignment)

    remaining = [d for d in doc_sentences if d not in assigned]
    remaining.sort(key=lambda d: (_doc_hash(spec.seed, d), d))
    total = len(corpus.sentences)
    counts = Counter({part: 0 for part in PARTS})
    for doc_id, part in assigned.items():
        counts[part] += len(doc_sentences[doc_id])
    targets = {part: total * ratio / 100 for part, ratio in zip(PARTS, spec.ratios)}
    for doc_id in remaining:
        part = max(PARTS, key=lambda p: targets[p] - counts[p])
        assigned[doc_id] = part
        counts[part] += len(doc_sentences[doc_id])

    buckets: dict[str, list[Sentence]] = {part: [] for part in PARTS}
    for sent in corpus.sentences:  # keep corpus order within each part
        buckets[assigned[sent.doc_id]].append(sent)
    return tuple(
        Corpus(tuple(buckets[part]), name=f"{corpus.name}:{part}" if corpus.name else part)
        for part in PARTS
    )


@dataclass(frozen=True)
class CorpusStats:
    sentences: int
    negation_sentences: int
    instances: int
    scope_length_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def negation_sentence_pct(self) -> float:
        return 100.0 * self.negation_sentences / self.sentences if self.sentences else 0.0

    def to_tsv(self) -> str:
        lines = [
            f"sentences\t{self.sentences}",
            f"negation_sentences\t{self.negation_sentences}",
            f"negation_sentence_pct\t{self.negation_sentence_pct:.1f}",
            f"instances\t{self.instances}",
        ]
        for length in sorted(self.scope_length_histogram):
            lines.append(f"scope_length\t{length}\t{self.scope_length_histogram[length]}")
        return "\n".join(lines) + "\n"


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Sentence/instance counts and the scope-length histogram.

    Instances and scope lengths are counted after punctuation stripping,
    matching how the evaluation sees the data.
    """
    histogram: Counter[int] = Counter()
    instances = 0
    negation_sentences = 0
    for sent in corpus.sentences:
        records = _records(sent, _punct_indices(sent.tokens))
        if records:
            negation_sentences += 1
        instances += len(records)
        histogram.update(len(scope) for *_, scope in records)
    return CorpusStats(
        sentences=len(corpus.sentences),
        negation_sentences=negation_sentences,
        instances=instances,
        scope_length_histogram=dict(histogram),
    )


# ---------------------------------------------------------------------------
# Re-annotation patches


@dataclass(frozen=True)
class ReannotationPatch:
    doc_id: str
    sent_index: int
    instance_id: int
    replacement: tuple[NegationInstance, ...]

    @property
    def target(self) -> tuple[str, int, int]:
        return (self.doc_id, self.sent_index, self.instance_id)


def _unknown_target(
    sentences: dict[tuple[str, int], Sentence], taken: set[tuple[str, int, int]], target: tuple[str, int, int]
) -> str | None:
    """What of ``target`` is not there for a patch, as ``unknown sentence
    cd#99``, ``unknown instance cd#7/5`` or, for a target in ``taken`` (an
    earlier patch's), ``two patches target instance cd#7/5``; None, after
    adding ``target`` to ``taken``, when it is there.  The one rule of which
    targets a list of patches may have."""
    doc_id, sent_index, instance_id = target
    sent = sentences.get((doc_id, sent_index))
    if sent is None:
        return f"unknown sentence {doc_id}#{sent_index}"
    if not 0 <= instance_id < len(sent.instances):
        return f"unknown instance {doc_id}#{sent_index}/{instance_id}"
    if target in taken:
        return f"two patches target instance {doc_id}#{sent_index}/{instance_id}"
    taken.add(target)
    return None


def _target_sentence(
    sentences: dict[tuple[str, int], Sentence], taken: set[tuple[str, int, int]], patch: ReannotationPatch
) -> Sentence:
    """The sentence ``patch`` targets; a :class:`PatchError` if ``_unknown_target`` finds its target not there."""
    unknown = _unknown_target(sentences, taken, patch.target)
    if unknown is not None:
        # "two patches target ..." says what a patch targets; "unknown ..." does not
        raise PatchError(unknown if unknown.startswith("two ") else f"patch targets {unknown}")
    return sentences[patch.doc_id, patch.sent_index]


def apply_patches(corpus: Corpus, patches: list[ReannotationPatch]) -> Corpus:
    """Replace each targeted instance, the one at the patch's ``instance_id``
    position in its sentence; instance ids are renumbered per sentence.

    Raises :class:`PatchError` at the first patch whose target does not
    exist or is an earlier patch's.  Patches with distinct targets commute.
    """
    sentences = {s.key: s for s in corpus.sentences}
    taken: set[tuple[str, int, int]] = set()
    by_sentence: dict[tuple[str, int], dict[int, ReannotationPatch]] = {}
    for patch in patches:
        _target_sentence(sentences, taken, patch)
        by_sentence.setdefault((patch.doc_id, patch.sent_index), {})[patch.instance_id] = patch

    out = []
    for sent in corpus.sentences:
        slot = by_sentence.get(sent.key)
        if not slot:
            out.append(sent)
            continue
        rebuilt: list[NegationInstance] = []
        for position, inst in enumerate(sent.instances):
            if position in slot:
                rebuilt.extend(slot[position].replacement)
            else:
                rebuilt.append(inst)
        out.append(replace(sent, instances=renumber(rebuilt)))
    return replace(corpus, sentences=tuple(out))


def parse_patch_file(text: str, corpus: Corpus, source: str = "<string>") -> list[ReannotationPatch]:
    """Parse the patch format and bind the replacement cells to ``corpus``.

    Raises :class:`ParseError`, with its line, for a malformed line, for a
    ``target`` line whose sentence or instance ``corpus`` does not have, and
    for a ``target`` line that repeats an earlier one's target.
    """
    sentences = {s.key: s for s in corpus.sentences}
    taken: set[tuple[str, int, int]] = set()
    patches: list[ReannotationPatch] = []
    target: tuple[str, int, int] | None = None
    replacements: list[NegationInstance] = []
    target_line = 0

    def flush() -> None:
        nonlocal target, replacements
        if target is None:
            return
        if not replacements:
            raise ParseError("patch block without replace lines", source, target_line)
        patches.append(
            ReannotationPatch(target[0], target[1], target[2], tuple(replacements))
        )
        target, replacements = None, []

    for first_line, lines in _blocks(text):
        for lineno, line in enumerate(lines, first_line):
            if line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if cols[0] == "target":
                flush()
                if len(cols) != 4:
                    raise ParseError("target line needs doc_id, sent_index, instance_id", source, lineno)
                try:
                    target = (cols[1], int(cols[2]), int(cols[3]))
                except ValueError:
                    raise ParseError("sent_index and instance_id must be integers", source, lineno) from None
                target_line = lineno
                unknown = _unknown_target(sentences, taken, target)
                if unknown is not None:
                    raise ParseError(unknown, source, lineno)
            elif cols[0] == "replace":
                if target is None:
                    raise ParseError("replace line before any target line", source, lineno)
                sent = sentences[(target[0], target[1])]
                cells = cols[1:]
                if len(cells) != 3 * len(sent.tokens):
                    raise ParseError(
                        f"expected {3 * len(sent.tokens)} cells (3 per token), found {len(cells)}",
                        source,
                        lineno,
                    )
                columns = [cells[0::3], cells[1::3], cells[2::3]]
                cue, scope, event = _cell_sets(columns, sent.tokens, source, [lineno] * len(sent.tokens))
                if not cue:
                    raise ParseError("replacement instance has no cue cell", source, lineno)
                replacements.append(NegationInstance(cue, scope, event))
            else:
                raise ParseError(f"unknown patch directive {cols[0]!r}", source, lineno)
        flush()
    return patches


def format_patch_file(corpus: Corpus, patches: list[ReannotationPatch]) -> str:
    """Render patches in the line-oriented patch format.  Raises
    :class:`PatchError` for a target that ``apply_patches`` rejects, and
    :class:`UsageError` for the document ids, tokens, instances and cells
    that ``write_sem_conll`` refuses, and for a patch without a replacement."""
    sentences = {s.key: s for s in corpus.sentences}
    taken: set[tuple[str, int, int]] = set()
    blocks = []
    for patch in patches:
        if not patch.replacement:
            raise UsageError(f"cannot write the patch of {patch.target}: it has no replacement instance")
        sent = _target_sentence(sentences, taken, patch)
        _check_doc_id(sent)
        _check_tokens(sent)
        lines = [f"target\t{patch.doc_id}\t{patch.sent_index}\t{patch.instance_id}"]
        columns = _cell_columns(sent, patch.replacement)
        for k in range(0, len(columns), 3):
            triples = list(map("\t".join, zip(*columns[k : k + 3])))
            line = "\t".join(["replace", *triples])
            if line.count("\t") != 3 * len(triples) or "\n" in line or "\r" in line:
                _check_token_rows(sent, triples, 2)
            lines.append(line)
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks) + "\n") if blocks else ""


DEFAULT_COORDINATION_LEXICON = frozenset({"neither", "nor"})


def detect_coordination_cues(
    corpus: Corpus, lexicon: frozenset[str] = DEFAULT_COORDINATION_LEXICON
) -> list[ReannotationPatch]:
    """Draft patches splitting discontinuous coordination cues.

    Flags instances whose cue is discontinuous and built entirely from the
    coordination lexicon ("neither ... nor"), and proposes one instance per
    cue word, each inheriting the full original scope (and event).  The
    drafts are meant for human review — they are never applied automatically.
    """
    patches = []
    for sent in corpus.sentences:
        for position, inst in enumerate(sent.instances):
            indices = sorted(e.token_index for e in inst.cue)
            if len(indices) < 2 or indices[-1] - indices[0] + 1 == len(indices):
                continue
            surfaces = [e.effective_text(sent.tokens[e.token_index]).lower() for e in inst.cue]
            if not all(s in lexicon for s in surfaces):
                continue
            split = tuple(
                NegationInstance(cue=frozenset({e}), scope=inst.scope, event=inst.event)
                for e in sorted(inst.cue, key=lambda e: e.token_index)
            )
            patches.append(
                ReannotationPatch(sent.doc_id, sent.sent_index, position, split)
            )
    return patches
