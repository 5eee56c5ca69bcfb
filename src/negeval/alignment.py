"""One-to-one alignment of gold and predicted negation instances.

Instances are matched on their cue sets only, either exactly or by overlap.
The matching is deterministic: gold instances are processed in order of
their first cue token, and each takes the not-yet-matched prediction with
the lowest first cue token that satisfies the criterion.  For exact cue
equality this greedy procedure is a maximum matching (equality partitions
the instances); for partial overlap determinism is preferred over maximum
cardinality.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .errors import AlignmentError
from .model import Corpus, NegationInstance, Sentence


class CueMatchMode(enum.Enum):
    EXACT = "exact"
    PARTIAL = "partial"


def _cues_match(gold: NegationInstance, pred: NegationInstance, mode: CueMatchMode) -> bool:
    if not gold.cue or not pred.cue:
        return False
    if mode is CueMatchMode.EXACT:
        return gold.cue == pred.cue
    return bool(gold.cue & pred.cue)


@dataclass(frozen=True)
class InstanceAlignment:
    """Alignment result for one sentence.

    Every gold instance is in exactly one of ``matched`` / ``unmatched_gold``
    and every prediction in exactly one of ``matched`` / ``unmatched_pred``.
    ``partial_only_pred`` flags the unmatched predictions whose cue overlaps
    some gold cue without matching it; the scope-level metrics exclude those
    from their precision denominators.
    """

    doc_id: str
    sent_index: int
    mode: CueMatchMode
    matched: tuple[tuple[NegationInstance, NegationInstance], ...]
    unmatched_gold: tuple[NegationInstance, ...]
    unmatched_pred: tuple[NegationInstance, ...]
    partial_only_pred: tuple[NegationInstance, ...]

    @property
    def n_gold(self) -> int:
        return len(self.matched) + len(self.unmatched_gold)

    @property
    def n_pred(self) -> int:
        return len(self.matched) + len(self.unmatched_pred)


def _sort_key(inst: NegationInstance) -> tuple[int, int]:
    return (inst.first_cue_index(), inst.instance_id)


def align(gold: Sentence, pred: Sentence, mode: CueMatchMode = CueMatchMode.EXACT) -> InstanceAlignment:
    """Align the instances of one gold/predicted sentence pair."""
    if gold.key != pred.key:
        raise AlignmentError(f"sentence keys differ: {gold.key} vs {pred.key}")
    if gold.surfaces() != pred.surfaces():
        if len(gold.tokens) != len(pred.tokens):
            detail = f"{len(gold.tokens)} gold vs {len(pred.tokens)} predicted tokens"
        else:
            diff = next(
                (g, p) for g, p in zip(gold.tokens, pred.tokens) if g.surface != p.surface
            )
            detail = f"token {diff[0].index}: {diff[0].surface!r} vs {diff[1].surface!r}"
        raise AlignmentError(f"token sequences differ for sentence {gold.key}: {detail}")

    gold_order = sorted(gold.instances, key=_sort_key)
    pred_order = sorted(pred.instances, key=_sort_key)
    taken: set[int] = set()
    matched: list[tuple[NegationInstance, NegationInstance]] = []
    unmatched_gold: list[NegationInstance] = []
    for g in gold_order:
        for slot, p in enumerate(pred_order):
            if slot in taken or not _cues_match(g, p, mode):
                continue
            taken.add(slot)
            matched.append((g, p))
            break
        else:
            unmatched_gold.append(g)

    unmatched_pred = [p for slot, p in enumerate(pred_order) if slot not in taken]
    partial_only = tuple(
        p for p in unmatched_pred if any(p.cue & g.cue for g in gold.instances)
    )
    return InstanceAlignment(
        doc_id=gold.doc_id,
        sent_index=gold.sent_index,
        mode=mode,
        matched=tuple(matched),
        unmatched_gold=tuple(unmatched_gold),
        unmatched_pred=tuple(unmatched_pred),
        partial_only_pred=partial_only,
    )


def _sentence_pairs(gold: Corpus, pred: Corpus) -> list[tuple[Sentence, Sentence]]:
    """Gold and predicted sentences paired by key, in gold corpus order: the one
    place where corpora are paired.  Raises :class:`AlignmentError` when either
    corpus repeats a sentence key or a key is missing on either side."""
    gold_by_key = {s.key: s for s in gold.sentences}
    pred_by_key = {s.key: s for s in pred.sentences}
    for side, corpus, by_key in (("gold", gold, gold_by_key), ("predictions", pred, pred_by_key)):
        if len(by_key) != len(corpus.sentences):
            key = next(k for k, n in Counter(s.key for s in corpus.sentences).items() if n > 1)
            raise AlignmentError(f"duplicate sentence key {key} in {side}")
    if gold_by_key.keys() != pred_by_key.keys():
        missing_in_pred = [k for k in gold_by_key if k not in pred_by_key]
        missing_in_gold = sorted(k for k in pred_by_key if k not in gold_by_key)
        parts = []
        if missing_in_pred:
            parts.append(f"missing from predictions: {missing_in_pred[:5]}")
        if missing_in_gold:
            parts.append(f"missing from gold: {missing_in_gold[:5]}")
        raise AlignmentError("sentence sets differ; " + "; ".join(parts))
    return [(s, pred_by_key[key]) for key, s in gold_by_key.items()]


def align_corpus(
    gold: Corpus, pred: Corpus, mode: CueMatchMode = CueMatchMode.EXACT
) -> list[InstanceAlignment]:
    """Align two corpora sentence by sentence, in gold corpus order.

    Raises :class:`AlignmentError` on duplicate or missing sentence keys and
    on paired sentences whose tokens differ.
    """
    return [align(g, p, mode) for g, p in _sentence_pairs(gold, pred)]
