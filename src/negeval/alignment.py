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


def _check_tokens(gold: Sentence, pred: Sentence) -> None:
    """Raise :class:`AlignmentError` unless the paired sentences' token
    surfaces are equal; a shared token tuple passes at once."""
    if gold.tokens is pred.tokens or gold.surfaces() == pred.surfaces():
        return
    if len(gold.tokens) != len(pred.tokens):
        detail = f"{len(gold.tokens)} gold vs {len(pred.tokens)} predicted tokens"
    else:
        diff = next((g, p) for g, p in zip(gold.tokens, pred.tokens) if g.surface != p.surface)
        detail = f"token {diff[0].index}: {diff[0].surface!r} vs {diff[1].surface!r}"
    raise AlignmentError(f"token sequences differ for sentence {gold.key}: {detail}")


def _match(
    gold_order: list[NegationInstance], pred_order: list[NegationInstance], mode: CueMatchMode
) -> tuple[list, list, list, list]:
    """The greedy matching of instances already sorted by ``_sort_key``.

    Returns ``(matched, unmatched_gold, unmatched_pred, partial_only_pred)``
    as lists, the last two in ``pred_order``.  Instances with an empty cue
    match nothing.
    """
    free = list(pred_order)
    matched: list[tuple[NegationInstance, NegationInstance]] = []
    unmatched_gold: list[NegationInstance] = []
    exact = mode is CueMatchMode.EXACT
    for g in gold_order:
        cue = g.cue
        for slot, p in enumerate(free if cue else ()):
            if cue == p.cue if exact else not cue.isdisjoint(p.cue):
                matched.append((g, free.pop(slot)))
                break
        else:
            unmatched_gold.append(g)
    partial_only = [p for p in free if any(not p.cue.isdisjoint(g.cue) for g in gold_order)]
    return matched, unmatched_gold, free, partial_only


def align(gold: Sentence, pred: Sentence, mode: CueMatchMode = CueMatchMode.EXACT) -> InstanceAlignment:
    """Align the instances of one gold/predicted sentence pair."""
    if gold.key != pred.key:
        raise AlignmentError(f"sentence keys differ: {gold.key} vs {pred.key}")
    _check_tokens(gold, pred)
    matched, unmatched_gold, unmatched_pred, partial_only = _match(
        sorted(gold.instances, key=_sort_key), sorted(pred.instances, key=_sort_key), mode
    )
    return InstanceAlignment(
        doc_id=gold.doc_id,
        sent_index=gold.sent_index,
        mode=mode,
        matched=tuple(matched),
        unmatched_gold=tuple(unmatched_gold),
        unmatched_pred=tuple(unmatched_pred),
        partial_only_pred=tuple(partial_only),
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
