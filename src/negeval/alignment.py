"""One-to-one alignment of gold and predicted negation instances.

Instances are matched on their cue sets only, either exactly or by overlap.
The matching is deterministic and reads no ``instance_id``: gold instances
are taken in cue order (first cue token, then position in the sentence),
and each takes the first unmatched prediction in cue order that satisfies
the criterion.  For exact cue equality this greedy procedure is a maximum
matching (equality partitions the instances); for partial overlap
determinism is preferred over maximum cardinality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .errors import AlignmentError
from .model import Corpus, NegationInstance, Sentence, _first_repeat, _records


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
    gold_order: list[tuple], pred_order: list[tuple], mode: CueMatchMode
) -> tuple[list, list, list, list]:
    """The greedy matching of sorted ``model._records``.

    Returns ``(matched, unmatched_gold, unmatched_pred, partial_only_pred)``
    as lists of records, the last two in ``pred_order``.  Instances with an
    empty cue match nothing.
    """
    free = list(pred_order)
    matched: list[tuple[tuple, tuple]] = []
    unmatched_gold: list[tuple] = []
    exact = mode is CueMatchMode.EXACT
    for g in gold_order:
        cue = g[2]
        for slot, p in enumerate(free if cue else ()):
            if cue == p[2] if exact else not cue.isdisjoint(p[2]):
                matched.append((g, free.pop(slot)))
                break
        else:
            unmatched_gold.append(g)
    partial_only = [p for p in free if any(not p[2].isdisjoint(g[2]) for g in gold_order)]
    return matched, unmatched_gold, free, partial_only


def align(gold: Sentence, pred: Sentence, mode: CueMatchMode = CueMatchMode.EXACT) -> InstanceAlignment:
    """Align the instances of one gold/predicted sentence pair."""
    if gold.key != pred.key:
        raise AlignmentError(f"sentence keys differ: {gold.key} vs {pred.key}")
    _check_tokens(gold, pred)
    matched, unmatched_gold, unmatched_pred, partial_only = _match(
        sorted(_records(gold)), sorted(_records(pred)), mode
    )
    g_inst, p_inst = gold.instances, pred.instances
    return InstanceAlignment(
        doc_id=gold.doc_id,
        sent_index=gold.sent_index,
        mode=mode,
        matched=tuple((g_inst[g[1]], p_inst[p[1]]) for g, p in matched),
        unmatched_gold=tuple(g_inst[g[1]] for g in unmatched_gold),
        unmatched_pred=tuple(p_inst[p[1]] for p in unmatched_pred),
        partial_only_pred=tuple(p_inst[p[1]] for p in partial_only),
    )


def _sentence_pairs(gold: Corpus, pred: Corpus) -> Iterator[tuple[Sentence, Sentence]]:
    """Gold and predicted sentences paired by key, in gold corpus order: the one
    place where corpora are paired.  Raises :class:`AlignmentError` before the
    first pair when either corpus repeats a sentence key or a key is missing on
    either side, and on reaching a pair whose token surfaces differ."""
    gold_by_key = {s.key: s for s in gold.sentences}
    pred_by_key = {s.key: s for s in pred.sentences}
    for side, corpus, by_key in (("gold", gold, gold_by_key), ("predictions", pred, pred_by_key)):
        if len(by_key) != len(corpus.sentences):
            key = corpus.sentences[_first_repeat([s.key for s in corpus.sentences])].key
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
    for key, g_sent in gold_by_key.items():
        p_sent = pred_by_key[key]
        _check_tokens(g_sent, p_sent)
        yield g_sent, p_sent


def align_corpus(
    gold: Corpus, pred: Corpus, mode: CueMatchMode = CueMatchMode.EXACT
) -> list[InstanceAlignment]:
    """Align two corpora sentence by sentence, in gold corpus order.

    Raises :class:`AlignmentError` on duplicate or missing sentence keys and
    on paired sentences whose tokens differ.
    """
    return [align(g, p, mode) for g, p in _sentence_pairs(gold, pred)]
