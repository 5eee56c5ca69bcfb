"""Evaluation scores for negation resolution.

Two families of scope scores are provided on top of cue-based instance
alignment:

* token-level aggregation (``scope_tokens``), where the corpus-level
  precision denominator is the total number of predicted scope tokens, so
  long scopes dominate the score;
* instance-level aggregation (``instance_scores``), where each instance
  contributes one per-instance precision/recall score in [0, 1] weighted
  uniformly — the corpus score is the expected per-instance score.

With the exact-match per-instance scorer, instance-level aggregation
coincides with the "B" variant of the scope cue-match metric
(``scope_match`` with ``variant="b"``); with the token-overlap scorer it
differs from ``scope_tokens`` exactly by the uniform-vs-scope-length
instance weighting.

All scope-level scores require alignments built with exact cue matching.
Partial cue overlap is supported only for the legacy cue detection scores.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Iterable, Sequence

from .alignment import CueMatchMode, InstanceAlignment, _sentence_pairs
from .errors import UsageError
from .model import Corpus, _records


def ratio_or(numerator: float, denominator: float, *, vacuous: bool) -> float:
    """Corpus-level ratio with the 0/0 convention.

    A zero denominator yields 1.0 when the opposing side is empty as well
    (``vacuous``: nothing to find, nothing predicted — perfect agreement)
    and 0.0 otherwise.
    """
    if denominator > 0:
        return numerator / denominator
    return 1.0 if vacuous else 0.0


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def percent(ratio: float) -> float:
    """Percentage rounded half away from zero to one decimal (85.0, 86.7)."""
    return float(Decimal(repr(ratio * 100)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 plus the counts they were computed from.

    The numerators are floats because instance-level scores sum fractional
    per-instance credits; for the strict metrics they are whole numbers.
    """

    precision: float
    recall: float
    f1: float
    p_num: float
    p_den: float
    r_num: float
    r_den: float

    @classmethod
    def from_counts(cls, p_num: float, p_den: float, r_num: float, r_den: float) -> "PRF":
        p = ratio_or(p_num, p_den, vacuous=r_den == 0)
        r = ratio_or(r_num, r_den, vacuous=p_den == 0)
        return cls(p, r, f1_score(p, r), p_num, p_den, r_num, r_den)

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "percent": {
                "precision": percent(self.precision),
                "recall": percent(self.recall),
                "f1": percent(self.f1),
            },
            "counts": {
                "p_num": self.p_num,
                "p_den": self.p_den,
                "r_num": self.r_num,
                "r_den": self.r_den,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PRF":
        c = data["counts"]
        return cls(
            data["precision"], data["recall"], data["f1"], c["p_num"], c["p_den"], c["r_num"], c["r_den"]
        )


# ---------------------------------------------------------------------------
# Per-instance scope scorers


def token_overlap_scores(s_g: frozenset, s_p: frozenset) -> tuple[float, float]:
    """Per-instance token-overlap (precision, recall), each in [0, 1].

    precision = |s_g ∩ s_p| / |s_p| when the prediction is non-empty, else 1;
    recall    = |s_g ∩ s_p| / |s_g| when the gold scope is non-empty, else 1.
    The else-branches make an empty prediction against an empty gold scope a
    perfect per-instance result.
    """
    overlap = len(s_g & s_p)
    p = overlap / len(s_p) if s_p else 1.0
    r = overlap / len(s_g) if s_g else 1.0
    return (p, r)


def exact_match_scores(s_g: frozenset, s_p: frozenset) -> tuple[float, float]:
    """(1, 1) when the scope sets are identical, else (0, 0)."""
    return (1.0, 1.0) if s_g == s_p else (0.0, 0.0)


@dataclass(frozen=True)
class ScopeScorer:
    """A named pair of per-instance (precision, recall) scoring functions."""

    name: str
    score: Callable[[frozenset, frozenset], tuple[float, float]]


TOKEN_SCORER = ScopeScorer("token", token_overlap_scores)
EXACT_SCORER = ScopeScorer("exact", exact_match_scores)


# ---------------------------------------------------------------------------
# Counts


class _Tally:
    """Every count behind the corpus-level scores, added one sentence at a time.

    ``add`` takes one sentence's matching in one cue-match mode and counts
    cues, per mode.  ``add_scopes`` takes the same sentence's matching and
    counts scopes, with the sums of the per-instance ``scorers``; the scope
    scores read those counts only when the matching is exact.
    ``add_sentence`` counts CNS.  An instance reaches the tally as a tuple
    that ends with its cue and scope sets: a ``model._records`` record, or
    the ``(cue, scope)`` pair that ``_fold`` reads.  Sums are added in the
    order the sentences and their matched pairs arrive.
    """

    __slots__ = ("cues", "scope_tp", "overlap", "gold_mass", "pred_mass", "sums", "cns_correct", "cns_total")

    def __init__(self, scorers: Sequence[ScopeScorer] = ()) -> None:
        # per mode: [matched, unmatched predictions overlapping no gold cue, gold, predictions]
        self.cues = {mode: [0, 0, 0, 0] for mode in CueMatchMode}
        self.scope_tp = self.overlap = self.gold_mass = self.pred_mass = 0
        self.sums = {scorer: [0.0, 0.0] for scorer in scorers}
        self.cns_correct = self.cns_total = 0

    def add(self, mode: CueMatchMode, matched, unmatched_gold, unmatched_pred, partial_only_pred) -> None:
        n_matched = len(matched)
        counts = self.cues[mode]
        counts[0] += n_matched
        counts[1] += len(unmatched_pred) - len(partial_only_pred)
        counts[2] += n_matched + len(unmatched_gold)
        counts[3] += n_matched + len(unmatched_pred)

    def add_scopes(self, matched, unmatched_gold, unmatched_pred) -> None:
        sums = self.sums.items()
        tp = overlap = gold_mass = pred_mass = 0
        for g, p in matched:
            s_g, s_p = g[-1], p[-1]
            tp += s_g == s_p
            overlap += len(s_g & s_p)
            gold_mass += len(s_g)
            pred_mass += len(s_p)
            for scorer, pair in sums:
                p_score, r_score = scorer.score(s_g, s_p)
                pair[0] += p_score
                pair[1] += r_score
        for g in unmatched_gold:
            gold_mass += len(g[-1])
        for p in unmatched_pred:
            pred_mass += len(p[-1])
        self.scope_tp += tp
        self.overlap += overlap
        self.gold_mass += gold_mass
        self.pred_mass += pred_mass

    def add_sentence(self, gold_instances, pred_instances, count_all_sentences: bool) -> None:
        """Count one sentence pair for CNS: instances compare as (cue set,
        scope set) multisets."""
        if not count_all_sentences and not gold_instances:
            return
        self.cns_total += 1
        n = len(gold_instances)
        if n != len(pred_instances):
            return
        if n == 1:
            (g,), (p,) = gold_instances, pred_instances
            same = g[-1] == p[-1] and g[-2] == p[-2]
        else:
            same = Counter(i[-2:] for i in gold_instances) == Counter(i[-2:] for i in pred_instances)
        self.cns_correct += same

    def cue_prf(self, mode: CueMatchMode, variant: str) -> PRF:
        tp, no_overlap, n_gold, n_pred = self.cues[mode]
        return PRF.from_counts(tp, n_pred if variant == "b" else tp + no_overlap, tp, n_gold)

    def scope_match_prf(self, variant: str) -> PRF:
        _, no_overlap, n_gold, n_pred = self.cues[CueMatchMode.EXACT]
        tp = self.scope_tp
        return PRF.from_counts(tp, n_pred if variant == "b" else tp + no_overlap, tp, n_gold)

    def scope_tokens_prf(self) -> PRF:
        return PRF.from_counts(self.overlap, self.pred_mass, self.overlap, self.gold_mass)

    def instance_prf(self, scorer: ScopeScorer) -> PRF:
        _, _, n_gold, n_pred = self.cues[CueMatchMode.EXACT]
        p_sum, r_sum = self.sums[scorer]
        return PRF.from_counts(p_sum, n_pred, r_sum, n_gold)

    def sentence_accuracy(self) -> SentenceAccuracy:
        return SentenceAccuracy(self.cns_correct, self.cns_total)


def _fold(
    alignments: Iterable[InstanceAlignment],
    mode: CueMatchMode,
    caller: str,
    scorers: Sequence[ScopeScorer] = (),
) -> _Tally:
    """A tally of ``alignments``, read once.  Raises :class:`UsageError` at
    the first alignment built with a cue-match mode other than ``mode``."""
    tally = _Tally(scorers)
    for a in alignments:
        if a.mode is not mode:
            raise UsageError(
                f"{caller}: alignment for {a.doc_id}#{a.sent_index} was built "
                f"with {a.mode.value!r} cue matching, requested {mode.value!r}"
            )
        tally.add(mode, a.matched, a.unmatched_gold, a.unmatched_pred, a.partial_only_pred)
        tally.add_scopes(
            [((g.cue, g.scope), (p.cue, p.scope)) for g, p in a.matched],
            [(g.cue, g.scope) for g in a.unmatched_gold],
            [(p.cue, p.scope) for p in a.unmatched_pred],
        )
    return tally


# ---------------------------------------------------------------------------
# Corpus-level scores


def instance_scores(
    alignments: Iterable[InstanceAlignment],
    scorer: ScopeScorer = TOKEN_SCORER,
) -> PRF:
    """Uniformly weighted per-instance precision/recall expectation.

    Matched pairs contribute their per-instance scores; instances without a
    cue match contribute zero.  Precision divides by the number of predicted
    instances, recall by the number of gold instances.
    """
    return _fold(alignments, CueMatchMode.EXACT, "instance_scores", (scorer,)).instance_prf(scorer)


def scope_tokens(alignments: Iterable[InstanceAlignment]) -> PRF:
    """Scope token overlap aggregated over the whole corpus.

    The numerator sums |s_g ∩ s_p| over cue-matched pairs; the denominators
    are the total scope sizes over *all* predicted (gold) instances, matched
    or not.  A token belonging to several scopes counts once per scope.
    """
    return _fold(alignments, CueMatchMode.EXACT, "scope_tokens").scope_tokens_prf()


def scope_match(alignments: Iterable[InstanceAlignment], variant: str = "standard") -> PRF:
    """Exact scope match over cue-matched pairs (the scope cue-match metric).

    Recall divides by the gold instance count in both variants.  The "b"
    variant divides precision by the number of predictions.  The "standard"
    variant reproduces the historical scoring quirk: predictions whose cue
    partially overlaps a gold cue, and cue-matched predictions with a wrong
    scope, are left out of the precision denominator entirely, so TP + FP
    can be smaller than the number of predictions.
    """
    tally = _fold(alignments, CueMatchMode.EXACT, "scope_match")
    _check_variant(variant)
    return tally.scope_match_prf(variant)


def cue_scores(
    alignments: Iterable[InstanceAlignment],
    mode: CueMatchMode = CueMatchMode.EXACT,
    variant: str = "standard",
) -> PRF:
    """Cue detection precision/recall at instance level.

    A matched pair is a true positive.  The "b" variant divides precision by
    the number of predictions; the "standard" variant counts as false
    positives only the predictions whose cue has no overlap with any gold
    cue.
    """
    _check_variant(variant)
    return _fold(alignments, mode, "cue_scores").cue_prf(mode, variant)


def _check_variant(variant: str) -> None:
    if variant not in ("standard", "b"):
        raise UsageError(f"unknown variant {variant!r}; expected 'standard' or 'b'")


@dataclass(frozen=True)
class SentenceAccuracy:
    """Share of fully correct sentences (cue and scope sets identical)."""

    correct: int
    total: int

    @property
    def ratio(self) -> float:
        return self.correct / self.total if self.total else 1.0


def correct_sentence_ratio(
    gold: Corpus, pred: Corpus, *, count_all_sentences: bool = False
) -> SentenceAccuracy:
    """Fraction of sentences whose predicted annotation equals gold exactly.

    By default the denominator counts only sentences with at least one gold
    instance; ``count_all_sentences`` switches to all sentences, which also
    penalises spurious predictions in negation-free sentences.  Events are
    ignored; instances compare as (cue set, scope set) multisets.  Raises
    :class:`AlignmentError`, as ``align_corpus`` does, when either corpus
    repeats a sentence key, a key is missing on either side or a pair's
    token surfaces differ.
    """
    tally = _Tally()
    for sent, pred_sent in _sentence_pairs(gold, pred):
        tally.add_sentence(_records(sent), _records(pred_sent), count_all_sentences)
    return tally.sentence_accuracy()
