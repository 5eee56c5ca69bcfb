"""From-definition recount of every reported metric, for checking outputs.

Written from the metric definitions in the README, with no negeval import:
the corpora are read through their attributes only, an element is the pair
(token index, covered text), and punctuation stripping, alignment and every
count are done here.  ``negeval.alignment``, ``negeval.metrics`` and
``negeval.report`` are the code under test and are not used.
"""

from __future__ import annotations

import json
import math
from collections import Counter


def _elements(elements) -> frozenset:
    return frozenset((e.token_index, e.text) for e in elements)


def strip(corpus) -> list[tuple]:
    """Each sentence as (key, tokens, instances), punctuation stripped.

    A token is (index, surface, lemma, pos, is_punct); an instance is
    (cue, scope, event) element sets.  Punctuation elements leave every set,
    and an instance whose cue was only punctuation is dropped.
    """
    out = []
    for sent in corpus.sentences:
        tokens = tuple((t.index, t.surface, t.lemma, t.pos, t.is_punct) for t in sent.tokens)
        punct = {t.index for t in sent.tokens if t.is_punct}
        instances = []
        for inst in sent.instances:
            cue, scope, event = (
                frozenset(e for e in _elements(part) if e[0] not in punct)
                for part in (inst.cue, inst.scope, inst.event)
            )
            if cue:
                instances.append((cue, scope, event))
        out.append(((sent.doc_id, sent.sent_index), tokens, tuple(instances)))
    return out


def _align(gold: list, pred: list, compatible) -> tuple[list, list]:
    """Greedy one-to-one alignment: gold in cue order, each taking the first
    unmatched compatible prediction in cue order.  Returns the matched pairs
    and the unmatched predictions."""

    def order(instances):
        # cue order: first cue token, then position in the sentence
        return sorted(instances, key=lambda pair: (min(e[0] for e in pair[1][0]), pair[0]))

    preds = order(list(enumerate(pred)))
    taken = set()
    matched = []
    for _, g in order(list(enumerate(gold))):
        for slot, (_, p) in enumerate(preds):
            if slot not in taken and compatible(g[0], p[0]):
                taken.add(slot)
                matched.append((g, p))
                break
    return matched, [p for slot, (_, p) in enumerate(preds) if slot not in taken]


def _annotation(instances) -> Counter:
    """A sentence's annotation for CNS: its (cue, scope) pairs as a multiset."""
    return Counter((cue, scope) for cue, scope, _ in instances)


def recount(gold_corpus, pred_corpus) -> dict:
    """Every metric's (p_num, p_den, r_num, r_den), and CNS (correct, total)."""
    gold = strip(gold_corpus)
    pred = {key: instances for key, _, instances in strip(pred_corpus)}
    n_gold = n_pred = 0
    exact_tp = partial_tp = exact_no_overlap = partial_no_overlap = 0
    scope_tp = overlap = gold_mass = pred_mass = 0
    inst_p = inst_r = 0.0
    cns_correct = cns_total = 0
    for key, _, g_inst in gold:
        p_inst = pred[key]
        n_gold += len(g_inst)
        n_pred += len(p_inst)
        gold_cue_elements = set().union(*(g[0] for g in g_inst))

        def no_overlap(unmatched):
            return sum(1 for p in unmatched if not p[0] & gold_cue_elements)

        matched, unmatched = _align(g_inst, p_inst, lambda a, b: a == b)
        exact_tp += len(matched)
        exact_no_overlap += no_overlap(unmatched)
        for g, p in matched:
            common = len(g[1] & p[1])
            scope_tp += g[1] == p[1]
            overlap += common
            inst_p += common / len(p[1]) if p[1] else 1.0
            inst_r += common / len(g[1]) if g[1] else 1.0
        gold_mass += sum(len(g[1]) for g in g_inst)
        pred_mass += sum(len(p[1]) for p in p_inst)

        matched, unmatched = _align(g_inst, p_inst, lambda a, b: bool(a & b))
        partial_tp += len(matched)
        partial_no_overlap += no_overlap(unmatched)

        if g_inst:
            cns_total += 1
            cns_correct += _annotation(g_inst) == _annotation(p_inst)
    return {
        "cues_exact": (exact_tp, exact_tp + exact_no_overlap, exact_tp, n_gold),
        "cues_exact_b": (exact_tp, n_pred, exact_tp, n_gold),
        "cues_partial": (partial_tp, partial_tp + partial_no_overlap, partial_tp, n_gold),
        "cues_partial_b": (partial_tp, n_pred, partial_tp, n_gold),
        "scm": (scope_tp, scope_tp + exact_no_overlap, scope_tp, n_gold),
        "scm_b": (scope_tp, n_pred, scope_tp, n_gold),
        "st": (overlap, pred_mass, overlap, gold_mass),
        "inst_tok": (inst_p, n_pred, inst_r, n_gold),
        "inst_ex": (scope_tp, n_pred, scope_tp, n_gold),
        "cns": (cns_correct, cns_total),
    }


def report_mismatches(report_json: str, expected: dict) -> list[str]:
    """Where a JSON report's counts differ from ``recount``; empty if none.

    Integer counts must be equal.  The instance-level numerators are sums of
    fractions, so they may differ in the last bits with summation order.
    """
    try:
        report = json.loads(report_json)
        found = {
            key: tuple(m["counts"][c] for c in ("p_num", "p_den", "r_num", "r_den"))
            for key, m in report["metrics"].items()
        }
        accuracy = report["sentence_accuracy"]
        found["cns"] = (accuracy["correct"], accuracy["total"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    for key in sorted(set(expected) | set(found)):
        want, got = expected.get(key), found.get(key)
        if want is None or got is None or len(want) != len(got) or not all(
            math.isclose(w, g, rel_tol=1e-12, abs_tol=1e-9) for w, g in zip(want, got)
        ):
            problems.append(f"{key}: report {got}, recount {want}")
    return problems


def token_sets(instances) -> Counter:
    """Instances as a multiset of (cue, scope, event) token-index sets, which
    is what a graph encoding keeps: affix elements become their token."""
    return Counter(
        tuple(frozenset(e[0] for e in part) for part in inst) for inst in instances
    )


def as_records(corpus) -> list[tuple]:
    """Each sentence as (key, tokens, instances) like ``strip``, unstripped."""
    return [
        (
            (s.doc_id, s.sent_index),
            tuple((t.index, t.surface, t.lemma, t.pos, t.is_punct) for t in s.tokens),
            tuple(tuple(_elements(part) for part in (i.cue, i.scope, i.event)) for i in s.instances),
        )
        for s in corpus.sentences
    ]


def roundtrip_mismatches(stripped: list, decoded) -> list[str]:
    """Where a decoded corpus differs from the stripped one, up to instance
    order and affix promotion; empty if none."""
    records = as_records(decoded)
    if len(records) != len(stripped):
        return [f"{len(records)} decoded sentences, {len(stripped)} expected"]
    problems = []
    for (key, tokens, instances), (d_key, d_tokens, d_instances) in zip(stripped, records):
        if key != d_key or [t[1] for t in tokens] != [t[1] for t in d_tokens]:
            problems.append(f"sentence {key}: decoded as {d_key} with other tokens")
        elif token_sets(instances) != token_sets(d_instances):
            problems.append(f"sentence {key}: decoded instances differ")
        if len(problems) >= 5:
            break
    return problems
