"""Differential test: every count in ``full_report`` against a brute-force scorer.

The scorer here is written from the metric definitions in the README and
the metric docstrings.  It reads corpora through their attributes only and
uses nothing from ``negeval.alignment``, ``negeval.metrics`` or
``negeval.report``: an element is the pair (token index, covered text),
and punctuation handling, alignment and every count are redone below.

The random corpora come from ``negeval.testing`` and then pass through
``_post_pass``, which adds what the generators never produce: affix cues,
punctuation-only and mixed predicted cues, punctuation inside scopes, empty
scopes, and instance ids that are not positions.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from negeval import Corpus, NegationInstance, Sentence, element_for, full_report
from negeval.testing import perturb_predictions, random_corpus

N_CORPORA = 1000


# ---------------------------------------------------------------------------
# Reference scorer


def _elements(elements) -> frozenset:
    return frozenset((e.token_index, e.text) for e in elements)


def _instances(sent: Sentence, keep_punct: bool) -> list[tuple]:
    """The sentence's instances as (cue, scope, order) tuples, ready to score.

    Unless ``keep_punct``, elements on punctuation tokens leave every set and
    an instance whose cue was only punctuation is dropped.  ``order`` is the
    cue order used by the alignment: first cue token, then instance id, then
    position.  Stripping renumbers the kept instances of a sentence that has
    punctuation tokens, so there the id is the new position.
    """
    punct = {t.index for t in sent.tokens if t.is_punct}
    strip = punct and not keep_punct
    out = []
    for inst in sent.instances:
        cue, scope = _elements(inst.cue), _elements(inst.scope)
        if strip:
            cue = frozenset(e for e in cue if e[0] not in punct)
            scope = frozenset(e for e in scope if e[0] not in punct)
            if not cue:
                continue
        ident = len(out) if strip else inst.instance_id
        out.append((cue, scope, (min(e[0] for e in cue), ident, len(out))))
    return out


def _align(gold: list, pred: list, compatible) -> tuple[list, list]:
    """Gold in cue order, each taking the first unmatched compatible
    prediction in cue order.  Returns matched pairs and unmatched predictions."""
    free = sorted(pred, key=lambda inst: inst[2])
    matched = []
    for g in sorted(gold, key=lambda inst: inst[2]):
        for slot, p in enumerate(free):
            if compatible(g[0], p[0]):
                matched.append((g, free.pop(slot)))
                break
    return matched, free


def reference_counts(gold: Corpus, pred: Corpus, *, keep_punct: bool, cns_all: bool) -> dict:
    """Every metric's (p_num, p_den, r_num, r_den), and CNS as (correct, total)."""
    pred_by_key = {(s.doc_id, s.sent_index): s for s in pred.sentences}
    n_gold = n_pred = 0
    tp = {"exact": 0, "partial": 0}
    no_overlap = {"exact": 0, "partial": 0}
    scope_tp = overlap = gold_mass = pred_mass = 0
    inst_p = inst_r = 0.0
    cns_correct = cns_total = 0
    for sent in gold.sentences:
        g_inst = _instances(sent, keep_punct)
        p_inst = _instances(pred_by_key[(sent.doc_id, sent.sent_index)], keep_punct)
        n_gold += len(g_inst)
        n_pred += len(p_inst)
        gold_mass += sum(len(g[1]) for g in g_inst)
        pred_mass += sum(len(p[1]) for p in p_inst)
        gold_cue_elements = {e for g in g_inst for e in g[0]}
        for mode, compatible in (("exact", lambda a, b: a == b), ("partial", lambda a, b: bool(a & b))):
            matched, unmatched = _align(g_inst, p_inst, compatible)
            tp[mode] += len(matched)
            # "standard" precision counts only predictions whose cue overlaps no gold cue
            no_overlap[mode] += sum(1 for p in unmatched if gold_cue_elements.isdisjoint(p[0]))
            if mode == "exact":
                for g, p in matched:
                    common = len(g[1] & p[1])
                    scope_tp += g[1] == p[1]
                    overlap += common
                    inst_p += common / len(p[1]) if p[1] else 1.0
                    inst_r += common / len(g[1]) if g[1] else 1.0
        if g_inst or cns_all:
            cns_total += 1
            cns_correct += Counter(i[:2] for i in g_inst) == Counter(i[:2] for i in p_inst)
    counts = {}
    for mode in ("exact", "partial"):
        counts[f"cues_{mode}"] = (tp[mode], tp[mode] + no_overlap[mode], tp[mode], n_gold)
        counts[f"cues_{mode}_b"] = (tp[mode], n_pred, tp[mode], n_gold)
    counts.update(
        scm=(scope_tp, scope_tp + no_overlap["exact"], scope_tp, n_gold),
        scm_b=(scope_tp, n_pred, scope_tp, n_gold),
        st=(overlap, pred_mass, overlap, gold_mass),
        inst_tok=(inst_p, n_pred, inst_r, n_gold),
        inst_ex=(scope_tp, n_pred, scope_tp, n_gold),
        cns=(cns_correct, cns_total),
    )
    return counts


# ---------------------------------------------------------------------------
# Random corpora


def _affix(rng: random.Random, token):
    start = rng.randrange(len(token.surface) - 1)
    return element_for(token, (start, rng.randrange(start + 1, len(token.surface))))


def _post_pass(rng: random.Random, gold: Sentence, pred: Sentence) -> tuple[Sentence, Sentence]:
    tokens = gold.tokens
    words = [t for t in tokens if not t.is_punct and len(t.surface) > 1]
    puncts = [element_for(t) for t in tokens if t.is_punct]
    g_new, p_new = list(gold.instances), list(pred.instances)
    if words and rng.random() < 0.4:
        token = rng.choice(words)
        affix = _affix(rng, token)
        scope = frozenset(element_for(t) for t in tokens if rng.random() < 0.3)
        g_new.append(NegationInstance(frozenset({affix}), scope))
        cue = rng.choice(([affix], [affix], [element_for(token)], [_affix(rng, token)], []))
        if cue:
            p_new.append(NegationInstance(frozenset(cue), scope if rng.random() < 0.5 else frozenset()))
    if puncts and rng.random() < 0.4:
        cue = {rng.choice(puncts)}
        if words and rng.random() < 0.3:  # mixed: punctuation and a word
            cue.add(element_for(rng.choice(words)))
        p_new.append(NegationInstance(frozenset(cue), frozenset(rng.sample(puncts, 1))))
    if puncts and rng.random() < 0.1:
        g_new.append(NegationInstance(frozenset({rng.choice(puncts)})))

    def finish(instances: list[NegationInstance]) -> tuple[NegationInstance, ...]:
        rng.shuffle(instances)
        positional = rng.random() < 0.5
        ids = range(len(instances)) if positional else rng.sample(range(2 * len(instances) + 3), len(instances))
        out = []
        for inst, ident in zip(instances, ids):
            scope = inst.scope
            if rng.random() < 0.2:
                scope = frozenset()
            elif puncts and rng.random() < 0.3:
                scope = scope | {rng.choice(puncts)}
            out.append(NegationInstance(inst.cue, scope, inst.event, ident))
        return tuple(out)

    return (
        Sentence(gold.doc_id, gold.sent_index, tokens, finish(g_new)),
        Sentence(pred.doc_id, pred.sent_index, tokens, finish(p_new)),
    )


def corpus_pair(seed: int) -> tuple[Corpus, Corpus]:
    rng = random.Random(seed)
    gold = random_corpus(rng, max_sentences=5, max_tokens=10, n_docs=2)
    pred = perturb_predictions(rng, gold)
    pairs = [_post_pass(rng, g, p) for g, p in zip(gold.sentences, pred.sentences)]
    return Corpus(tuple(g for g, _ in pairs), "gold"), Corpus(tuple(p for _, p in pairs), "pred")


# ---------------------------------------------------------------------------


def _report_counts(report) -> dict:
    counts = {
        key: (m.p_num, m.p_den, m.r_num, m.r_den) for key, m in report.metrics.items()
    }
    counts["cns"] = (report.sentence_accuracy.correct, report.sentence_accuracy.total)
    return counts


@pytest.mark.parametrize("keep_punct", [False, True])
def test_full_report_matches_reference_scorer(keep_punct):
    seen = Counter()
    for seed in range(N_CORPORA):
        gold, pred = corpus_pair(seed)
        for cns_all in (False, True):
            found = _report_counts(full_report(gold, pred, keep_punct=keep_punct, cns_all_sentences=cns_all))
            want = reference_counts(gold, pred, keep_punct=keep_punct, cns_all=cns_all)
            assert found.keys() == want.keys()
            for key, counts in want.items():
                if key == "inst_tok":  # sums of fractions, order of addition may differ
                    assert all(map(math.isclose, found[key], counts)), (seed, cns_all, key)
                else:
                    assert found[key] == counts, (seed, cns_all, key)
        seen["affix"] += any(e.text for s in gold.sentences for i in s.instances for e in i.cue)
        seen["punctuation-only predicted cue"] += any(
            all(s.tokens[e.token_index].is_punct for e in i.cue) for s in pred.sentences for i in s.instances
        )
        seen["empty scope"] += any(not i.scope for s in gold.sentences for i in s.instances)
        seen["non-positional"] += any(
            i.instance_id != n for s in gold.sentences for n, i in enumerate(s.instances)
        )
        seen["partial cue match"] += found["cues_partial"][0] > found["cues_exact"][0]
    # the random corpora reach every case they are built for
    assert min(seen.values()) > N_CORPORA // 20, seen
