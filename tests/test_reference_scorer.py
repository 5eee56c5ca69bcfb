"""Differential test: every count in ``full_report`` against the reference scorer.

The reference is ``perfbench/reference.py``, the from-definition recount
that also checks every benchmark output.  It imports nothing from negeval:
it reads corpora through their attributes only, an element is the pair
(token index, covered text), and punctuation stripping, alignment and every
count are done there.  ``reference_counts`` below only maps the report's two
options onto it.

The random corpora come from ``negeval.testing`` and then pass through
``_post_pass``, which adds what the generators never produce: affix cues,
punctuation-only and mixed predicted cues, punctuation inside scopes, empty
scopes, and instance ids that are not positions.
"""

from __future__ import annotations

import ast
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import REFERENCE_PATH, reference
from negeval import Corpus, NegationInstance, Sentence, element_for, full_report
from negeval.testing import perturb_predictions, random_corpus

N_CORPORA = 1000


def _no_punctuation(corpus: Corpus) -> Corpus:
    """``corpus`` with every token marked as not punctuation, so that
    ``reference.strip`` strips nothing."""
    return replace(
        corpus,
        sentences=tuple(
            replace(s, tokens=tuple(replace(t, is_punct=False) for t in s.tokens)) for s in corpus.sentences
        ),
    )


def reference_counts(gold: Corpus, pred: Corpus, *, keep_punct: bool, cns_all: bool) -> dict:
    """Every metric's (p_num, p_den, r_num, r_den), and CNS as (correct,
    total), from ``reference.recount``.

    ``keep_punct`` scores copies whose tokens are not punctuation.  With
    ``cns_all`` every sentence counts for CNS, and one where neither stripped
    side has an instance is correct.
    """
    if keep_punct:
        gold, pred = _no_punctuation(gold), _no_punctuation(pred)
    counts = reference.recount(gold, pred)
    if cns_all:
        pred_instances = {key: instances for key, _, instances in reference.strip(pred)}
        gold_instances = reference.strip(gold)
        empty = sum(1 for key, _, instances in gold_instances if not instances and not pred_instances[key])
        counts["cns"] = (counts["cns"][0] + empty, len(gold.sentences))
    return counts


def test_the_reference_scorer_imports_nothing_from_negeval():
    tree = ast.parse(REFERENCE_PATH.read_text("utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported, "no import found: the walk is broken"
    assert not [name for name in imported if name.split(".")[0] == "negeval"], imported


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
