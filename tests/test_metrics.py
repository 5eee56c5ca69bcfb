from __future__ import annotations

import random

import pytest

from negeval import (
    AnnotationElement,
    Corpus,
    CueMatchMode,
    NegationInstance,
    Sentence,
    Token,
    UsageError,
    align_corpus,
    correct_sentence_ratio,
    cue_scores,
    exact_match_scores,
    instance_scores,
    scope_match,
    scope_tokens,
    strip_punctuation,
    token_overlap_scores,
)
from negeval.metrics import EXACT_SCORER, TOKEN_SCORER, PRF, percent
from negeval.testing import perturb_predictions, random_corpus


def elements(*indices):
    return frozenset(AnnotationElement(i) for i in indices)


def sentence(n_tokens, instances, doc="d", idx=0):
    tokens = tuple(Token(i, f"w{i}") for i in range(n_tokens))
    numbered = tuple(
        NegationInstance(i.cue, i.scope, i.event, instance_id=k) for k, i in enumerate(instances)
    )
    return Sentence(doc, idx, tokens, numbered)


class TestPerInstanceScorers:
    def test_empty_gold_nonempty_pred(self):
        # the "invented scope" case: maximally wrong precision, vacuous recall
        assert token_overlap_scores(elements(), elements(0, 3, 4, 5)) == (0.0, 1.0)

    def test_both_empty_is_perfect(self):
        assert token_overlap_scores(elements(), elements()) == (1.0, 1.0)

    def test_long_scope_partial_overlap(self):
        s_g = elements(*range(16))
        s_p = elements(*range(6, 18))  # 12 predicted, 10 inside gold
        p, r = token_overlap_scores(s_g, s_p)
        assert p == pytest.approx(10 / 12)
        assert r == pytest.approx(10 / 16)

    def test_exact_scorer(self):
        assert exact_match_scores(elements(1, 2), elements(1, 2)) == (1.0, 1.0)
        assert exact_match_scores(elements(), elements()) == (1.0, 1.0)
        assert exact_match_scores(elements(1, 2), elements(1)) == (0.0, 0.0)

    def test_scores_always_within_unit_interval(self):
        rng = random.Random(0)
        for _ in range(500):
            s_g = elements(*(i for i in range(8) if rng.random() < 0.5))
            s_p = elements(*(i for i in range(8) if rng.random() < 0.5))
            for fn in (token_overlap_scores, exact_match_scores):
                p, r = fn(s_g, s_p)
                assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0

    def test_enlarging_prediction_with_non_gold_token(self):
        # precision strictly drops unless it is already pinned at zero;
        # recall never moves
        rng = random.Random(1)
        strict = 0
        for _ in range(200):
            s_g = elements(*(i for i in range(8) if rng.random() < 0.5))
            s_p = elements(*(i for i in range(8) if rng.random() < 0.4))
            extra = AnnotationElement(9)  # never in gold
            p0, r0 = token_overlap_scores(s_g, s_p)
            p1, r1 = token_overlap_scores(s_g, s_p | {extra})
            if p0 > 0:
                assert p1 < p0
                strict += 1
            else:
                assert p1 == 0.0
            assert r1 == r0
        assert strict > 100


class TestInstanceScores:
    def test_system_a(self, gold_corpus, system_a):
        aligned = align_corpus(strip_punctuation(gold_corpus), strip_punctuation(system_a))
        prf = instance_scores(aligned, TOKEN_SCORER)
        assert (percent(prf.precision), percent(prf.recall), percent(prf.f1)) == (66.7, 77.8, 71.8)

    def test_system_b(self, gold_corpus, system_b):
        aligned = align_corpus(strip_punctuation(gold_corpus), strip_punctuation(system_b))
        prf = instance_scores(aligned, TOKEN_SCORER)
        assert (percent(prf.precision), percent(prf.recall), percent(prf.f1)) == (94.4, 87.5, 90.8)

    def test_gold_vs_itself_is_perfect(self, gold_corpus):
        aligned = align_corpus(gold_corpus, gold_corpus)
        for scorer in (TOKEN_SCORER, EXACT_SCORER):
            prf = instance_scores(aligned, scorer)
            assert prf.precision == prf.recall == prf.f1 == 1.0

    def test_partial_alignments_are_rejected(self, gold_corpus, system_a):
        aligned = align_corpus(gold_corpus, system_a, CueMatchMode.PARTIAL)
        with pytest.raises(UsageError):
            instance_scores(aligned)

    def test_no_predictions_against_gold(self):
        gold = Corpus((sentence(3, [NegationInstance(elements(0))]),))
        pred = Corpus((sentence(3, []),))
        prf = instance_scores(align_corpus(gold, pred))
        assert prf.precision == 0.0 and prf.recall == 0.0 and prf.f1 == 0.0

    def test_empty_against_empty_is_vacuously_perfect(self):
        gold = Corpus((sentence(3, []),))
        prf = instance_scores(align_corpus(gold, gold))
        assert prf.precision == prf.recall == prf.f1 == 1.0

    def test_adding_perfect_instance_never_decreases(self):
        for seed in range(100):
            rng = random.Random(seed)
            gold = random_corpus(rng)
            pred = perturb_predictions(rng, gold)
            base = instance_scores(align_corpus(gold, pred))
            extra = sentence(2, [NegationInstance(elements(0), elements(1))], doc="zz", idx=99)
            gold2 = Corpus(gold.sentences + (extra,))
            pred2 = Corpus(pred.sentences + (extra,))
            grown = instance_scores(align_corpus(gold2, pred2))
            assert grown.precision >= base.precision - 1e-12
            assert grown.recall >= base.recall - 1e-12


def scm_b_oracle(gold: Corpus, pred: Corpus) -> PRF:
    """Straightforward exact-match counter, independent of the alignment code.

    Cue sets are unique within a sentence for valid corpora, so a pair counts
    iff an instance with the same cue exists and its scope is identical.
    """
    tp = n_gold = n_pred = 0
    pred_by_key = {s.key: s for s in pred.sentences}
    for gs in gold.sentences:
        ps = pred_by_key[gs.key]
        n_gold += len(gs.instances)
        n_pred += len(ps.instances)
        pred_cues = {p.cue: p.scope for p in ps.instances}
        for g in gs.instances:
            if g.cue in pred_cues and pred_cues[g.cue] == g.scope:
                tp += 1
    return PRF.from_counts(tp, n_pred, tp, n_gold)


class TestScopeMatch:
    def test_gold_vs_itself(self, gold_corpus):
        aligned = align_corpus(gold_corpus, gold_corpus)
        for variant in ("standard", "b"):
            prf = scope_match(aligned, variant)
            assert prf.precision == prf.recall == 1.0

    def test_wrong_scope_with_matching_cue(self):
        gold = Corpus((sentence(4, [NegationInstance(elements(0), elements(1))]),))
        pred = Corpus((sentence(4, [NegationInstance(elements(0), elements(2))]),))
        aligned = align_corpus(gold, pred)
        standard = scope_match(aligned, "standard")
        # the matched-but-wrong prediction leaves the precision denominator:
        # 0/0 with gold present scores 0
        assert standard.precision == 0.0 and standard.recall == 0.0
        b = scope_match(aligned, "b")
        assert b.precision == 0.0 and b.p_den == 1

    def test_b_variant_equals_exact_instance_scores(self):
        for seed in range(300):
            rng = random.Random(seed)
            gold = random_corpus(rng)
            pred = perturb_predictions(rng, gold)
            aligned = align_corpus(gold, pred)
            nis_ex = instance_scores(aligned, EXACT_SCORER)
            scm_b = scope_match(aligned, "b")
            oracle = scm_b_oracle(gold, pred)
            for a, b in ((nis_ex, scm_b), (scm_b, oracle)):
                assert abs(a.precision - b.precision) < 1e-12
                assert abs(a.recall - b.recall) < 1e-12
                assert abs(a.f1 - b.f1) < 1e-12


class TestScopeTokens:
    def test_two_system_fixture_values(self, gold_corpus, system_a, system_b):
        gold = strip_punctuation(gold_corpus)
        st_a = scope_tokens(align_corpus(gold, strip_punctuation(system_a)))
        st_b = scope_tokens(align_corpus(gold, strip_punctuation(system_b)))
        assert (percent(st_a.precision), percent(st_a.recall), percent(st_a.f1)) == (81.0, 89.5, 85.0)
        assert (percent(st_b.precision), percent(st_b.recall), percent(st_b.f1)) == (86.7, 68.4, 76.5)

    def test_shared_token_between_nested_scopes_counts_twice(self, nested_corpus):
        aligned = align_corpus(nested_corpus, nested_corpus)
        prf = scope_tokens(aligned)
        # outer scope 9 tokens + inner 6, the 5 shared tokens counted in both
        assert prf.p_den == 15 and prf.r_den == 15 and prf.p_num == 15
        assert prf.precision == prf.recall == 1.0

    def test_reweighting_by_scope_length_reproduces_token_scores(self):
        # uniform instance weights swapped for |s_p|/Z (|s_g|/Z for recall)
        for seed in range(300):
            rng = random.Random(seed)
            gold = random_corpus(rng)
            pred = perturb_predictions(rng, gold)
            aligned = align_corpus(gold, pred)
            st = scope_tokens(aligned)
            z_pred = sum(len(p.scope) for a in aligned for p in _all_preds(a))
            z_gold = sum(len(g.scope) for a in aligned for g in _all_golds(a))
            p_sum = 0.0
            r_sum = 0.0
            for a in aligned:
                for g, p in a.matched:
                    f_p, f_r = token_overlap_scores(g.scope, p.scope)
                    if len(p.scope) and z_pred:
                        p_sum += (len(p.scope) / z_pred) * f_p
                    if len(g.scope) and z_gold:
                        r_sum += (len(g.scope) / z_gold) * f_r
            expected_p = p_sum if z_pred else (1.0 if z_gold == 0 else 0.0)
            expected_r = r_sum if z_gold else (1.0 if z_pred == 0 else 0.0)
            assert abs(st.precision - expected_p) < 1e-9
            assert abs(st.recall - expected_r) < 1e-9


def _all_preds(alignment):
    return [p for _, p in alignment.matched] + list(alignment.unmatched_pred)


def _all_golds(alignment):
    return [g for g, _ in alignment.matched] + list(alignment.unmatched_gold)


class TestSymmetry:
    def test_precision_of_forward_is_recall_of_backward(self):
        for seed in range(200):
            rng = random.Random(seed)
            gold = random_corpus(rng)
            pred = perturb_predictions(rng, gold)
            forward = align_corpus(gold, pred)
            backward = align_corpus(pred, gold)
            st_f, st_b = scope_tokens(forward), scope_tokens(backward)
            assert st_f.precision == st_b.recall
            assert st_f.recall == st_b.precision
            ni_f = instance_scores(forward, TOKEN_SCORER)
            ni_b = instance_scores(backward, TOKEN_SCORER)
            assert ni_f.precision == ni_b.recall
            assert ni_f.recall == ni_b.precision


class TestCueScores:
    def test_all_cues_found_gives_perfect_b_score(self, gold_corpus, system_a):
        aligned = align_corpus(gold_corpus, system_a)
        prf = cue_scores(aligned, CueMatchMode.EXACT, "b")
        assert percent(prf.f1) == 100.0

    def test_no_predictions(self):
        gold = Corpus((sentence(4, [NegationInstance(elements(i)) for i in range(3)]),))
        pred = Corpus((sentence(4, []),))
        aligned = align_corpus(gold, pred)
        for variant in ("standard", "b"):
            prf = cue_scores(aligned, CueMatchMode.EXACT, variant)
            assert prf.precision == 0.0 and prf.recall == 0.0

    def test_multiword_cue_partial_vs_exact_tp(self):
        gold = Corpus((sentence(6, [NegationInstance(elements(3, 4), elements(5))]),))
        pred = Corpus((sentence(6, [NegationInstance(elements(3), elements(5))]),))
        exact = cue_scores(align_corpus(gold, pred, CueMatchMode.EXACT), CueMatchMode.EXACT, "b")
        partial = cue_scores(
            align_corpus(gold, pred, CueMatchMode.PARTIAL), CueMatchMode.PARTIAL, "b"
        )
        assert exact.p_num == 0
        assert partial.p_num == 1

    def test_standard_precision_ignores_overlapping_misses(self):
        gold = Corpus((sentence(6, [NegationInstance(elements(3, 4), elements(5))]),))
        pred = Corpus((sentence(6, [NegationInstance(elements(3), elements(5))]),))
        aligned = align_corpus(gold, pred, CueMatchMode.EXACT)
        standard = cue_scores(aligned, CueMatchMode.EXACT, "standard")
        assert standard.p_den == 0  # the lone prediction overlaps, so no full FP
        assert standard.precision == 0.0  # gold side non-empty

    def test_mode_mismatch_is_usage_error(self, gold_corpus, system_a):
        aligned = align_corpus(gold_corpus, system_a, CueMatchMode.EXACT)
        with pytest.raises(UsageError):
            cue_scores(aligned, CueMatchMode.PARTIAL, "b")

    @pytest.mark.parametrize("score", [cue_scores, scope_match])
    def test_unknown_variant_is_usage_error(self, gold_corpus, score):
        with pytest.raises(UsageError) as err:
            score(align_corpus(gold_corpus, gold_corpus), variant="a")
        assert str(err.value) == "unknown variant 'a'; expected 'standard' or 'b'"


class TestCorrectSentences:
    def test_gold_vs_itself(self, gold_corpus):
        acc = correct_sentence_ratio(gold_corpus, gold_corpus)
        assert acc.ratio == 1.0

    def test_system_b_gets_two_of_three(self, gold_corpus, system_b):
        gold = strip_punctuation(gold_corpus)
        pred = strip_punctuation(system_b)
        acc = correct_sentence_ratio(gold, pred)
        assert (acc.correct, acc.total) == (2, 3)

    def test_spurious_prediction_in_negation_free_sentence(self):
        gold = Corpus((
            sentence(3, [NegationInstance(elements(0), elements(1))], idx=0),
            sentence(3, [], idx=1),
        ))
        pred = Corpus((
            sentence(3, [NegationInstance(elements(0), elements(1))], idx=0),
            sentence(3, [NegationInstance(elements(2))], idx=1),
        ))
        default = correct_sentence_ratio(gold, pred)
        assert (default.correct, default.total) == (1, 1)  # denominator unchanged
        strict = correct_sentence_ratio(gold, pred, count_all_sentences=True)
        assert (strict.correct, strict.total) == (1, 2)

    def test_events_do_not_affect_the_score(self):
        with_event = NegationInstance(elements(0), elements(1), elements(2))
        without_event = NegationInstance(elements(0), elements(1))
        gold = Corpus((sentence(3, [with_event]),))
        pred = Corpus((sentence(3, [without_event]),))
        assert correct_sentence_ratio(gold, pred).ratio == 1.0


class TestRounding:
    def test_half_away_from_zero_to_one_decimal(self):
        assert percent(13 / 15) == 86.7
        assert percent(0.85) == 85.0
        assert percent(0.71794871794) == 71.8
        assert percent(0.9999) == 100.0
        assert percent(0.005) == 0.5
        assert percent(0.0345) == 3.5  # 3.45 rounds up, not to even
