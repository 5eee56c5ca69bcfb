from __future__ import annotations

import itertools
import random
import re
from dataclasses import replace

import pytest

from negeval import (
    AlignmentError,
    AnnotationElement,
    Corpus,
    CueMatchMode,
    NegationInstance,
    ParseError,
    Sentence,
    Token,
    align,
    align_corpus,
    correct_sentence_ratio,
    full_report,
    parse_sem_conll,
    write_sem_conll,
)
from negeval.testing import perturb_predictions, random_corpus


def sentence(surfaces, instances, doc="d", idx=0):
    tokens = tuple(Token(i, s) for i, s in enumerate(surfaces))
    return Sentence(doc, idx, tokens, tuple(instances))


def inst(cue, scope=(), instance_id=0):
    return NegationInstance(
        frozenset(AnnotationElement(i) for i in cue),
        frozenset(AnnotationElement(i) for i in scope),
        instance_id=instance_id,
    )


WORDS = ["there", "should", "be", "no", "more", "problems"]


def test_identical_sentences_fully_match():
    gold = sentence(WORDS, [inst({3}, {5})])
    result = align(gold, gold)
    assert len(result.matched) == 1
    assert result.unmatched_gold == () and result.unmatched_pred == ()


@pytest.mark.parametrize("mode", list(CueMatchMode))
def test_instances_with_an_empty_cue_match_nothing(mode):
    gold = sentence(WORDS, [inst((), {5}, 0), inst({3}, {5}, 1)])
    result = align(gold, gold, mode)
    assert [(g.instance_id, p.instance_id) for g, p in result.matched] == [(1, 1)]
    assert result.unmatched_gold == result.unmatched_pred == (gold.instances[0],)
    assert result.partial_only_pred == ()


def test_multiword_cue_exact_vs_partial():
    gold = sentence(WORDS, [inst({3, 4}, {5})])  # cue "no more"
    pred = sentence(WORDS, [inst({3}, {5})])  # cue "no"
    exact = align(gold, pred, CueMatchMode.EXACT)
    assert exact.matched == ()
    assert len(exact.unmatched_gold) == 1 and len(exact.unmatched_pred) == 1
    assert exact.partial_only_pred == exact.unmatched_pred  # flagged

    partial = align(gold, pred, CueMatchMode.PARTIAL)
    assert len(partial.matched) == 1


def test_affix_cues_match_only_on_identical_subspan_text():
    gold = sentence(["imprecise"], [NegationInstance(frozenset({AnnotationElement(0, "im")}))])
    pred_same = sentence(["imprecise"], [NegationInstance(frozenset({AnnotationElement(0, "im")}))])
    pred_whole = sentence(["imprecise"], [NegationInstance(frozenset({AnnotationElement(0)}))])
    assert len(align(gold, pred_same).matched) == 1
    result = align(gold, pred_whole)
    assert result.matched == ()
    assert result.partial_only_pred == ()  # disjoint elements: no overlap either


def test_three_matched_pairs_with_identical_cues(gold_corpus, system_a):
    alignments = align_corpus(gold_corpus, system_a)
    assert sum(len(a.matched) for a in alignments) == 3


def test_token_mismatch_is_an_error():
    gold = sentence(["a", "b"], [])
    pred = sentence(["a"], [])
    with pytest.raises(AlignmentError):
        align(gold, pred)


def test_sentences_with_different_keys_do_not_align():
    with pytest.raises(AlignmentError) as err:
        align(sentence(["a"], [], idx=0), sentence(["a"], [], idx=1))
    assert str(err.value) == "sentence keys differ: ('d', 0) vs ('d', 1)"


def test_corpus_sentence_set_mismatch_names_offender():
    gold = Corpus((sentence(["a"], [], idx=0), sentence(["b"], [], idx=1)))
    pred = Corpus((sentence(["a"], [], idx=0),))
    with pytest.raises(AlignmentError) as err:
        align_corpus(gold, pred)
    assert "('d', 1)" in str(err.value)


PAIRING_ENTRY_POINTS = pytest.mark.parametrize(
    "entry_point", [full_report, align_corpus, correct_sentence_ratio], ids=lambda f: f.__name__
)


def with_extra_sentence(corpus: Corpus, sent: Sentence) -> Corpus:
    return Corpus(corpus.sentences + (sent,), name=corpus.name)


@PAIRING_ENTRY_POINTS
@pytest.mark.parametrize("side", ["gold", "predictions"])
def test_duplicate_sentence_key_is_an_error(gold_corpus, system_b, entry_point, side):
    # The copy has no instances: silently keeping only one of the two would
    # change the counts (for predictions, cues_exact_b.p_den reads 2, not 3).
    corpora = {"gold": gold_corpus, "predictions": system_b}
    first = corpora[side].sentences[0]
    corpora[side] = with_extra_sentence(corpora[side], replace(first, instances=()))
    with pytest.raises(AlignmentError, match=re.escape(f"duplicate sentence key {first.key} in {side}")):
        entry_point(corpora["gold"], corpora["predictions"])


@PAIRING_ENTRY_POINTS
def test_predicted_sentence_missing_from_gold_is_an_error(gold_corpus, system_b, entry_point):
    extra = replace(system_b.sentences[0], doc_id="elsewhere", instances=())
    with pytest.raises(AlignmentError, match="missing from gold"):
        entry_point(gold_corpus, with_extra_sentence(system_b, extra))


@PAIRING_ENTRY_POINTS
def test_paired_sentences_with_different_tokens_are_an_error(entry_point):
    gold = Corpus((sentence(["not", "here"], [inst({0})]),))
    pred = Corpus((sentence(["never", "there", "x"], [inst({0})]),))
    message = "token sequences differ for sentence ('d', 0): 2 gold vs 3 predicted tokens"
    with pytest.raises(AlignmentError, match=re.escape(message)):
        entry_point(gold, pred)


def test_a_repeated_key_is_named_as_the_reader_names_it():
    a, b = sentence(["x"], [], doc="A"), sentence(["x"], [], doc="B")
    with pytest.raises(AlignmentError, match=re.escape("duplicate sentence key ('B', 0) in gold")):
        full_report(Corpus((a, b, b, a)), Corpus((a, b)))
    text = "\n".join(write_sem_conll(Corpus((s,))) for s in (a, b, b, a))
    with pytest.raises(ParseError, match=re.escape("<string>:5: duplicate sentence key ('B', 0)")):
        parse_sem_conll(text)


def test_empty_corpora_align_to_nothing():
    assert align_corpus(Corpus(), Corpus()) == []


def brute_force_max_matching(gold, pred, mode):
    """Maximum one-to-one matching size by trying every pairing.

    Any one-to-one matching of size m is contained in some pairing of k
    golds with k preds (k = min of the two counts), and only satisfying
    pairs are counted, so the maximum over all pairings is the maximum
    matching size.
    """
    best = 0
    g = list(gold)
    p = list(pred)
    k = min(len(g), len(p))
    for gperm in itertools.permutations(range(len(g)), k):
        for pperm in itertools.permutations(range(len(p)), k):
            size = sum(1 for gi, pi in zip(gperm, pperm) if _cues_ok(g[gi], p[pi], mode))
            best = max(best, size)
    return best


def _cues_ok(gi, pi, mode):
    if not gi.cue or not pi.cue:
        return False
    if mode is CueMatchMode.EXACT:
        return gi.cue == pi.cue
    return bool(gi.cue & pi.cue)


def test_greedy_exact_matching_is_maximum_small_scale():
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        gold = random_corpus(rng, max_sentences=2, max_instances=4)
        pred = perturb_predictions(rng, gold)
        for alignment, gold_sent, in zip(align_corpus(gold, pred), gold.sentences):
            pred_sent = next(s for s in pred.sentences if s.key == gold_sent.key)
            if len(gold_sent.instances) > 5 or len(pred_sent.instances) > 5:
                continue
            expected = brute_force_max_matching(
                gold_sent.instances, pred_sent.instances, CueMatchMode.EXACT
            )
            assert len(alignment.matched) == expected
            checked += 1
    assert checked > 100


def test_counting_invariant_and_symmetry():
    for seed in range(100):
        rng = random.Random(1000 + seed)
        gold = random_corpus(rng)
        pred = perturb_predictions(rng, gold)
        for a in align_corpus(gold, pred):
            assert len(a.matched) + len(a.unmatched_gold) == a.n_gold
            assert len(a.matched) + len(a.unmatched_pred) == a.n_pred
            assert set(a.partial_only_pred) <= set(a.unmatched_pred)
        forward = align_corpus(gold, pred)
        backward = align_corpus(pred, gold)
        for fa, ba in zip(forward, backward):
            assert {(g, p) for g, p in fa.matched} == {(g, p) for p, g in ba.matched}


def test_alignment_is_deterministic():
    rng = random.Random(5)
    gold = random_corpus(rng)
    pred = perturb_predictions(rng, gold)
    assert align_corpus(gold, pred) == align_corpus(gold, pred)
