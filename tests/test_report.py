from __future__ import annotations

import gc
import json
import random
from dataclasses import replace

import pytest

import negeval.report
from negeval import (
    AlignmentError,
    Corpus,
    CueMatchMode,
    EXACT_SCORER,
    TOKEN_SCORER,
    Token,
    align,
    align_corpus,
    correct_sentence_ratio,
    cue_scores,
    full_report,
    instance_scores,
    scope_match,
    scope_tokens,
    strip_punctuation,
)
from negeval.metrics import percent
from negeval.report import METRIC_ORDER, MetricReport
from negeval.testing import perturb_predictions, random_corpus
from test_reference_scorer import corpus_pair


def test_report_contains_all_metrics(gold_corpus, system_a):
    report = full_report(gold_corpus, system_a)
    assert set(report.metrics) == set(METRIC_ORDER)


def test_one_report_carries_all_eight_golden_numbers(gold_corpus, system_a, system_b):
    for pred, st_triple, inst_triple in (
        (system_a, (81.0, 89.5, 85.0), (66.7, 77.8, 71.8)),
        (system_b, (86.7, 68.4, 76.5), (94.4, 87.5, 90.8)),
    ):
        report = full_report(gold_corpus, pred)
        st, inst = report.metrics["st"], report.metrics["inst_tok"]
        assert (percent(st.precision), percent(st.recall), percent(st.f1)) == st_triple
        assert (percent(inst.precision), percent(inst.recall), percent(inst.f1)) == inst_triple


def test_scm_b_equals_exact_instance_scores(gold_corpus, system_b):
    report = full_report(gold_corpus, system_b)
    scm_b, inst_ex = report.metrics["scm_b"], report.metrics["inst_ex"]
    assert abs(scm_b.f1 - inst_ex.f1) < 1e-12


def test_gold_vs_itself_everything_100(gold_corpus):
    report = full_report(gold_corpus, gold_corpus)
    for key in METRIC_ORDER:
        assert percent(report.metrics[key].f1) == 100.0
    assert report.sentence_accuracy.ratio == 1.0


def test_json_round_trip(gold_corpus, system_a):
    report = full_report(gold_corpus, system_a)
    again = MetricReport.from_json(report.to_json())
    assert again.metrics == report.metrics
    assert again.sentence_accuracy == report.sentence_accuracy
    assert again.metadata == report.metadata


def test_json_round_trip_on_random_corpora():
    for seed in range(30):
        rng = random.Random(seed)
        gold = random_corpus(rng)
        pred = perturb_predictions(rng, gold)
        report = full_report(gold, pred)
        assert MetricReport.from_json(report.to_json()).metrics == report.metrics


def test_json_and_tsv_agree(gold_corpus, system_b):
    report = full_report(gold_corpus, system_b)
    payload = json.loads(report.to_json())
    tsv_rows = {}
    for line in report.to_tsv().splitlines():
        if line.startswith("#") or line.startswith("metric\t") or line.startswith("cns\t"):
            continue
        cols = line.split("\t")
        tsv_rows[cols[0]] = (float(cols[1]), float(cols[2]), float(cols[3]))
    for key in METRIC_ORDER:
        m = payload["metrics"][key]
        assert tsv_rows[key] == (m["precision"], m["recall"], m["f1"])


def test_text_table_shows_rounded_percentages(gold_corpus, system_a):
    text = full_report(gold_corpus, system_a).to_text()
    assert "85.0" in text  # token-level F1
    assert "71.8" in text  # instance-level F1


def test_schema_version_present(gold_corpus, system_a):
    report = full_report(gold_corpus, system_a)
    assert json.loads(report.to_json())["schema_version"] == 1
    assert report.to_tsv().startswith("# schema_version\t1")


def test_determinism(gold_corpus, system_a):
    r1 = full_report(gold_corpus, system_a)
    r2 = full_report(gold_corpus, system_a)
    assert r1.to_json() == r2.to_json()
    assert r1.to_tsv() == r2.to_tsv()
    assert r1.to_text() == r2.to_text()


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_full_report_pauses_gc_and_restores_the_callers_state(
    gold_corpus, system_a, monkeypatch, restore_gc, enabled
):
    seen = []

    def spy(real):
        def wrapper(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(negeval.report, "_count", spy(negeval.report._count))
    (gc.enable if enabled else gc.disable)()
    full_report(gold_corpus, system_a)
    assert gc.isenabled() is enabled
    assert seen == [False]
    # a different sentence set makes the pairing raise inside full_report
    with pytest.raises(AlignmentError):
        full_report(gold_corpus, Corpus(system_a.sentences[1:]))
    assert gc.isenabled() is enabled


def test_repeated_reports_leave_no_garbage_cycles(gold_corpus, system_a, restore_gc):
    def unreachable_after(calls: int) -> int:
        gc.collect()
        gc.disable()
        for _ in range(calls):
            full_report(gold_corpus, system_a)
        return gc.collect()

    once = unreachable_after(1)
    assert unreachable_after(20) <= once


@pytest.mark.parametrize("keep_punct", [False, True])
@pytest.mark.parametrize("cns_all_sentences", [False, True])
def test_to_json_is_laid_out_as_json_dumps_does(gold_corpus, system_a, system_b, keep_punct, cns_all_sentences):
    for pred in (system_a, system_b, gold_corpus):
        text = full_report(
            gold_corpus, pred, keep_punct=keep_punct, cns_all_sentences=cns_all_sentences
        ).to_json()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [{}, [], (), {"a": []}, {"a": {}}, [1, [2, {}], "xé\n", None, True, 1.5, float("nan"), -0.0], {"k": {"z": (1.0, 2)}}],
)
def test_json_writer_matches_json_dumps_on_edge_cases(value):
    assert negeval.report._json_text(value) == json.dumps(value, indent=2)


def test_to_json_leaves_no_garbage_cycles(gold_corpus, system_a, restore_gc):
    report = full_report(gold_corpus, system_a)
    gc.collect()
    gc.disable()
    for _ in range(10):
        report.to_json()
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# full_report against the public functions it stands for


def _report_from_public_functions(gold, pred, *, keep_punct, cns_all_sentences) -> MetricReport:
    if not keep_punct:
        gold, pred = strip_punctuation(gold), strip_punctuation(pred)
    exact = align_corpus(gold, pred, CueMatchMode.EXACT)
    partial = align_corpus(gold, pred, CueMatchMode.PARTIAL)
    metrics = {
        "cues_exact": cue_scores(exact, CueMatchMode.EXACT, "standard"),
        "cues_exact_b": cue_scores(exact, CueMatchMode.EXACT, "b"),
        "cues_partial": cue_scores(partial, CueMatchMode.PARTIAL, "standard"),
        "cues_partial_b": cue_scores(partial, CueMatchMode.PARTIAL, "b"),
        "scm": scope_match(exact, "standard"),
        "scm_b": scope_match(exact, "b"),
        "st": scope_tokens(exact),
        "inst_tok": instance_scores(exact, TOKEN_SCORER),
        "inst_ex": instance_scores(exact, EXACT_SCORER),
    }
    metadata = {
        "gold": gold.name,
        "pred": pred.name,
        "punctuation": "kept" if keep_punct else "stripped",
        "cns_denominator": "all" if cns_all_sentences else "gold-negation",
    }
    accuracy = correct_sentence_ratio(gold, pred, count_all_sentences=cns_all_sentences)
    return MetricReport(metrics=metrics, sentence_accuracy=accuracy, metadata=metadata)


def _own_tokens(rng: random.Random, corpus: Corpus, flip_punct: bool) -> Corpus:
    """``corpus`` with new token tuples of equal surfaces; with ``flip_punct``
    some tokens change their punctuation flag."""
    sentences = []
    for sent in corpus.sentences:
        tokens = tuple(
            Token(t.index, t.surface, t.lemma, t.pos, t.is_punct != (flip_punct and rng.random() < 0.2))
            for t in sent.tokens
        )
        sentences.append(replace(sent, tokens=tokens))
    return replace(corpus, sentences=tuple(sentences))


@pytest.mark.parametrize("keep_punct", [False, True])
@pytest.mark.parametrize("cns_all_sentences", [False, True])
def test_full_report_equals_the_public_functions(keep_punct, cns_all_sentences):
    for seed in range(300):
        gold, pred = corpus_pair(seed)
        if seed % 3:  # predictions with their own tokens, not the gold's tuple
            pred = _own_tokens(random.Random(seed), pred, flip_punct=seed % 3 == 2)
        options = dict(keep_punct=keep_punct, cns_all_sentences=cns_all_sentences)
        want = _report_from_public_functions(gold, pred, **options).to_json()
        assert full_report(gold, pred, **options).to_json() == want, seed


def test_full_report_raises_the_alignment_error_of_align(gold_corpus):
    last = gold_corpus.sentences[-1]
    n = len(last.tokens)
    shorter = replace(last, tokens=last.tokens[:-1], instances=())
    renamed = replace(last, tokens=(replace(last.tokens[0], surface="zzz"),) + last.tokens[1:])
    for changed, detail in (
        (shorter, f"{n} gold vs {n - 1} predicted tokens"),
        (renamed, f"token 0: {last.tokens[0].surface!r} vs 'zzz'"),
    ):
        with pytest.raises(AlignmentError) as want:
            align(last, changed)
        pred = replace(gold_corpus, sentences=gold_corpus.sentences[:-1] + (changed,))
        with pytest.raises(AlignmentError) as got:
            full_report(gold_corpus, pred)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"token sequences differ for sentence {last.key}: {detail}"
