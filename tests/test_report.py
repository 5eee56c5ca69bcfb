from __future__ import annotations

import gc
import json
import random

import pytest

import negeval.report
from negeval import AlignmentError, Corpus, full_report
from negeval.metrics import percent
from negeval.report import METRIC_ORDER, MetricReport
from negeval.testing import perturb_predictions, random_corpus


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

    for name in ("strip_punctuation", "correct_sentence_ratio"):
        monkeypatch.setattr(negeval.report, name, spy(getattr(negeval.report, name)))
    (gc.enable if enabled else gc.disable)()
    full_report(gold_corpus, system_a)
    assert gc.isenabled() is enabled
    assert seen == [False, False, False]
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
