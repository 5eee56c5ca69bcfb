from __future__ import annotations

import gc
import json
import operator
import random
import weakref
from dataclasses import replace

import pytest

import negeval.report
from negeval import (
    AlignmentError,
    AnnotationElement,
    Corpus,
    CueMatchMode,
    EXACT_SCORER,
    NegationInstance,
    Sentence,
    TOKEN_SCORER,
    Token,
    align,
    align_corpus,
    correct_sentence_ratio,
    cue_scores,
    full_report,
    instance_scores,
    load_sem_conll,
    scope_match,
    scope_tokens,
    strip_punctuation,
)
from negeval.metrics import percent
from negeval.report import METRIC_ORDER, MetricReport
from negeval.testing import perturb_predictions, random_corpus
from conftest import fixture_path
from test_reference_scorer import _report_counts, corpus_pair, reference_counts


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


def _instance(cue, scope, instance_id):
    return NegationInstance(
        frozenset(map(AnnotationElement, cue)), frozenset(map(AnnotationElement, scope)), instance_id=instance_id
    )


def _sentence(index, surfaces, instances):
    tokens = tuple(Token(i, w, is_punct=w in ",.") for i, w in enumerate(surfaces))
    return Sentence("d", index, tokens, tuple(_instance(*inst) for inst in instances))


# Instances whose cues share their first token are ordered by position, not
# by id, and the first of two equal cues takes the match, so these pairs
# score differently when ids or a wrong order break the tie.
ORDER_PAIRS = [
    (  # a punctuation token: stripping drops the comma cue and renumbers by position
        ["a", "no", "b", "c", ",", "d"],
        [({1}, {2, 4}, 1), ({1}, {3}, 0), ({1, 5}, {0}, 0)],
        [({1}, {3}, 0), ({4}, {0}, 2), ({1}, {2, 4}, 0), ({1, 5}, {0, 4}, 3)],
    ),
    (  # no punctuation token: the ids are kept, repeated and out of order
        ["a", "no", "b", "c"],
        [({1}, {2}, 3), ({1, 3}, {0}, 2), ({1}, {0}, 2)],
        [({1}, {0}, 9), ({1, 3}, {0, 2}, 9), ({1}, {2}, 9)],
    ),
    (["never", "."], [], [({0}, {1}, 0)]),
    (["fine", "."], [], []),
    (["not", "this", "."], [({0}, {1, 2}, 5)], []),
]


@pytest.mark.parametrize("keep_punct", [False, True])
@pytest.mark.parametrize("cns_all_sentences", [False, True])
def test_full_report_orders_instances_as_align_does(keep_punct, cns_all_sentences):
    gold = Corpus(tuple(_sentence(k, words, g) for k, (words, g, _) in enumerate(ORDER_PAIRS)), "gold")
    pred = Corpus(tuple(_sentence(k, words, p) for k, (words, _, p) in enumerate(ORDER_PAIRS)), "pred")
    options = dict(keep_punct=keep_punct, cns_all_sentences=cns_all_sentences)
    report = full_report(gold, pred, **options)
    assert report.to_json() == _report_from_public_functions(gold, pred, **options).to_json()
    # align_corpus shares the record order, so check it against the brute-force scorer too
    found = _report_counts(report)
    want = reference_counts(gold, pred, keep_punct=keep_punct, cns_all=cns_all_sentences)
    assert found.pop("inst_tok") == pytest.approx(want.pop("inst_tok"))
    assert found == want


#: Ways to reassign the instance ids of a sentence of ``n`` instances.
RENUMBERINGS = {
    "shuffled": lambda rng, n: rng.sample(range(n), n),
    "repeated": lambda rng, n: [rng.randrange(3)] * n,
    "reversed": lambda rng, n: range(n - 1, -1, -1),
}


def _renumbered(rng: random.Random, corpus: Corpus, ids) -> Corpus:
    sentences = []
    for sent in corpus.sentences:
        instances = tuple(
            replace(inst, instance_id=k) for inst, k in zip(sent.instances, ids(rng, len(sent.instances)))
        )
        sentences.append(replace(sent, instances=instances))
    return replace(corpus, sentences=tuple(sentences))


def _alignment_positions(gold: Corpus, pred: Corpus, mode: CueMatchMode) -> list[tuple]:
    """``align_corpus``'s result with each instance read as its position in
    its sentence."""
    gold_at, pred_at = ({id(i): n for s in corpus for n, i in enumerate(s.instances)} for corpus in (gold, pred))

    def at(instances, where):
        return tuple(where[id(inst)] for inst in instances)

    return [
        (a.doc_id, a.sent_index, tuple((gold_at[id(g)], pred_at[id(p)]) for g, p in a.matched),
         at(a.unmatched_gold, gold_at), at(a.unmatched_pred, pred_at), at(a.partial_only_pred, pred_at))
        for a in align_corpus(gold, pred, mode)
    ]


def _scores(gold: Corpus, pred: Corpus) -> list:
    """The report bytes of ``full_report`` and of the public functions, and
    ``align_corpus``'s result read as positions."""
    found = []
    for keep_punct in (False, True):
        options = dict(keep_punct=keep_punct, cns_all_sentences=keep_punct)
        found.append(full_report(gold, pred, **options).to_json())
        found.append(_report_from_public_functions(gold, pred, **options).to_json())
    return found + [_alignment_positions(gold, pred, mode) for mode in CueMatchMode]


def test_instance_ids_change_no_score():
    for seed in range(300):
        gold, pred = corpus_pair(seed)
        want = _scores(gold, pred)
        for name, ids in RENUMBERINGS.items():
            rng = random.Random(seed)
            assert _scores(_renumbered(rng, gold, ids), _renumbered(rng, pred, ids)) == want, (seed, name)


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


# ---------------------------------------------------------------------------
# The memo of the last scored gold

#: (keep_punct, cns_all_sentences) in calling order: every step changes
#: keep_punct, and a second gold is scored once in between.
MEMO_SETTINGS = [(False, False), (True, True), "other gold", (False, True), (True, False)]


def _fresh(corpus: Corpus) -> Corpus:
    """A new ``Corpus`` object holding ``corpus``'s sentences, which the memo
    of ``full_report`` does not hold."""
    return Corpus(corpus.sentences, corpus.name)


def _scored(caplog, gold: Corpus, pred: Corpus, keep_punct: bool, cns_all_sentences: bool) -> tuple:
    """``full_report(...).to_json()`` and the warning lines it logged."""
    caplog.clear()
    text = full_report(gold, pred, keep_punct=keep_punct, cns_all_sentences=cns_all_sentences).to_json()
    return text, [r.getMessage() for r in caplog.records]


def test_a_repeated_call_gives_what_a_first_call_gives(caplog):
    seen = {"dropped gold instance": 0, "empty gold scope": 0}
    caplog.set_level("WARNING", logger="negeval")
    for seed in range(300):
        gold, shared = corpus_pair(seed)
        other_gold, other_pred = corpus_pair(seed + 300)
        own = _own_tokens(random.Random(seed), shared, flip_punct=True)
        calls = []
        for setting in MEMO_SETTINGS:
            if setting == "other gold":
                calls.append((other_gold, other_pred, False, False))
            else:
                calls += [(gold, pred, *setting) for pred in (own, shared, gold)]
        want = [_scored(caplog, _fresh(g), p, k, c) for g, p, k, c in calls]
        assert [_scored(caplog, *call) for call in calls] == want, seed
        seen["dropped gold instance"] += any(
            all(s.tokens[e.token_index].is_punct for e in i.cue) for s in gold.sentences for i in s.instances
        )
        seen["empty gold scope"] += any(not i.scope for s in gold.sentences for i in s.instances)
    assert min(seen.values()) > 15, seen


def _paired_with_instances(gold: Corpus, pred: Corpus, *, gold_too: bool) -> list[Sentence]:
    """The sentences ``_count`` builds records of, in its order: of each pair
    with an instance on either side, the gold's if ``gold_too``, then the
    prediction's."""
    pairs = [(g, p) for g, p in zip(gold.sentences, pred.sentences) if g.instances or p.instances]
    return [s for g, p in pairs for s in ((g, p) if gold_too else (p,))]


def test_the_memo_holds_only_the_gold_side_of_the_gold_last_scored(monkeypatch):
    built = []

    def spy(sent, punct=None):
        built.append(sent)
        return real(sent, punct)

    real = negeval.report._records
    monkeypatch.setattr(negeval.report, "_records", spy)
    gold, pred = load_sem_conll(fixture_path("two_systems_gold.conll")), load_sem_conll(fixture_path("two_systems_a.conll"))

    full_report(gold, pred)
    built.clear()
    full_report(gold, pred)
    want = _paired_with_instances(gold, pred, gold_too=False)
    # by identity: sentences equal in value would pass ==
    assert len(built) == len(want) and all(map(operator.is_, built, want))

    again = load_sem_conll(fixture_path("two_systems_gold.conll"))  # equal in value, another object
    assert again == gold and again is not gold
    built.clear()
    full_report(again, pred)
    want = _paired_with_instances(again, pred, gold_too=True)
    assert len(built) == len(want) and all(map(operator.is_, built, want))

    ref = weakref.ref(again)
    del again
    assert ref() is None
    assert negeval.report._memo == (None, None, [])
