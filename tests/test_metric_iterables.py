"""The metric functions read any iterable of alignments, once.

A generator of alignments must give exactly the ``PRF`` the list gives, and
a mode mismatch must name the first alignment built with the wrong mode,
whatever the iterable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import fixture_path
from negeval import (
    Corpus,
    CueMatchMode,
    UsageError,
    align_corpus,
    cue_scores,
    instance_scores,
    load_sem_conll,
    scope_match,
    scope_tokens,
)
from negeval.metrics import EXACT_SCORER, TOKEN_SCORER
from test_reference_scorer import corpus_pair

EXACT, PARTIAL = CueMatchMode.EXACT, CueMatchMode.PARTIAL

#: Each metric call, by name: the cue-match mode its alignments are built
#: with, and the call on an iterable of them.
_CALLS = {
    "cue_scores exact standard": (EXACT, lambda a: cue_scores(a, EXACT)),
    "cue_scores exact b": (EXACT, lambda a: cue_scores(a, EXACT, "b")),
    "cue_scores partial standard": (PARTIAL, lambda a: cue_scores(a, PARTIAL)),
    "cue_scores partial b": (PARTIAL, lambda a: cue_scores(a, PARTIAL, "b")),
    "scope_match standard": (EXACT, scope_match),
    "scope_match b": (EXACT, lambda a: scope_match(a, "b")),
    "scope_tokens": (EXACT, scope_tokens),
    "instance_scores token": (EXACT, instance_scores),
    "instance_scores exact": (EXACT, lambda a: instance_scores(a, EXACT_SCORER)),
}


def _pairs():
    gold = load_sem_conll(fixture_path("two_systems_gold.conll"))
    nested = load_sem_conll(fixture_path("nested_scopes.conll"))
    yield gold, load_sem_conll(fixture_path("two_systems_a.conll"))
    yield gold, load_sem_conll(fixture_path("two_systems_b.conll"))
    yield nested, nested
    for seed in range(60):
        yield corpus_pair(seed)


@pytest.mark.parametrize("name", list(_CALLS))
def test_a_generator_of_alignments_scores_as_the_list(name):
    mode, score = _CALLS[name]
    for gold, pred in _pairs():
        alignments = align_corpus(gold, pred, mode)
        assert score(a for a in alignments) == score(alignments)


def test_the_two_systems_scores_from_a_generator():
    gold = load_sem_conll(fixture_path("two_systems_gold.conll"))
    pred = load_sem_conll(fixture_path("two_systems_a.conll"))
    alignments = align_corpus(gold, pred)
    assert scope_match(iter(alignments)).f1 == 0.5
    assert scope_tokens(iter(alignments)).f1 == pytest.approx(0.8636, abs=1e-4)
    assert instance_scores(iter(alignments), TOKEN_SCORER).f1 == pytest.approx(0.7179, abs=1e-4)
    no_predictions = Corpus(tuple(replace(s, instances=()) for s in gold.sentences))
    assert cue_scores(iter(align_corpus(gold, no_predictions))).f1 == 0.0


@pytest.mark.parametrize("name", list(_CALLS))
def test_a_mode_mismatch_names_the_first_bad_alignment_of_a_generator(name):
    mode, score = _CALLS[name]
    other = PARTIAL if mode is EXACT else EXACT
    gold = load_sem_conll(fixture_path("two_systems_gold.conll"))
    pred = load_sem_conll(fixture_path("two_systems_a.conll"))
    right, wrong = align_corpus(gold, pred, mode), align_corpus(gold, pred, other)
    first_bad = wrong[1]
    mixed = [right[0], first_bad, wrong[2]]
    caller = name.split()[0]
    with pytest.raises(UsageError) as err:
        score(a for a in mixed)
    assert str(err.value) == (
        f"{caller}: alignment for {first_bad.doc_id}#{first_bad.sent_index} was built "
        f"with {other.value!r} cue matching, requested {mode.value!r}"
    )


def test_a_bad_variant_is_found_before_a_bad_mode_by_cue_scores_and_after_it_by_scope_match():
    gold = load_sem_conll(fixture_path("two_systems_gold.conll"))
    partial = align_corpus(gold, gold, PARTIAL)
    with pytest.raises(UsageError, match="^unknown variant 'a'"):
        cue_scores(iter(partial), EXACT, "a")
    with pytest.raises(UsageError, match="^scope_match: alignment for "):
        scope_match(iter(partial), "a")
    with pytest.raises(UsageError, match="^unknown variant 'a'"):
        scope_match(iter(align_corpus(gold, gold, EXACT)), "a")
