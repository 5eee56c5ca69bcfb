from __future__ import annotations

import random

import pytest

from negeval import (
    AnnotationElement,
    Corpus,
    NegationInstance,
    ParseError,
    PatchError,
    ReannotationPatch,
    Sentence,
    SplitError,
    SplitSpec,
    Token,
    UsageError,
    apply_patches,
    corpus_stats,
    detect_coordination_cues,
    format_patch_file,
    parse_patch_file,
    split_corpus,
)
from negeval.datatools import parse_assignment
from negeval.testing import random_corpus


def make_corpus(n_docs=10, sentences_per_doc=5):
    sentences = []
    for d in range(n_docs):
        for s in range(sentences_per_doc):
            tokens = (Token(0, "a"), Token(1, "b"))
            sentences.append(Sentence(f"doc{d}", s, tokens, ()))
    return Corpus(tuple(sentences), name="synthetic")


class TestSplit:
    def test_same_seed_same_split(self):
        corpus = make_corpus()
        spec = SplitSpec(seed=42)
        assert split_corpus(corpus, spec) == split_corpus(corpus, spec)

    def test_partition(self):
        corpus = make_corpus(n_docs=7, sentences_per_doc=3)
        train, dev, test = split_corpus(corpus, SplitSpec(seed=1))
        keys = [s.key for part in (train, dev, test) for s in part.sentences]
        assert sorted(keys) == sorted(s.key for s in corpus.sentences)
        assert len(set(keys)) == len(keys)

    def test_documents_stay_whole(self):
        corpus = make_corpus()
        train, dev, test = split_corpus(corpus, SplitSpec(seed=3))
        doc_parts = {}
        for part_name, part in (("train", train), ("dev", dev), ("test", test)):
            for sent in part.sentences:
                doc_parts.setdefault(sent.doc_id, set()).add(part_name)
        assert all(len(parts) == 1 for parts in doc_parts.values())

    def test_ten_equal_documents_hit_801010_exactly(self):
        corpus = make_corpus(n_docs=10, sentences_per_doc=4)
        train, dev, test = split_corpus(corpus, SplitSpec(seed=0))
        assert (len(train), len(dev), len(test)) == (32, 4, 4)

    def test_proportions_within_one_document(self):
        corpus = make_corpus(n_docs=10, sentences_per_doc=6)
        train, dev, test = split_corpus(corpus, SplitSpec(seed=9))
        total = len(corpus)
        for part, ratio in ((train, 80), (dev, 10), (test, 10)):
            target = total * ratio / 100
            assert abs(len(part) - target) <= 6  # one document of sentences

    def test_assignment_file_is_followed_exactly(self):
        corpus = make_corpus(n_docs=4, sentences_per_doc=2)
        assignment = {"doc0": "test", "doc1": "train", "doc2": "dev", "doc3": "train"}
        train, dev, test = split_corpus(corpus, SplitSpec(assignment=assignment))
        assert {s.doc_id for s in train.sentences} == {"doc1", "doc3"}
        assert {s.doc_id for s in dev.sentences} == {"doc2"}
        assert {s.doc_id for s in test.sentences} == {"doc0"}

    def test_unknown_doc_in_assignment(self):
        corpus = make_corpus(n_docs=2)
        with pytest.raises(SplitError):
            split_corpus(corpus, SplitSpec(assignment={"nope": "train"}))

    def test_ratios_must_sum_to_100(self):
        with pytest.raises(SplitError):
            SplitSpec(ratios=(80, 10, 5))

    def test_parse_assignment(self):
        text = "# comment\ndoc0\ttrain\ndoc1\tdev\n"
        assert parse_assignment(text) == {"doc0": "train", "doc1": "dev"}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("doc0\ttrain\n\nbad\n", "a.tsv:3: expected 'doc_id<TAB>part', got 'bad'"),
            ("doc0\ttrain\ndoc1\tdev\ndoc0\ttrain\n", "a.tsv:3: document 'doc0' is assigned twice"),
        ],
    )
    def test_parse_assignment_names_the_file_and_line(self, text, message):
        with pytest.raises(SplitError) as err:
            parse_assignment(text, source="a.tsv")
        assert str(err.value) == message
        assert (err.value.source, err.value.line) == ("a.tsv", 3)

    def test_a_document_id_may_start_with_a_hash(self):
        text = "  # comment\n#d\ttest\n# another comment\ne\ttrain\n"
        assert parse_assignment(text) == {"#d": "test", "e": "train"}

    def test_parse_assignment_follows_the_conll_line_rule(self):
        # lines end at line feeds only; a whitespace-only line is blank
        text = "a\x85b\ttest\r\n \t\r\nc\u2028d\tdev\n"
        assert parse_assignment(text) == {"a\x85b": "test", "c\u2028d": "dev"}

    @pytest.mark.parametrize("ratios", [(100,), (50, 50), (60, 20, 10, 10)])
    def test_ratios_must_have_three_parts(self, ratios):
        with pytest.raises(SplitError) as err:
            SplitSpec(ratios=ratios)
        assert str(err.value) == f"split ratios must have three parts, got {ratios}"


class TestStats:
    def test_empty_corpus(self):
        stats = corpus_stats(Corpus())
        assert stats.sentences == 0
        assert stats.instances == 0
        assert stats.scope_length_histogram == {}

    def test_golden_three_sentences(self, gold_corpus):
        stats = corpus_stats(gold_corpus)
        assert stats.sentences == 3
        assert stats.negation_sentences == 3
        assert stats.instances == 3
        # scope sizes after punctuation stripping: empty, 3 tokens, 16 tokens
        assert stats.scope_length_histogram == {0: 1, 3: 1, 16: 1}

    def test_histogram_mass_equals_instance_count(self):
        for seed in range(50):
            stats = corpus_stats(random_corpus(random.Random(seed)))
            assert sum(stats.scope_length_histogram.values()) == stats.instances

    def test_tsv_shape(self, gold_corpus):
        tsv = corpus_stats(gold_corpus).to_tsv()
        assert "sentences\t3" in tsv
        assert "scope_length\t16\t1" in tsv


def coordination_sentence():
    surfaces = ["Neither", "Mary", "nor", "Sam", "like", "pizza"]
    tokens = tuple(Token(i, s) for i, s in enumerate(surfaces))
    cue = frozenset({AnnotationElement(0), AnnotationElement(2)})
    scope = frozenset(AnnotationElement(i) for i in (1, 3, 4, 5))
    return Sentence("cd", 7, tokens, (NegationInstance(cue, scope),))


def two_instance_corpus():
    """The coordination sentence with a copy of its instance, so that patch
    targets cd#7/0 and cd#7/1 both exist."""
    sent = coordination_sentence()
    (inst,) = sent.instances
    copy = NegationInstance(inst.cue, inst.scope, instance_id=1)
    return Corpus((Sentence(sent.doc_id, sent.sent_index, sent.tokens, (inst, copy)),))


class TestPatches:
    def test_empty_patch_list_is_identity(self, gold_corpus):
        assert apply_patches(gold_corpus, []) == gold_corpus

    def test_split_coordination_increases_instance_count(self):
        corpus = Corpus((coordination_sentence(),))
        (patch,) = detect_coordination_cues(corpus)
        patched = apply_patches(corpus, [patch])
        assert len(patched.sentences[0].instances) == 2
        first, second = patched.sentences[0].instances
        assert {e.token_index for e in first.cue} == {0}
        assert {e.token_index for e in second.cue} == {2}
        # both conjunct instances inherit the full original scope
        assert first.scope == second.scope == corpus.sentences[0].instances[0].scope
        assert [i.instance_id for i in patched.sentences[0].instances] == [0, 1]

    def test_missing_target_is_an_error(self, gold_corpus):
        patch = ReannotationPatch("redcircle01", 0, 7, (NegationInstance(frozenset({AnnotationElement(1)})),))
        with pytest.raises(PatchError):
            apply_patches(gold_corpus, [patch])
        patch = ReannotationPatch("nope", 0, 0, (NegationInstance(frozenset({AnnotationElement(1)})),))
        with pytest.raises(PatchError):
            apply_patches(gold_corpus, [patch])

    def test_only_targeted_sentences_change(self, gold_corpus):
        replacement = (NegationInstance(frozenset({AnnotationElement(1)})),)
        patch = ReannotationPatch("redcircle01", 0, 0, replacement)
        patched = apply_patches(gold_corpus, [patch])
        assert patched.sentences[1:] == gold_corpus.sentences[1:]

    def test_a_patch_targets_an_instance_by_its_position(self):
        # two instances built in Python keep the default instance_id 0
        sent = coordination_sentence()
        (inst,) = sent.instances
        other = NegationInstance(frozenset({AnnotationElement(4)}), frozenset({AnnotationElement(5)}))
        corpus = Corpus((Sentence("cd", 7, sent.tokens, (inst, other)),))
        new = NegationInstance(frozenset({AnnotationElement(2)}))
        first = apply_patches(corpus, [ReannotationPatch("cd", 7, 0, (new,))]).sentences[0].instances
        assert [(i.cue, i.instance_id) for i in first] == [(new.cue, 0), (other.cue, 1)]
        second = apply_patches(corpus, [ReannotationPatch("cd", 7, 1, (new,))]).sentences[0].instances
        assert [(i.cue, i.instance_id) for i in second] == [(inst.cue, 0), (new.cue, 1)]
        with pytest.raises(PatchError, match=r"^patch targets unknown instance cd#7/2$"):
            apply_patches(corpus, [ReannotationPatch("cd", 7, 2, (new,))])
        # the coordination cue is the second instance, whatever its id says
        (patch,) = detect_coordination_cues(Corpus((Sentence("cd", 7, sent.tokens, (other, inst)),)))
        assert patch.target == ("cd", 7, 1)

    def test_distinct_targets_commute(self):
        corpus = Corpus((coordination_sentence(), coordination_sentence()))
        corpus = Corpus(
            (
                corpus.sentences[0],
                Sentence("cd", 8, corpus.sentences[1].tokens, corpus.sentences[1].instances),
            )
        )
        patches = detect_coordination_cues(corpus)
        assert len(patches) == 2
        forward = apply_patches(corpus, patches)
        backward = apply_patches(corpus, list(reversed(patches)))
        assert forward == backward


class TestDetectCoordination:
    def test_neither_nor_is_flagged(self):
        corpus = Corpus((coordination_sentence(),))
        (patch,) = detect_coordination_cues(corpus)
        assert len(patch.replacement) == 2

    def test_continuous_multiword_cue_is_not_flagged(self):
        surfaces = ["There", "are", "no", "more", "problems"]
        tokens = tuple(Token(i, s) for i, s in enumerate(surfaces))
        cue = frozenset({AnnotationElement(2), AnnotationElement(3)})
        sent = Sentence("d", 0, tokens, (NegationInstance(cue),))
        assert detect_coordination_cues(Corpus((sent,))) == []

    def test_discontinuous_non_lexicon_cue_is_not_flagged(self):
        surfaces = ["by", "no", "stretch", "means", "possible"]
        tokens = tuple(Token(i, s) for i, s in enumerate(surfaces))
        cue = frozenset({AnnotationElement(1), AnnotationElement(3)})
        sent = Sentence("d", 0, tokens, (NegationInstance(cue),))
        assert detect_coordination_cues(Corpus((sent,))) == []

    def test_corpus_without_multiword_cues(self, gold_corpus):
        assert detect_coordination_cues(gold_corpus) == []


class TestPatchFile:
    def test_format_then_parse_round_trip(self):
        corpus = Corpus((coordination_sentence(),))
        patches = detect_coordination_cues(corpus)
        text = format_patch_file(corpus, patches)
        again = parse_patch_file(text, corpus)
        assert len(again) == 1
        assert again[0].target == patches[0].target
        assert [instance_sets(i) for i in again[0].replacement] == [
            instance_sets(i) for i in patches[0].replacement
        ]

    def test_apply_via_file_matches_direct_apply(self):
        corpus = Corpus((coordination_sentence(),))
        patches = detect_coordination_cues(corpus)
        text = format_patch_file(corpus, patches)
        assert apply_patches(corpus, parse_patch_file(text, corpus)) == apply_patches(corpus, patches)

    def test_a_patch_without_a_replacement_is_not_written(self):
        corpus = Corpus((coordination_sentence(),))
        (patch,) = detect_coordination_cues(corpus)
        with pytest.raises(UsageError) as err:
            format_patch_file(corpus, [patch, ReannotationPatch("cd", 7, 0, ())])
        assert str(err.value) == "cannot write the patch of ('cd', 7, 0): it has no replacement instance"
        assert format_patch_file(corpus, [patch]) == (
            "target\tcd\t7\t0\n"
            "replace\tNeither\t_\t_\t_\tMary\t_\t_\t_\t_\t_\tSam\t_\t_\tlike\t_\t_\tpizza\t_\n"
            "replace\t_\t_\t_\t_\tMary\t_\tnor\t_\t_\t_\tSam\t_\t_\tlike\t_\t_\tpizza\t_\n"
        )

    def test_bad_cell_count_is_a_parse_error(self):
        corpus = Corpus((coordination_sentence(),))
        text = "target\tcd\t7\t0\nreplace\t_\t_\n"
        with pytest.raises(ParseError):
            parse_patch_file(text, corpus)

    def test_formatting_a_patch_for_an_unknown_sentence_is_a_patch_error(self):
        corpus = Corpus((coordination_sentence(),))
        (patch,) = detect_coordination_cues(corpus)
        with pytest.raises(PatchError) as err:
            format_patch_file(corpus, [ReannotationPatch("cd", 99, 0, patch.replacement)])
        assert str(err.value) == "patch targets unknown sentence cd#99"

    @pytest.mark.parametrize(
        "instance_id, message",
        [(5, "patch targets unknown instance cd#7/5"), (0, "two patches target instance cd#7/0")],
        ids=["unknown-instance", "repeated"],
    )
    def test_a_refused_target_is_neither_written_nor_applied(self, instance_id, message):
        corpus = Corpus((coordination_sentence(),))
        (patch,) = detect_coordination_cues(corpus)
        second = ReannotationPatch("cd", 7, instance_id, patch.replacement)
        for call in (format_patch_file, apply_patches):
            with pytest.raises(PatchError) as err:
                call(corpus, [patch, second])
            assert str(err.value) == message

    def test_unknown_sentence_is_a_parse_error(self):
        corpus = Corpus((coordination_sentence(),))
        text = "target\tcd\t99\t0\nreplace\t" + "\t".join(["_"] * 18) + "\n"
        with pytest.raises(ParseError):
            parse_patch_file(text, corpus)

    @pytest.mark.parametrize(
        "instance_id, message",
        [(5, "p.patch:4: unknown instance cd#7/5"), (0, "p.patch:4: two patches target instance cd#7/0")],
        ids=["unknown-instance", "repeated"],
    )
    def test_a_refused_target_is_a_parse_error_at_its_target_line(self, instance_id, message):
        corpus = Corpus((coordination_sentence(),))
        text = f"target\tcd\t7\t0\nreplace\t{self._CELLS}\n\ntarget\tcd\t7\t{instance_id}\nreplace\t{self._CELLS}\n"
        with pytest.raises(ParseError) as err:
            parse_patch_file(text, corpus, source="p.patch")
        assert str(err.value) == message


    _CELLS = "\t".join(["Neither", "_", "_", "_", "Mary", "_"] + ["_", "_", "_"] * 4)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a whitespace-only line ends a block; a comment line does not
            ("target\tcd\t7\t0\n# note\n\t \r\ntarget\tcd\t7\t1\n", "p:1: patch block without replace lines"),
            (f"target\tcd\t7\t0\r\nreplace\t{_CELLS}\r\n \nreplace\t{_CELLS}\n", "p:4: replace line before any target line"),
            (f"target\tcd\t7\t0\nreplace\t{_CELLS}\ntarget\tcd\t7\t1\n", "p:3: patch block without replace lines"),
            (f"\n\ntarget\tcd\t7\t0\nreplace\t{_CELLS}\nretarget\n", "p:5: unknown patch directive 'retarget'"),
        ],
    )
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_patch_file(text, two_instance_corpus(), source="p")
        assert str(err.value) == message

    def test_blocks_end_at_blank_lines(self):
        corpus = two_instance_corpus()
        text = (
            f"# drafts\r\ntarget\tcd\t7\t0\r\nreplace\t{self._CELLS}\r\n\x0c\r\n"
            f"target\tcd\t7\t1\nreplace\t{self._CELLS}\nreplace\t{self._CELLS}\n"
        )
        patches = parse_patch_file(text, corpus)
        assert [(p.target, len(p.replacement)) for p in patches] == [(("cd", 7, 0), 1), (("cd", 7, 1), 2)]


def instance_sets(inst):
    return (inst.cue, inst.scope, inst.event)


def test_patch_files_round_trip_every_set():
    from test_reference_scorer import corpus_pair

    affixes = 0
    for seed in range(200):
        for corpus in corpus_pair(seed):
            patches = [
                ReannotationPatch(s.doc_id, s.sent_index, 0, tuple(i for i in s.instances if i.cue))
                for s in corpus.sentences
                if any(i.cue for i in s.instances)
            ]
            again = parse_patch_file(format_patch_file(corpus, patches), corpus)
            assert [p.target for p in again] == [p.target for p in patches], seed
            for got, want in zip(again, patches):
                assert list(map(instance_sets, got.replacement)) == list(map(instance_sets, want.replacement)), seed
            affixes += any(e.text for p in patches for i in p.replacement for e in (*i.cue, *i.scope))
    assert affixes > 50


def test_writers_refuse_two_elements_of_one_set_on_one_token():
    from negeval import UsageError, element_for, write_sem_conll

    tokens = (Token(0, "unbelievable"), Token(1, "claims"))
    cue = frozenset({element_for(tokens[0], (0, 2)), element_for(tokens[0], (8, 12))})
    sent = Sentence("d", 0, tokens, (NegationInstance(cue, frozenset({AnnotationElement(1)})),))
    corpus = Corpus((sent,))
    message = r"^cannot write sentence \('d', 0\): instance 0 has two cue elements on token 0$"
    with pytest.raises(UsageError, match=message):
        write_sem_conll(corpus)
    with pytest.raises(UsageError, match=message):
        format_patch_file(corpus, [ReannotationPatch("d", 0, 0, sent.instances)])
