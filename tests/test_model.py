from __future__ import annotations

import dataclasses
import pickle
import random
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from negeval import (
    AnnotationElement,
    Corpus,
    Diagnostic,
    NegationInstance,
    Sentence,
    Token,
    element_for,
    strip_punctuation,
    validate,
)
from conftest import fixture_path, outputs_under_hash_seeds
from negeval.conll import parse_sem_conll
from negeval.model import DEFAULT_PUNCT_POS, _punct_flags, _tokens, is_punct_surface
from negeval.testing import random_corpus, random_laminar_sentence, random_sentence


def make_sentence(surfaces, punct=(), instances=()):
    tokens = tuple(
        Token(i, s, None, None, is_punct=i in punct) for i, s in enumerate(surfaces)
    )
    return Sentence("d", 0, tokens, tuple(instances))


class TestElementEquality:
    def test_whole_token_equals_full_cover_subspan(self):
        token = Token(0, "remark")
        assert element_for(token) == element_for(token, (0, 6))
        assert hash(element_for(token)) == hash(element_for(token, (0, 6)))

    def test_subspan_equality_is_by_text(self):
        token = Token(3, "banana")
        a = element_for(token, (1, 3))  # "an"
        b = element_for(token, (3, 5))  # "an"
        assert a == b  # same token, same covered text

    @pytest.mark.parametrize("value, name", [(Token(0, "no"), "surface"), (AnnotationElement(0), "text")])
    def test_frozen_and_without_instance_dict(self, value, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, "x")
        assert not hasattr(value, "__dict__")

    def test_different_tokens_differ(self):
        assert element_for(Token(0, "no")) != element_for(Token(1, "no"))

    @given(st.text(min_size=1, max_size=8), st.integers(0, 7), st.integers(1, 8))
    def test_symmetric_and_consistent_with_hash(self, surface, start, length):
        end = start + length
        if end > len(surface):
            return
        token = Token(0, surface)
        a = element_for(token, (start, end))
        b = element_for(token, (start, end))
        assert a == b and b == a
        assert hash(a) == hash(b)

    def test_whole_token_elements_are_shared_across_parses(self):
        data = fixture_path("roundtrip.conll").read_bytes()
        first, second = parse_sem_conll(data), parse_sem_conll(data)
        (a,) = [e for e in first.sentences[0].instances[0].scope if e.token_index == 0]
        (b,) = [e for e in second.sentences[0].instances[0].scope if e.token_index == 0]
        assert a is b
        fresh = AnnotationElement(0)
        assert fresh is not a and a == fresh and hash(a) == hash(fresh)
        # affix elements stay distinct objects, equal by value
        (im_a,) = first.sentences[0].instances[0].cue
        (im_b,) = second.sentences[0].instances[0].cue
        assert im_a.text == "im"
        assert im_a is not im_b and im_a == im_b
        assert im_a != AnnotationElement(2)

    def test_an_element_is_a_token_index_and_a_text(self):
        assert [f.name for f in dataclasses.fields(AnnotationElement)] == ["token_index", "text"]
        assert element_for(Token(0, "unreal"), (0, 2)) == AnnotationElement(0, "un")

    def test_bad_subspan_rejected(self):
        token = Token(0, "cat")
        for span in ((0, 0), (2, 1), (0, 4), (-1, 2)):
            try:
                element_for(token, span)
            except ValueError:
                continue
            raise AssertionError(f"subspan {span} accepted")


class TestStripPunctuation:
    def test_removes_punct_elements_from_scope(self):
        sent = make_sentence(["He", "made", "remark", "."], punct={3})
        inst = NegationInstance(
            cue=frozenset({AnnotationElement(1)}),
            scope=frozenset({AnnotationElement(0), AnnotationElement(2), AnnotationElement(3)}),
        )
        stripped = strip_punctuation(Corpus((make_sentence(["He", "made", "remark", "."], punct={3}, instances=[inst]),)))
        got = stripped.sentences[0].instances[0]
        assert {e.token_index for e in got.scope} == {0, 2}
        # tokens untouched
        assert stripped.sentences[0].surfaces() == sent.surfaces()

    def test_identity_without_punctuation_in_sets(self):
        sent = make_sentence(["no", "thing"], instances=[
            NegationInstance(frozenset({AnnotationElement(0)}), frozenset({AnnotationElement(1)}))
        ])
        corpus = Corpus((sent,))
        assert strip_punctuation(corpus) == corpus

    def test_sentence_without_instances_is_returned_as_is(self):
        sent = make_sentence(["Yes", "."], punct={1})
        assert strip_punctuation(Corpus((sent,))).sentences[0] is sent

    def test_unchanged_instances_are_kept_as_they_are(self):
        clean = NegationInstance(frozenset({AnnotationElement(0)}), frozenset({AnnotationElement(1)}))
        touched = NegationInstance(
            frozenset({AnnotationElement(3)}),
            frozenset({AnnotationElement(2), AnnotationElement(4)}),
            instance_id=1,
        )
        sent = make_sentence(["no", "x", ",", "not", "y"], punct={2}, instances=[clean, touched])
        (out,) = strip_punctuation(Corpus((sent,))).sentences
        assert out.instances[0] is clean
        assert out.instances[1].cue is touched.cue and out.instances[1].event is touched.event
        assert out.instances[1].scope == {AnnotationElement(4)}
        untouched = make_sentence(["no", "x", ","], punct={2}, instances=[clean])
        assert strip_punctuation(Corpus((untouched,))).sentences[0] is untouched

    def test_non_positional_ids_are_renumbered_where_punctuation_is(self):
        def inst(cue, scope, instance_id):
            return NegationInstance(
                frozenset(map(AnnotationElement, cue)), frozenset(map(AnnotationElement, scope)),
                instance_id=instance_id,
            )

        with_punct = make_sentence(
            ["no", "x", ",", "not", "y"], punct={2}, instances=[inst([0], [1], 5), inst([3], [2, 4], 3)]
        )
        without_punct = Sentence("d", 1, with_punct.tokens[:2], (inst([0], [1], 7),))
        out = strip_punctuation(Corpus((with_punct, without_punct)))
        assert out == Corpus((
            Sentence("d", 0, with_punct.tokens, (inst([0], [1], 0), inst([3], [4], 1))),
            without_punct,
        ))
        assert out.sentences[1] is without_punct

    def test_dropped_instances_are_reported_in_order(self, caplog):
        only_punct = [NegationInstance(frozenset({AnnotationElement(i)}), instance_id=i) for i in (1, 2)]
        sent = make_sentence(["no", "!", "?"], punct={1, 2}, instances=only_punct)
        with caplog.at_level("WARNING", logger="negeval"):
            assert strip_punctuation(Corpus((sent,))).sentences[0].instances == ()
        assert [r.getMessage()[:19] for r in caplog.records] == ["dropping instance 1", "dropping instance 2"]

    def test_drops_instance_with_all_punct_cue(self):
        inst_punct = NegationInstance(cue=frozenset({AnnotationElement(1)}))
        inst_ok = NegationInstance(cue=frozenset({AnnotationElement(0)}), instance_id=1)
        sent = make_sentence(["no", "!"], punct={1}, instances=[inst_punct, inst_ok])
        stripped = strip_punctuation(Corpus((sent,)))
        instances = stripped.sentences[0].instances
        assert len(instances) == 1
        assert {e.token_index for e in instances[0].cue} == {0}
        assert instances[0].instance_id == 0  # renumbered

    def test_idempotent_on_random_corpora(self):
        for seed in range(50):
            corpus = random_corpus(random.Random(seed))
            once = strip_punctuation(corpus)
            assert strip_punctuation(once) == once

    def test_preserves_order_and_ids(self):
        for seed in range(50):
            corpus = random_corpus(random.Random(seed))
            stripped = strip_punctuation(corpus)
            assert [s.key for s in stripped.sentences] == [s.key for s in corpus.sentences]
            for sent in stripped.sentences:
                assert [i.instance_id for i in sent.instances] == list(range(len(sent.instances)))


class TestValidate:
    def test_well_formed_corpus_is_clean(self):
        sent = make_sentence(["no", "scope"], instances=[
            NegationInstance(frozenset({AnnotationElement(0)}), frozenset({AnnotationElement(1)}))
        ])
        assert validate(Corpus((sent,))) == []

    def test_out_of_range_element(self):
        sent = make_sentence(["a", "b", "c", "d", "e"], instances=[
            NegationInstance(frozenset({AnnotationElement(99)}))
        ])
        diags = validate(Corpus((sent,)))
        assert any(d.code == "index-out-of-range" and d.level == "error" for d in diags)

    def test_shared_cue_is_a_warning(self):
        shared = AnnotationElement(0)
        sent = make_sentence(["no", "b"], instances=[
            NegationInstance(frozenset({shared})),
            NegationInstance(frozenset({shared, AnnotationElement(1)}), instance_id=1),
        ])
        diags = validate(Corpus((sent,)))
        assert [d.code for d in diags] == ["overlapping-cues"]
        assert diags[0].level == "warning"

    def test_empty_cue_is_an_error(self):
        sent = make_sentence(["a"], instances=[NegationInstance(cue=frozenset())])
        diags = validate(Corpus((sent,)))
        assert any(d.code == "empty-cue" for d in diags)

    def test_duplicate_sentence_key(self):
        sent = make_sentence(["a"])
        diags = validate(Corpus((sent, sent)))
        assert any(d.code == "duplicate-sentence" for d in diags)

    def test_token_and_element_text_errors(self):
        affix = AnnotationElement(0, "non")
        sent = Sentence("d", 3, (Token(0, "no"), Token(2, "")), (NegationInstance(frozenset({affix}), instance_id=4),))
        assert [str(d) for d in validate(Corpus((sent,)))] == [
            "error[bad-token-index] at d#3: token 1 carries index 2",
            "error[empty-surface] at d#3: token 1 has empty surface",
            "error[bad-element-text] at d#3/instance 4: element on token 0: "
            "annotation cell 'non' is not a substring of token 'no'",
        ]
        assert str(Diagnostic("warning", "w", "a finding")) == "warning[w]: a finding"

    def test_whole_surface_text_is_an_error(self):
        # such a gold cue would score as a miss against the whole-token cue
        # that every reader builds for the same cell
        tokens = (Token(0, "not"), Token(1, "here"))
        gold = NegationInstance(frozenset({AnnotationElement(0, "not")}), frozenset({AnnotationElement(1)}))
        pred = NegationInstance(frozenset({AnnotationElement(0)}), frozenset({AnnotationElement(1)}))
        assert [str(d) for d in validate(Corpus((Sentence("d", 0, tokens, (gold,)),)))] == [
            "error[bad-element-text] at d#0/instance 0: element on token 0: "
            "annotation cell 'not' is the whole token, which an element without text covers"
        ]
        assert validate(Corpus((Sentence("d", 0, tokens, (pred,)),))) == []

    def test_findings_come_in_one_order_under_every_hash_seed(self):
        script = (
            "from negeval import *\n"
            "cue = frozenset(AnnotationElement(i, 'ab') for i in range(2, 9))\n"
            "sent = Sentence('d', 0, (Token(0, 'ab'),), (NegationInstance(cue),))\n"
            "print(*validate(Corpus((sent,))), sep='\\n')\n"
        )
        ((code, out, err),) = outputs_under_hash_seeds(["-c", script])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"error[index-out-of-range] at d#0/instance 0: element references token {i} in a 1-token sentence"
            for i in range(2, 9)
        ]


# ---------------------------------------------------------------------------
# Token is the plain dataclass that ReferenceToken spells out


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceToken:
    """``Token`` as the generated dataclass would build it."""

    index: int
    surface: str
    lemma: str | None = None
    pos: str | None = None
    is_punct: bool = False


_TOKEN_ARGUMENTS = [
    ((0, "no"), {}),
    ((3, "Not", "not", "RB", False), {}),
    ((1, ","), {"is_punct": True}),
    ((), {"index": 2, "surface": "un", "pos": "JJ"}),
    ((5,), {"surface": "x", "lemma": None, "is_punct": True, "pos": None}),
]


class TestTokenContract:
    @pytest.mark.parametrize("args, kwargs", _TOKEN_ARGUMENTS)
    def test_construction_repr_equality_and_hash(self, args, kwargs):
        token, reference = Token(*args, **kwargs), ReferenceToken(*args, **kwargs)
        assert dataclasses.astuple(token) == dataclasses.astuple(reference)
        assert repr(token) == repr(reference).replace("ReferenceToken", "Token")
        assert hash(token) == hash(reference)
        assert token == Token(*args, **kwargs) and token != ReferenceToken(*args, **kwargs)
        assert token != dataclasses.replace(token, surface=token.surface + "!")

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((0,), {}), ((0, "a", None, None, False, "extra"), {}), ((0, "a"), {"tag": "X"}),
         ((0, "a"), {"index": 1})],
    )
    def test_bad_arguments_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            ReferenceToken(*args, **kwargs)
        with pytest.raises(TypeError):
            Token(*args, **kwargs)

    def test_dataclass_metadata(self):
        assert Token.__match_args__ == ReferenceToken.__match_args__
        assert [(f.name, f.default, f.init, f.compare) for f in dataclasses.fields(Token)] == [
            (f.name, f.default, f.init, f.compare) for f in dataclasses.fields(ReferenceToken)
        ]
        assert Token.__slots__ == ReferenceToken.__slots__
        match Token(4, "nor", is_punct=False):
            case Token(index, surface, lemma, pos, is_punct):
                assert (index, surface, lemma, pos, is_punct) == (4, "nor", None, None, False)

    def test_replace_and_pickle(self):
        token = Token(1, "never", "never", "RB")
        assert dataclasses.replace(token, pos=None, is_punct=True) == Token(1, "never", "never", None, True)
        copy = pickle.loads(pickle.dumps(token))
        assert copy == token and copy is not token

    @pytest.mark.parametrize("name", ["index", "surface", "lemma", "pos", "is_punct"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        token = Token(0, "no")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(token, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(token, name)
        assert token == Token(0, "no")


# ---------------------------------------------------------------------------
# _tokens, the one token builder of the package

_SURFACES = ("no", "not", "cat", "x1", "é", ",", ".", "...", "(", "--")
_TAGS = ("NN", "RB", "X", ",", ".", "PUNCT", "HYPH")


def test_tokens_are_the_tokens_token_builds_with_the_punctuation_rule():
    rng = random.Random(25)
    seen: Counter[str] = Counter()
    for case in range(2000):
        n = rng.randrange(12)
        surfaces = rng.choices(_SURFACES, k=n)
        lemmas = rng.choice([None, list(surfaces), rng.choices((None, *_SURFACES), k=n)])
        tags = rng.choice([None, rng.choices(_TAGS, k=n), rng.choices((None, *_TAGS), k=n)])
        tokens = _tokens(surfaces, lemmas, tags)
        twins = tuple(
            Token(i, s, None if lemmas is None else lemmas[i], None if tags is None else tags[i], flag)
            for i, (s, flag) in enumerate(zip(surfaces, _punct_flags(surfaces, tags)))
        )
        assert tokens == twins, f"case {case}"
        assert list(map(hash, tokens)) == list(map(hash, twins)), f"case {case}"
        seen["no lemma column"] += lemmas is None
        seen["some lemmas missing"] += lemmas is not None and None in lemmas
        seen["no tag column"] += tags is None
        seen["some tags missing"] += tags is not None and None in tags and len(set(tags)) > 1
        for token in tokens:
            with pytest.raises(dataclasses.FrozenInstanceError):
                token.is_punct = not token.is_punct
            if token.pos in DEFAULT_PUNCT_POS:
                seen["punctuation by tag"] += 1
            elif token.pos is None and token.is_punct:
                seen["punctuation by surface"] += 1
            elif is_punct_surface(token.surface) and not token.is_punct:
                seen["punctuation surface under a word tag"] += 1
    assert len(seen) == 7 and min(seen.values()) > 100, seen


def test_the_generators_flag_punctuation_by_the_rule_of_their_tags():
    rng = random.Random(3)
    punct = 0
    for _ in range(200):
        for sent in (random_sentence(rng, "d", 0, punct_prob=0.3), random_laminar_sentence(rng)):
            surfaces, tags = [t.surface for t in sent.tokens], [t.pos for t in sent.tokens]
            flags = [t.is_punct for t in sent.tokens]
            assert flags == _punct_flags(surfaces, tags) == list(map(is_punct_surface, surfaces))
            punct += sum(flags)
    assert punct > 100


# ---------------------------------------------------------------------------
# Punctuation by surface


def _category_only(surface: str) -> bool:
    return bool(surface) and all(unicodedata.category(ch).startswith("P") for ch in surface)


def test_punct_surface_matches_the_categories_on_every_code_point():
    chars = list(map(chr, range(sys.maxunicode + 1)))
    found = list(map(is_punct_surface, chars))
    expected = [unicodedata.category(ch)[0] == "P" for ch in chars]
    assert [hex(ord(ch)) for ch, a, b in zip(chars, found, expected) if a != b] == []


def test_punct_surface_matches_the_categories_on_random_strings():
    # letters and digits of several scripts, number forms, marks, symbols,
    # spaces and punctuation
    pool = "aZß漢Σ٣7Ⅻ½²́_-.,!?¿«»—…'\"()[]$%+<>© \t  "
    rng = random.Random(0)
    kinds = set()
    for _ in range(3000):
        surface = "".join(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        expected = _category_only(surface)
        assert is_punct_surface(surface) == expected, repr(surface)
        kinds.add((expected, surface.isalnum()))
    assert kinds == {(True, False), (False, False), (False, True)}
