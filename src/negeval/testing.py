"""Random corpus generators for property tests and examples.

Everything here is driven by an explicit ``random.Random`` so that a seed
pins the corpus exactly.  The generated corpora are small ("micro-corpora")
and valid by construction: contiguous token indices, non-empty disjoint
cues, in-range elements.
"""

from __future__ import annotations

import random

from .model import Corpus, NegationInstance, Sentence, _tokens, element_for, renumber

_WORDS = (
    "the", "a", "cat", "dog", "sat", "saw", "no", "not", "never", "remark",
    "made", "he", "she", "it", "ran", "big", "small", "house", "door", "key",
)
_PUNCT = (",", ".", ";", "!", "?")
_POS_WORD = ("DT", "NN", "VB", "JJ", "PRP", "RB")


def random_sentence(
    rng: random.Random,
    doc_id: str,
    sent_index: int,
    *,
    max_tokens: int = 12,
    max_instances: int = 4,
    punct_prob: float = 0.2,
) -> Sentence:
    n = rng.randint(1, max_tokens)
    surfaces, tags = [], []
    for _ in range(n):
        if rng.random() < punct_prob:
            surface = rng.choice(_PUNCT)
            # PTB-style: sentence-final marks tag as ".", everything else ":"
            tags.append(surface if surface in (",", ".") else ("." if surface in ("!", "?") else ":"))
        else:
            surface = rng.choice(_WORDS)
            tags.append(rng.choice(_POS_WORD))
        surfaces.append(surface)
    # every punctuation tag is in DEFAULT_PUNCT_POS and no word tag is
    tokens = _tokens(surfaces, surfaces, tags)
    non_punct = [t.index for t in tokens if not t.is_punct]
    instances = []
    if non_punct:
        available = list(non_punct)
        rng.shuffle(available)
        for k in range(rng.randint(0, max_instances)):
            cue_size = min(len(available), rng.choice((1, 1, 1, 2)))
            if cue_size == 0:
                break
            cue_idx, available = available[:cue_size], available[cue_size:]
            scope_idx = [i for i in non_punct if rng.random() < 0.4]
            instances.append(
                NegationInstance(
                    cue=frozenset(element_for(tokens[i]) for i in cue_idx),
                    scope=frozenset(element_for(tokens[i]) for i in scope_idx),
                    instance_id=k,
                )
            )
    return Sentence(doc_id=doc_id, sent_index=sent_index, tokens=tokens, instances=tuple(instances))


def random_corpus(
    rng: random.Random,
    *,
    max_sentences: int = 6,
    max_tokens: int = 12,
    max_instances: int = 4,
    punct_prob: float = 0.2,
    n_docs: int = 1,
    name: str = "random",
) -> Corpus:
    sentences = []
    n = rng.randint(1, max_sentences)
    for s in range(n):
        doc_id = f"doc{s % n_docs}"
        sent_index = s // n_docs
        sentences.append(
            random_sentence(
                rng,
                doc_id,
                sent_index,
                max_tokens=max_tokens,
                max_instances=max_instances,
                punct_prob=punct_prob,
            )
        )
    sentences.sort(key=lambda s: s.key)
    return Corpus(tuple(sentences), name=name)


def perturb_predictions(rng: random.Random, gold: Corpus) -> Corpus:
    """A synthetic system output: drops, copies, distorts and invents instances."""
    sentences = []
    for sent in gold.sentences:
        non_punct = [t.index for t in sent.tokens if not t.is_punct]
        predicted = []
        for inst in sent.instances:
            roll = rng.random()
            if roll < 0.15:
                continue  # miss the instance entirely
            cue = inst.cue
            if roll > 0.85 and len(inst.cue) > 1:
                # detect only part of a multiword cue
                cue = frozenset(list(sorted(inst.cue, key=lambda e: e.token_index))[:1])
            scope = set(inst.scope)
            for i in non_punct:
                if rng.random() < 0.2:
                    element = element_for(sent.tokens[i])
                    if element in scope:
                        scope.discard(element)
                    else:
                        scope.add(element)
            predicted.append(NegationInstance(cue=cue, scope=frozenset(scope)))
        used = {e.token_index for inst in predicted for e in inst.cue}
        spare = [i for i in non_punct if i not in used]
        if spare and rng.random() < 0.2:
            cue_token = rng.choice(spare)
            scope = frozenset(
                element_for(sent.tokens[i]) for i in non_punct if rng.random() < 0.3
            )
            predicted.append(
                NegationInstance(cue=frozenset({element_for(sent.tokens[cue_token])}), scope=scope)
            )
        sentences.append(Sentence(sent.doc_id, sent.sent_index, sent.tokens, renumber(predicted)))
    return Corpus(tuple(sentences), name=f"{gold.name}:pred")


def random_laminar_sentence(
    rng: random.Random,
    doc_id: str = "doc0",
    sent_index: int = 0,
    *,
    n_tokens: int = 16,
    depth: int = 3,
) -> Sentence:
    """A sentence whose instances form a laminar (properly nested) family.

    Each nesting level places its cue and scope strictly inside the parent's
    scope, with distinct representatives, so both graph encodings round-trip.
    """
    tokens = _tokens([rng.choice(_WORDS) for _ in range(n_tokens)], None, ["NN"] * n_tokens)
    instances = []

    def build(lo: int, hi: int, level: int) -> None:
        # needs one cue token plus at least one scope token
        if level <= 0 or hi - lo < 3:
            return
        cue_at = rng.randrange(lo, hi - 1)
        scope_lo, scope_hi = cue_at + 1, hi
        scope = list(range(scope_lo, scope_hi))
        instances.append(
            NegationInstance(
                cue=frozenset({element_for(tokens[cue_at])}),
                scope=frozenset(element_for(tokens[i]) for i in scope),
                instance_id=len(instances),
            )
        )
        if rng.random() < 0.8:
            build(scope_lo, scope_hi, level - 1)

    build(0, n_tokens, depth)
    ordered = renumber(sorted(instances, key=lambda i: i.first_cue_index()))
    return Sentence(doc_id, sent_index, tokens, ordered)
