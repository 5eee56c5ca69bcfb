"""Seeded synthetic corpora in the size and shape of CD-SCO.

The real CD-SCO files are not bundled, so every workload runs on a corpus
built here from ``--seed``.  Sentences come from
``negeval.testing.random_sentence`` and predictions from
``negeval.testing.perturb_predictions``; a post-pass adds what those
generators lack: affix cues (a sub-token cue such as "un" in "unhappy",
with the stem in the instance's scope, as CD-SCO annotates them),
punctuation inside scopes, and a few predicted instances whose cue is a
punctuation mark, so that stripping punctuation has elements to remove and
instances to drop.  Multiword cues come from ``random_sentence`` itself,
which gives a quarter of its cues two tokens; that share is the
generator's, not a figure checked against CD-SCO.

A generated corpus is valid and representable in the CoNLL format: every
cue, scope and event set holds at most one element per token, because a
CoNLL cell can only hold one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from negeval.model import Corpus, NegationInstance, Sentence, Token, element_for
from negeval.testing import perturb_predictions, random_sentence

#: CD-SCO has 5,520 sentences over its train, dev and test splits.
N_SENTENCES = 5520

#: (surface, affix span, stem span).  Each affix and stem is the first
#: occurrence of its text in the surface, which is how the CoNLL reader maps
#: a cell back to a character range.
_AFFIX_WORDS = (
    ("unhappy", (0, 2), (2, 7)),
    ("impossible", (0, 2), (2, 10)),
    ("careless", (4, 8), (0, 4)),
    ("dislike", (0, 3), (3, 7)),
    ("nonsense", (0, 3), (3, 8)),
    ("irregular", (0, 2), (2, 9)),
    ("hopeless", (4, 8), (0, 4)),
    ("unknown", (0, 2), (2, 7)),
)


#: Sentence length in tokens is drawn from 1 to this.
MAX_TOKENS = 40
#: Chance that a single-token cue becomes an affix cue.  A quarter of
#: random_sentence's cues have two tokens, so 0.13 makes about 10% of all
#: cues affix cues.
AFFIX_PROB = 0.13


@dataclass(frozen=True)
class Shape:
    """The generator's parameters for one workload's corpus."""

    negated_share: float  # share of sentences with at least one instance
    instance_weights: tuple[int, ...]  # weight of 1, 2, ... instances per negated sentence
    punct_prob: float  # chance that a token is punctuation


# CD-SCO has 1,421 instances in its 5,520 sentences (README, "Tests and
# acceptance suite"), in the 22% of sentences that are negated: about 1.16
# per negated sentence.  Weights 860/122/18 on one, two and three instances
# give that mean.
_CDSCO = Shape(0.22, (860, 122, 18), 0.15)
SHAPES = {
    "evaluate-cdsco": _CDSCO,
    # Dense: every sentence negated, fewer sentences the more instances.
    "score-dense": Shape(1.0, (6, 5, 4, 3, 2, 1), 0.25),
    "transcode": _CDSCO,
}


@dataclass(frozen=True)
class Corpora:
    gold: Corpus
    pred: Corpus | None


def _doc_ids(rng: random.Random, n: int) -> list[tuple[str, int]]:
    """(doc id, sentence index) keys for ``n`` sentences in documents of 20-300."""
    keys: list[tuple[str, int]] = []
    doc = 0
    while len(keys) < n:
        length = rng.randint(20, 300)
        keys.extend((f"doc{doc:03d}", i) for i in range(length))
        doc += 1
    return keys[:n]


def _with_affix(rng: random.Random, sent: Sentence) -> Sentence:
    """Turn some single-token cues into affix cues, with the stem in scope."""
    tokens = list(sent.tokens)
    instances = list(sent.instances)
    for k, inst in enumerate(instances):
        if len(inst.cue) == 1 and rng.random() < AFFIX_PROB:
            (cue_element,) = inst.cue
            t = cue_element.token_index
            surface, affix, stem = rng.choice(_AFFIX_WORDS)
            tokens[t] = token = Token(t, surface, surface, "JJ", is_punct=False)
            scope = {e for e in inst.scope if e.token_index != t}
            scope.add(element_for(token, stem))
            instances[k] = replace(
                inst, cue=frozenset({element_for(token, affix)}), scope=frozenset(scope)
            )
    return replace(sent, tokens=tuple(tokens), instances=tuple(instances))


def _with_punct_in_scope(rng: random.Random, sent: Sentence) -> Sentence:
    """Add each punctuation token between a scope's first and last token to
    that scope with chance 1/2."""
    punct = [t.index for t in sent.tokens if t.is_punct]
    instances = list(sent.instances)
    for k, inst in enumerate(instances):
        if inst.scope:
            first = min(e.token_index for e in inst.scope)
            last = max(e.token_index for e in inst.scope)
            inside = [i for i in punct if first < i < last and rng.random() < 0.5]
            if inside:
                added = {element_for(sent.tokens[i]) for i in inside}
                instances[k] = replace(inst, scope=inst.scope | added)
    return replace(sent, instances=tuple(instances))


def _one_per_token(elements: frozenset) -> frozenset:
    """Keep one element per token, preferring the sub-token one."""
    chosen = {}
    for e in elements:
        if e.token_index not in chosen or e.text is not None:
            chosen[e.token_index] = e
    return frozenset(chosen.values())


def _finish_predictions(rng: random.Random, corpus: Corpus) -> Corpus:
    """Make predictions representable, and give 1% of sentences with
    punctuation an extra predicted instance whose cue is a punctuation mark."""
    sentences = []
    for sent in corpus.sentences:
        instances = list(sent.instances)
        for k, inst in enumerate(instances):
            # perturb_predictions toggles whole-token scope elements, which
            # can put a whole token next to an affix stem of the same token.
            scope = _one_per_token(inst.scope)
            if len(scope) < len(inst.scope):
                instances[k] = replace(inst, scope=scope)
        punct = [t for t in sent.tokens if t.is_punct]
        if punct and rng.random() < 0.01:
            cue = frozenset({element_for(rng.choice(punct))})
            instances.append(NegationInstance(cue=cue, instance_id=len(instances)))
        sentences.append(replace(sent, instances=tuple(instances)))
    return replace(corpus, sentences=tuple(sentences))


def _negated_sentence(rng: random.Random, doc_id: str, index: int, shape: Shape) -> Sentence:
    """A sentence with a number of instances drawn from the shape's weights."""
    weights = shape.instance_weights
    (wanted,) = rng.choices(range(1, len(weights) + 1), weights)
    while True:
        sent = random_sentence(
            rng, doc_id, index,
            max_tokens=MAX_TOKENS, max_instances=len(weights), punct_prob=shape.punct_prob,
        )
        if len(sent.instances) >= wanted:
            return replace(sent, instances=sent.instances[:wanted])


def generate(workload: str, seed: int) -> Corpora:
    """The gold corpus (and predictions, unless the workload is transcode)
    for ``seed``."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    sentences = []
    for doc_id, index in _doc_ids(rng, N_SENTENCES):
        if rng.random() < shape.negated_share:
            sent = _negated_sentence(rng, doc_id, index, shape)
            sent = _with_punct_in_scope(rng, _with_affix(rng, sent))
        else:
            sent = random_sentence(
                rng, doc_id, index,
                max_tokens=MAX_TOKENS, max_instances=0, punct_prob=shape.punct_prob,
            )
        sentences.append(sent)
    gold = Corpus(tuple(sentences), name=f"{workload}-gold-{seed}")
    pred = None
    if workload != "transcode":
        pred = _finish_predictions(rng, perturb_predictions(rng, gold))
    return Corpora(gold, pred)


def shape_of(corpora: Corpora) -> dict:
    """Counts that describe a generated corpus pair."""
    gold = corpora.gold
    tokens = [t for s in gold.sentences for t in s.tokens]
    instances = [i for s in gold.sentences for i in s.instances]
    n_instances = len(instances)

    def share(part: int, whole: int) -> float:
        return round(part / whole, 4) if whole else 0.0

    return {
        "sentences": len(gold.sentences),
        "negated_sentences": sum(1 for s in gold.sentences if s.instances),
        "tokens": len(tokens),
        "gold_instances": n_instances,
        "pred_instances": (
            sum(len(s.instances) for s in corpora.pred.sentences) if corpora.pred else 0
        ),
        "affix_share": share(sum(1 for i in instances if any(e.text for e in i.cue)), n_instances),
        "multiword_share": share(sum(1 for i in instances if len(i.cue) > 1), n_instances),
        "punct_share": share(sum(1 for t in tokens if t.is_punct), len(tokens)),
    }
