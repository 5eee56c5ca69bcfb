#!/usr/bin/env python3
"""Walkthrough: the paper's two contrasts, run on generated systems.

One generated gold corpus and two systems that find every cue.  System L
keeps the gold scope of each instance whose scope is longer than the
median and predicts an empty scope for the rest; system S does the
reverse.  The paper's two arguments for instance-based scores then show
on data:

- ST lets long scopes dominate: it ranks L first, while Inst-tok F1, which
  counts every negation once, ranks S first;
- the legacy SCM precision leaves out of its denominator what it does not
  count as an error, so it reads 100% for both systems, as does Inst-tok
  precision (an empty predicted scope scores per-instance precision 1),
  while SCM-B precision divides by every prediction.
"""

import random
import statistics

from negeval import Corpus, NegationInstance, Sentence, full_report
from negeval.testing import random_corpus


def gold_corpus() -> Corpus:
    # cues and scopes of random_corpus never hold punctuation, so stripping drops nothing
    return random_corpus(random.Random(5), max_sentences=400, max_tokens=30, max_instances=2, n_docs=4, name="gold")


def with_scopes(gold: Corpus, keep, name: str) -> Corpus:
    """Every gold cue, with the gold scope where ``keep(scope)`` holds and an
    empty scope elsewhere."""
    sentences = []
    for sent in gold.sentences:
        instances = tuple(
            NegationInstance(inst.cue, inst.scope if keep(inst.scope) else frozenset(), instance_id=inst.instance_id)
            for inst in sent.instances
        )
        sentences.append(Sentence(sent.doc_id, sent.sent_index, sent.tokens, instances))
    return Corpus(tuple(sentences), name)


def systems(gold: Corpus) -> tuple[Corpus, Corpus]:
    """Systems L and S of the module docstring."""
    median = statistics.median(len(inst.scope) for sent in gold.sentences for inst in sent.instances)
    long_only = with_scopes(gold, lambda scope: len(scope) > median, "L")
    short_only = with_scopes(gold, lambda scope: len(scope) <= median, "S")
    return long_only, short_only


def pct(value: float) -> str:
    return f"{100 * value:5.1f}"


def main():
    gold = gold_corpus()
    scopes = [len(inst.scope) for sent in gold.sentences for inst in sent.instances]
    print(f"gold: {len(gold)} sentences, {len(scopes)} instances, median scope {statistics.median(scopes)} tokens")
    reports = {pred.name: full_report(gold, pred) for pred in systems(gold)}

    print()
    print("system   ST F1  Inst-tok F1  SCM P  SCM-B P  Inst-tok P")
    for name, report in reports.items():
        m = report.metrics
        print(
            f"{name:>6}   {pct(m['st'].f1)}  {pct(m['inst_tok'].f1):>11}  {pct(m['scm'].precision)}"
            f"  {pct(m['scm_b'].precision):>7}  {pct(m['inst_tok'].precision):>10}"
        )

    def first(metric: str) -> str:
        return max(reports, key=lambda name: reports[name].metrics[metric].f1)

    print()
    print(f"ST ranks {first('st')} first: the long scopes carry most of the gold's scope tokens.")
    print(f"Inst-tok ranks {first('inst_tok')} first: every negation counts once.")
    print("SCM and Inst-tok precision read 100% for both systems;")
    print("SCM-B precision shows the share of predicted scopes that are right.")


if __name__ == "__main__":
    main()
