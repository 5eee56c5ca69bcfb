"""Assembling and serialising the full suite of evaluation scores.

``full_report`` strips punctuation, aligns gold and predicted instances
under both cue-match modes, and computes every metric the package provides,
all in one pass over the sentence pairs.
Reports serialise to JSON (nested objects with raw ratios and counts), TSV
(one row per metric) and an aligned text table; identical inputs always
produce byte-identical output.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from operator import methodcaller

from .alignment import CueMatchMode, _match, _sentence_pairs
from .errors import UsageError
from .metrics import EXACT_SCORER, PRF, TOKEN_SCORER, SentenceAccuracy, _Tally, percent
from .model import Corpus, _gc_paused, _punct_indices, _records

# full_report no longer calls these, but they stay importable from here:
# perfbench/tracing.py installs its spans on this module's names.
from .alignment import align_corpus  # noqa: E402,F401
from .metrics import (  # noqa: E402,F401
    correct_sentence_ratio,
    cue_scores,
    instance_scores,
    scope_match,
    scope_tokens,
)
from .model import strip_punctuation  # noqa: E402,F401

SCHEMA_VERSION = 1

#: Every metric of a report, in presentation order: its key, its label in
#: the text table, and how ``full_report`` reads it from the tally.
_METRICS = (
    ("cues_exact", "Cues", methodcaller("cue_prf", CueMatchMode.EXACT, "standard")),
    ("cues_exact_b", "Cues-B", methodcaller("cue_prf", CueMatchMode.EXACT, "b")),
    ("cues_partial", "Cues (partial)", methodcaller("cue_prf", CueMatchMode.PARTIAL, "standard")),
    ("cues_partial_b", "Cues-B (partial)", methodcaller("cue_prf", CueMatchMode.PARTIAL, "b")),
    ("scm", "SCM", methodcaller("scope_match_prf", "standard")),
    ("scm_b", "SCM-B", methodcaller("scope_match_prf", "b")),
    ("st", "ST", methodcaller("scope_tokens_prf")),
    ("inst_tok", "Inst-tok", methodcaller("instance_prf", TOKEN_SCORER)),
    ("inst_ex", "Inst-ex", methodcaller("instance_prf", EXACT_SCORER)),
)

#: Report keys in presentation order.
METRIC_ORDER = tuple(key for key, _, _ in _METRICS)

_LABELS = {key: label for key, label, _ in _METRICS}

#: The text table's headline, before its CNS column: each column's label,
#: and the metric and ``PRF`` field it shows.
_HEADLINE = (
    ("Cues-B", "cues_exact_b", "f1"),
    ("SCM", "scm", "f1"),
    ("SCM-B", "scm_b", "f1"),
    ("ST P", "st", "precision"),
    ("ST R", "st", "recall"),
    ("ST F1", "st", "f1"),
    ("Inst P", "inst_tok", "precision"),
    ("Inst R", "inst_tok", "recall"),
    ("Inst F1", "inst_tok", "f1"),
)


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for dicts with string keys, lists and leaves.

    The layout is built here and ``json.dumps`` only sees leaves, because its
    pure-Python ``indent`` encoder leaves a reference cycle of closures
    behind on every call.
    """
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            items = [
                f"{inner}{json.dumps(key)}: {_json_text(item, inner)}" for key, item in value.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + indent + "}"
        items = [inner + _json_text(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


@dataclass(frozen=True)
class MetricReport:
    metrics: dict[str, PRF]
    sentence_accuracy: SentenceAccuracy
    metadata: dict[str, object] = field(default_factory=dict)

    def _keys(self) -> list[str]:
        ordered = [key for key in METRIC_ORDER if key in self.metrics]
        ordered += [key for key in self.metrics if key not in METRIC_ORDER]
        return ordered

    def select(self, keys) -> "MetricReport":
        """A copy restricted to the named metrics (CNS is always kept).
        Raises :class:`UsageError` for a name that is not a metric."""
        unknown = sorted(set(keys) - set(self.metrics))
        if unknown:
            raise UsageError(f"unknown metrics: {unknown}; known: {sorted(self.metrics)}")
        return MetricReport(
            metrics={k: self.metrics[k] for k in self._keys() if k in set(keys)},
            sentence_accuracy=self.sentence_accuracy,
            metadata=self.metadata,
        )

    def _payload(self) -> dict:
        """The JSON document as plain dicts, lists and leaves."""
        return {
            "schema_version": SCHEMA_VERSION,
            "metadata": self.metadata,
            "metrics": {key: self.metrics[key].as_dict() for key in self._keys()},
            "sentence_accuracy": {
                "correct": self.sentence_accuracy.correct,
                "total": self.sentence_accuracy.total,
                "ratio": self.sentence_accuracy.ratio,
                "percent": percent(self.sentence_accuracy.ratio),
            },
        }

    def to_json(self) -> str:
        return _json_text(self._payload()) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        payload = json.loads(text)
        return cls(
            metrics={key: PRF.from_dict(value) for key, value in payload["metrics"].items()},
            sentence_accuracy=SentenceAccuracy(
                payload["sentence_accuracy"]["correct"], payload["sentence_accuracy"]["total"]
            ),
            metadata=payload.get("metadata", {}),
        )

    def to_tsv(self) -> str:
        lines = [f"# schema_version\t{SCHEMA_VERSION}"]
        lines.append("metric\tprecision\trecall\tf1\tpct_p\tpct_r\tpct_f1\tp_num\tp_den\tr_num\tr_den")
        for key in self._keys():
            m = self.metrics[key]
            lines.append(
                "\t".join(
                    [
                        key,
                        repr(m.precision),
                        repr(m.recall),
                        repr(m.f1),
                        f"{percent(m.precision):.1f}",
                        f"{percent(m.recall):.1f}",
                        f"{percent(m.f1):.1f}",
                        repr(m.p_num),
                        repr(m.p_den),
                        repr(m.r_num),
                        repr(m.r_den),
                    ]
                )
            )
        acc = self.sentence_accuracy
        lines.append(
            f"cns\t{acc.ratio!r}\t\t\t{percent(acc.ratio):.1f}\t\t\t{acc.correct}\t{acc.total}\t\t"
        )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table with the classic column order: cue F1, scope-level
        F1s, then P/R/F1 for the token- and instance-level scores."""
        lines = [f"# schema_version {SCHEMA_VERSION}"]
        if all(key in self.metrics for _, key, _ in _HEADLINE):
            header = [label for label, _, _ in _HEADLINE] + ["CNS"]
            ratios = [getattr(self.metrics[key], attr) for _, key, attr in _HEADLINE]
            row = [f"{percent(r):.1f}" for r in (*ratios, self.sentence_accuracy.ratio)]
            widths = [max(len(h), len(v)) for h, v in zip(header, row)]
            lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
            lines.append("")
        lines.append("All metrics:")
        labels = {key: _LABELS.get(key, key) for key in self._keys()}
        label_width = max([len(v) for v in labels.values()] + [3])
        for key in self._keys():
            m = self.metrics[key]
            lines.append(
                f"  {labels[key].ljust(label_width)}  "
                f"P={percent(m.precision):5.1f}  R={percent(m.recall):5.1f}  F1={percent(m.f1):5.1f}"
            )
        acc = self.sentence_accuracy
        lines.append(
            f"  {'CNS'.ljust(label_width)}  {percent(acc.ratio):5.1f}  ({acc.correct}/{acc.total} sentences)"
        )
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "tsv":
            return self.to_tsv()
        return self.to_text()


# The gold side of the corpus ``_count`` last scored, so that scoring a held
# gold again strips, sorts and indexes only the predictions: a weak
# reference to that corpus, the ``keep_punct`` it was scored with, and by
# pair position ``(punctuation indices, sorted records)`` or None.  Entries
# hold for that frozen corpus object only, whose pair at position k is always
# its sentence k.  The reference's callback empties the memo once the gold
# is freed.  A call fills only the entries list it started with, so calls in
# other threads cannot mix corpora or options.
_memo: tuple = (None, None, [])


def _forget(ref: weakref.ref) -> None:
    global _memo
    if _memo[0] is ref:
        _memo = (None, None, [])


def _gold_entries(gold: Corpus, keep_punct: bool) -> list:
    """The memo's entries for ``gold`` scored with ``keep_punct``; a new,
    empty memo unless it already holds that corpus object and option."""
    global _memo
    ref, kept_punct, entries = _memo
    if ref is None or ref() is not gold or kept_punct != keep_punct:
        entries = [None] * len(gold.sentences)
        _memo = (weakref.ref(gold, _forget), keep_punct, entries)
    return entries


def _count(gold: Corpus, pred: Corpus, keep_punct: bool, cns_all_sentences: bool) -> _Tally:
    """Every count of a report, in one walk over the paired sentences.

    Each pair, checked by ``_sentence_pairs``, is turned into records
    (stripped unless ``keep_punct``, as ``strip_punctuation`` would strip it),
    sorted once and matched in both cue-match modes, as ``align_corpus``
    would match it, and its counts go straight to the tally.  No instance is
    rebuilt.  A gold sentence's records and punctuation indices are taken
    from the memo when it holds them for this corpus and option, and put
    there otherwise, unless stripping dropped an instance: that
    sentence's warning is then issued again on every call, in pair order.
    """
    tally = _Tally((TOKEN_SCORER, EXACT_SCORER))
    exact, partial = CueMatchMode.EXACT, CueMatchMode.PARTIAL
    entries = _gold_entries(gold, keep_punct)
    for position, (g_sent, p_sent) in enumerate(_sentence_pairs(gold, pred)):
        if not (g_sent.instances or p_sent.instances):
            tally.add_sentence((), (), cns_all_sentences)
            continue
        entry = entries[position]
        if entry is not None:
            punct, g_rec = entry
        else:
            punct = None if keep_punct else _punct_indices(g_sent.tokens)
            g_rec = _records(g_sent, punct)
            g_rec.sort()
            if len(g_rec) == len(g_sent.instances):
                entries[position] = (punct, g_rec)
        if punct is not None and p_sent.tokens is not g_sent.tokens:
            punct = _punct_indices(p_sent.tokens)
        p_rec = _records(p_sent, punct)
        tally.add_sentence(g_rec, p_rec, cns_all_sentences)
        p_rec.sort()
        matched, unmatched_gold, unmatched_pred, partial_only = _match(g_rec, p_rec, exact)
        tally.add(exact, matched, unmatched_gold, unmatched_pred, partial_only)
        tally.add_scopes(matched, unmatched_gold, unmatched_pred)
        tally.add(partial, *_match(g_rec, p_rec, partial))
    return tally


@_gc_paused()
def full_report(
    gold: Corpus,
    pred: Corpus,
    *,
    keep_punct: bool = False,
    cns_all_sentences: bool = False,
) -> MetricReport:
    """Compute every metric for a gold/predicted corpus pair.

    Counts every metric in one pass over the sentence pairs, with the same
    results as ``strip_punctuation``, ``align_corpus`` in both cue-match
    modes, the metric functions and ``correct_sentence_ratio`` give.  Runs
    with cyclic GC paused, as CLI commands do: scoring allocates many small
    objects but creates no reference cycles.  The stripped, sorted gold
    side of the last ``gold`` scored is kept until that corpus is freed,
    so scoring the same object again does that work only for ``pred``.
    """
    tally = _count(gold, pred, keep_punct, cns_all_sentences)
    metrics = {key: read(tally) for key, _, read in _METRICS}
    metadata = {
        "gold": gold.name,
        "pred": pred.name,
        "punctuation": "kept" if keep_punct else "stripped",
        "cns_denominator": "all" if cns_all_sentences else "gold-negation",
    }
    return MetricReport(metrics=metrics, sentence_accuracy=tally.sentence_accuracy(), metadata=metadata)
