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
from dataclasses import dataclass, field

from .alignment import CueMatchMode, _check_tokens, _match, _sentence_pairs, _sort_key
from .metrics import EXACT_SCORER, PRF, TOKEN_SCORER, SentenceAccuracy, _Tally, percent
from .model import Corpus, _gc_paused, _kept_instances, _punct_indices

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

#: Report keys in presentation order (the text table mirrors this).
METRIC_ORDER = (
    "cues_exact",
    "cues_exact_b",
    "cues_partial",
    "cues_partial_b",
    "scm",
    "scm_b",
    "st",
    "inst_tok",
    "inst_ex",
)

_LABELS = {
    "cues_exact": "Cues",
    "cues_exact_b": "Cues-B",
    "cues_partial": "Cues (partial)",
    "cues_partial_b": "Cues-B (partial)",
    "scm": "SCM",
    "scm_b": "SCM-B",
    "st": "ST",
    "inst_tok": "Inst-tok",
    "inst_ex": "Inst-ex",
}


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
        """A copy restricted to the named metrics (CNS is always kept)."""
        unknown = sorted(set(keys) - set(self.metrics))
        if unknown:
            raise KeyError(f"unknown metrics: {unknown}; known: {sorted(self.metrics)}")
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
        headline_keys = ("cues_exact_b", "scm", "scm_b", "st", "inst_tok")
        if all(key in self.metrics for key in headline_keys):
            header = ["Cues-B", "SCM", "SCM-B", "ST P", "ST R", "ST F1", "Inst P", "Inst R", "Inst F1", "CNS"]
            row = [
                f"{percent(self.metrics['cues_exact_b'].f1):.1f}",
                f"{percent(self.metrics['scm'].f1):.1f}",
                f"{percent(self.metrics['scm_b'].f1):.1f}",
                f"{percent(self.metrics['st'].precision):.1f}",
                f"{percent(self.metrics['st'].recall):.1f}",
                f"{percent(self.metrics['st'].f1):.1f}",
                f"{percent(self.metrics['inst_tok'].precision):.1f}",
                f"{percent(self.metrics['inst_tok'].recall):.1f}",
                f"{percent(self.metrics['inst_tok'].f1):.1f}",
                f"{percent(self.sentence_accuracy.ratio):.1f}",
            ]
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


def _count(gold: Corpus, pred: Corpus, keep_punct: bool, cns_all_sentences: bool) -> _Tally:
    """Every count of a report, in one walk over the paired sentences.

    Each pair is checked, stripped (unless ``keep_punct``), sorted once and
    matched in both cue-match modes, as ``strip_punctuation`` and
    ``align_corpus`` would do it, and its counts go straight to the tally.
    """
    tally = _Tally((TOKEN_SCORER, EXACT_SCORER))
    for g_sent, p_sent in _sentence_pairs(gold, pred):
        _check_tokens(g_sent, p_sent)
        g_inst, p_inst = g_sent.instances, p_sent.instances
        if not keep_punct and (g_inst or p_inst):
            punct = _punct_indices(g_sent.tokens)
            g_inst = _kept_instances(g_sent, punct)
            if p_sent.tokens is not g_sent.tokens:
                punct = _punct_indices(p_sent.tokens)
            p_inst = _kept_instances(p_sent, punct)
        tally.add_sentence(g_inst, p_inst, cns_all_sentences)
        if g_inst or p_inst:
            g_order = sorted(g_inst, key=_sort_key)
            p_order = sorted(p_inst, key=_sort_key)
            matched, unmatched_gold, unmatched_pred, partial_only = _match(g_order, p_order, CueMatchMode.EXACT)
            tally.add(CueMatchMode.EXACT, matched, unmatched_gold, unmatched_pred, partial_only)
            tally.add_scopes(matched, unmatched_gold, unmatched_pred)
            tally.add(CueMatchMode.PARTIAL, *_match(g_order, p_order, CueMatchMode.PARTIAL))
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
    objects but creates no reference cycles.
    """
    tally = _count(gold, pred, keep_punct, cns_all_sentences)
    metrics = {
        "cues_exact": tally.cue_prf(CueMatchMode.EXACT, "standard"),
        "cues_exact_b": tally.cue_prf(CueMatchMode.EXACT, "b"),
        "cues_partial": tally.cue_prf(CueMatchMode.PARTIAL, "standard"),
        "cues_partial_b": tally.cue_prf(CueMatchMode.PARTIAL, "b"),
        "scm": tally.scope_match_prf("standard"),
        "scm_b": tally.scope_match_prf("b"),
        "st": tally.scope_tokens_prf(),
        "inst_tok": tally.instance_prf(TOKEN_SCORER),
        "inst_ex": tally.instance_prf(EXACT_SCORER),
    }
    metadata = {
        "gold": gold.name,
        "pred": pred.name,
        "punctuation": "kept" if keep_punct else "stripped",
        "cns_denominator": "all" if cns_all_sentences else "gold-negation",
    }
    return MetricReport(metrics=metrics, sentence_accuracy=tally.sentence_accuracy(), metadata=metadata)
