"""Spans around calls into negeval's modules, installed from outside the package.

A ``Tracer`` replaces each measured public function with a wrapper that
records a span: name, start, end, parent span and operation id.  ``cli`` and
``report`` import these functions by name, so a wrapper is installed on
every module that holds a reference, not only where the function is
defined.  Spans stay in memory until ``dump``.

Counts (sentences parsed, elements stripped, edges encoded, ...) are taken
from the arguments and results of the traced calls as each call returns.
The span clock stops while counting, so counting adds nothing to any
layer's time; it shows only in the operation's wall time.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict

import negeval.cli
import negeval.conll
import negeval.report
from negeval.report import MetricReport


def _instances(corpus) -> int:
    return sum(len(s.instances) for s in corpus.sentences)


def _elements(corpus) -> int:
    return sum(
        len(i.cue) + len(i.scope) + len(i.event) for s in corpus.sentences for i in s.instances
    )


def _graph_edges(text: str) -> int:
    edges = 0
    for line in text.split("\n"):
        cells = line.split("\t")
        if len(cells) == 3 and cells[2] != "_":
            edges += cells[2].count("|") + 1
    return edges


def _parse_counts(args, kwargs, result) -> dict:
    return {
        "conll.parse_sem_conll.sentences": len(result.sentences),
        "conll.parse_sem_conll.tokens": sum(len(s.tokens) for s in result.sentences),
    }


def _strip_counts(args, kwargs, result) -> dict:
    (corpus,) = args
    return {
        "model.strip_punctuation.elements_removed": _elements(corpus) - _elements(result),
        "model.strip_punctuation.instances_dropped": _instances(corpus) - _instances(result),
    }


def _align_counts(args, kwargs, result) -> dict:
    if _align_name(args, kwargs) != "alignment.align_corpus.exact":
        return {}
    return {
        "alignment.exact.matched": sum(len(a.matched) for a in result),
        "alignment.exact.gold": sum(a.n_gold for a in result),
    }


def _write_counts(args, kwargs, result) -> dict:
    return {"conll.write_sem_conll.bytes": len(result.encode("utf-8"))}


def _encode_counts(args, kwargs, result) -> dict:
    return {"depgraph.edges": _graph_edges(result)}


def _align_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", negeval.report.CueMatchMode.EXACT)
    return f"alignment.align_corpus.{mode.value}"


# (module, attribute, span name, counter).  A span name that is a function
# takes the call's arguments.  Rendering the report as JSON goes through
# MetricReport.render or straight to MetricReport.to_json; both are
# "report.render", and self time keeps a nested pair from counting twice.
_TARGETS = (
    (negeval.conll, "parse_sem_conll", "conll.parse_sem_conll", _parse_counts),
    (negeval.cli, "validate", "model.validate", None),
    (negeval.cli, "strip_punctuation", "model.strip_punctuation", _strip_counts),
    (negeval.report, "strip_punctuation", "model.strip_punctuation", _strip_counts),
    (negeval.report, "align_corpus", _align_name, _align_counts),
    (negeval.report, "cue_scores", "metrics.cue_scores", None),
    (negeval.report, "scope_match", "metrics.scope_match", None),
    (negeval.report, "scope_tokens", "metrics.scope_tokens", None),
    (negeval.report, "instance_scores", "metrics.instance_scores", None),
    (negeval.report, "correct_sentence_ratio", "metrics.correct_sentence_ratio", None),
    (negeval.cli, "full_report", "report.full_report", None),
    (negeval.report, "full_report", "report.full_report", None),
    (MetricReport, "render", "report.render", None),
    (MetricReport, "to_json", "report.render", None),
    (negeval.cli, "write_sem_conll", "conll.write_sem_conll", _write_counts),
    (negeval.cli, "encode_corpus", "depgraph.encode_corpus", _encode_counts),
    (negeval.cli, "decode_corpus", "depgraph.decode_corpus", None),
)

class Tracer:
    """Records spans and garbage-collection time for traced operations."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0
        self._counts: dict[str, int] = defaultdict(int)
        self._paused = 0.0  # time spent counting, hidden from the span clock
        self._saved: list[tuple] = []
        self._gc_start = 0.0
        self._gc_s = 0.0
        self._gc_gen2 = 0
        self._first_span = 0
        self._op_paused = 0.0

    # -- spans -----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self.origin - self._paused

    def _open(self, name: str) -> int:
        self.spans.append(
            {
                "op": self._op,
                "name": name,
                "start": self._now(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
            }
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = self._now()
        self._stack.pop()

    def call(self, span_name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        index = self._open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrapper(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            result = self.call(span_name, fn, *args, **kwargs)
            if counter is not None:
                start = time.perf_counter()
                for key, value in counter(args, kwargs, result).items():
                    self._counts[key] += value
                self._paused += time.perf_counter() - start
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name, counter in _TARGETS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapper(original, name, counter))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self._gc_s += time.perf_counter() - self._gc_start
        self._gc_gen2 += info["generation"] == 2

    # -- operations ------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._gc_s = 0.0
        self._gc_gen2 = 0
        self._first_span = len(self.spans)
        self._op_paused = self._paused
        self._counts.clear()

    def end_op(self) -> dict:
        """Self time per span name, counts, counting time and GC figures of
        the operation."""
        spans = self.spans[self._first_span :]
        self_s = defaultdict(float)
        for span in spans:
            self_s[span["name"]] += span["end"] - span["start"]
        for span in spans:
            if span["parent"] is not None:
                parent = self.spans[span["parent"]]
                self_s[parent["name"]] -= span["end"] - span["start"]
        return {
            "self_s": dict(self_s),
            "counts": dict(self._counts),
            "counting_s": self._paused - self._op_paused,
            "gc_s": self._gc_s,
            "gc_gen2": self._gc_gen2,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
