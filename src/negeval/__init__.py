"""negeval: negation resolution corpora, alignment, and evaluation metrics.

The package parses negation-annotated corpora (CoNLL, BioScope XML, SFU
Review XML) into one instance-based model, aligns gold and predicted
instances on their cues, and computes the span- and instance-level scores
used to evaluate negation resolution systems, together with a punctuation
baseline, dependency-graph encodings of the annotations, and dataset
utilities (splits, statistics, re-annotation patches).
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it.  Names are imported on
#: first access (PEP 562), so importing the package, or one module such as
#: ``negeval.cli``, loads only what is used.
_EXPORTS = {
    "alignment": ("CueMatchMode", "InstanceAlignment", "align", "align_corpus"),
    "baseline": ("punct_baseline",),
    "bioscope": ("load_bioscope", "parse_bioscope"),
    "conll": ("dump_sem_conll", "load_sem_conll", "parse_sem_conll", "write_sem_conll"),
    "datatools": (
        "CorpusStats",
        "ReannotationPatch",
        "SplitSpec",
        "apply_patches",
        "corpus_stats",
        "detect_coordination_cues",
        "format_patch_file",
        "parse_patch_file",
        "split_corpus",
    ),
    "depgraph": ("EncodingKind", "NegDepGraph", "decode", "encode"),
    "errors": (
        "AlignmentError",
        "GraphError",
        "NegevalError",
        "ParseError",
        "PatchError",
        "SplitError",
        "UsageError",
    ),
    "metrics": (
        "EXACT_SCORER",
        "PRF",
        "TOKEN_SCORER",
        "ScopeScorer",
        "correct_sentence_ratio",
        "cue_scores",
        "exact_match_scores",
        "instance_scores",
        "percent",
        "scope_match",
        "scope_tokens",
        "token_overlap_scores",
    ),
    "model": (
        "AnnotationElement",
        "Corpus",
        "Diagnostic",
        "NegationInstance",
        "Sentence",
        "Token",
        "element_for",
        "strip_punctuation",
        "validate",
    ),
    "report": ("MetricReport", "full_report"),
    "sfu": ("load_sfu", "parse_sfu"),
    "tokenizer": ("CharSpan", "TokenizerConfig", "tokenize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF, key=str.lower)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
