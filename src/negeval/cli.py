"""Command-line front end.

Subcommands: evaluate, compare, baseline, convert, dep-encode, dep-decode,
split, stats, patch, detect-coord.  Input formats are auto-detected (CoNLL
vs. XML, and BioScope vs. SFU by their markup) and can be forced with
``--format``.  All outputs are deterministic byte streams; errors exit
nonzero with a single-line ``negeval: <category>: <message>`` prefix on
stderr; warnings that do not stop a command are ``negeval: warning:
<message>`` lines.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

from . import __version__
from .conll import _decode, load_pair, load_sem_conll, write_sem_conll
from .depgraph import EncodingKind, decode_corpus, encode_corpus
from .errors import (
    AlignmentError,
    GraphError,
    NegevalError,
    ParseError,
    PatchError,
    SplitError,
    UsageError,
)
from .metrics import percent
from .model import Corpus, _gc_paused, strip_punctuation
from .report import METRIC_ORDER, SCHEMA_VERSION, _json_text, full_report

# The readers reject every input that validate reports an error for, so no
# command calls it; it stays importable from here because
# perfbench/tracing.py installs its span on this module's name.
from .model import validate  # noqa: E402,F401

# The XML readers, the tokenizer, datatools and the baseline are imported by
# the commands that use them, so a command loads only the modules it needs.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ALIGNMENT = 3
EXIT_PATCH = 4
EXIT_GRAPH = 5
EXIT_SPLIT = 6
EXIT_IO = 7

_EXIT_CODES = (
    (ParseError, EXIT_PARSE, "parse-error"),
    (AlignmentError, EXIT_ALIGNMENT, "alignment-error"),
    (PatchError, EXIT_PATCH, "patch-error"),
    (GraphError, EXIT_GRAPH, "graph-error"),
    (SplitError, EXIT_SPLIT, "split-error"),
    (UsageError, EXIT_USAGE, "usage-error"),
    (NegevalError, EXIT_USAGE, "error"),
    (OSError, EXIT_IO, "io-error"),
)


def _sniff_format(path: Path) -> str:
    if path.suffix.lower() != ".xml":
        return "conll"
    with open(path, "rb") as handle:
        head = handle.read(4096).decode("utf-8", "replace")
    return "sfu" if "<SENTENCE" in head else "bioscope"


def _format(path: Path, args) -> str:
    return getattr(args, "format", None) or _sniff_format(path)


def _load_corpus(path_text: str, args) -> Corpus:
    path = Path(path_text)
    fmt = _format(path, args)
    if fmt == "conll":
        return load_sem_conll(path)
    if fmt == "bioscope":
        from .bioscope import load_bioscope
        from .tokenizer import TokenizerConfig

        tokenizer = (
            TokenizerConfig.from_file(args.tokenizer) if getattr(args, "tokenizer", None) else None
        )
        return load_bioscope(path, tokenizer)
    # fmt is "sfu": argparse and _sniff_format give no other value
    from .sfu import load_sfu

    return load_sfu(path)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _load_scored(args, pred_paths: tuple[str, ...]) -> tuple[Corpus, list[Corpus]]:
    """The gold corpus of ``args.gold`` and the corpus of each of ``pred_paths``.

    When every file is CoNLL they are read with ``conll.load_pair``, so that
    each prediction shares the sentences of the files before it and the
    gold's tokens where it repeats them; otherwise each is read on its own,
    as ``_load_corpus`` reads it.
    Which files are CoNLL is decided without opening any: without
    ``--format``, every file but an ``.xml`` one is.  So a file that cannot
    be opened fails only when its turn to be read comes.
    """
    paths = (args.gold, *pred_paths)
    fmt = getattr(args, "format", None)
    xml = any(Path(p).suffix.lower() == ".xml" for p in paths)
    if fmt == "conll" or (fmt is None and not xml):
        gold, *preds = load_pair(*paths)
    else:
        gold, *preds = (_load_corpus(p, args) for p in paths)
    return gold, preds


def cmd_evaluate(args) -> int:
    gold, (pred,) = _load_scored(args, (args.pred,))
    report = full_report(
        gold, pred, keep_punct=args.keep_punct, cns_all_sentences=args.cns_all_sentences
    )
    if args.metrics:
        report = report.select([m.strip() for m in args.metrics.split(",") if m.strip()])
    _emit(args, report.render(args.out))
    return EXIT_OK


def cmd_compare(args) -> int:
    gold, (pred_a, pred_b) = _load_scored(args, (args.pred_a, args.pred_b))
    if not args.keep_punct:  # once, so that the gold's warnings are printed once
        gold = strip_punctuation(gold)
    report_a = full_report(gold, pred_a, keep_punct=args.keep_punct)
    report_b = full_report(gold, pred_b, keep_punct=args.keep_punct)
    if args.out == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "system_a": report_a._payload(),
            "system_b": report_b._payload(),
            "delta_f1": {
                key: report_b.metrics[key].f1 - report_a.metrics[key].f1 for key in METRIC_ORDER
            },
        }
        _emit(args, _json_text(payload) + "\n")
        return EXIT_OK
    lines = ["metric\tA_p\tA_r\tA_f1\tB_p\tB_r\tB_f1\tdelta_f1"]
    for key in METRIC_ORDER:
        a, b = report_a.metrics[key], report_b.metrics[key]
        lines.append(
            f"{key}\t{percent(a.precision):.1f}\t{percent(a.recall):.1f}\t{percent(a.f1):.1f}"
            f"\t{percent(b.precision):.1f}\t{percent(b.recall):.1f}\t{percent(b.f1):.1f}"
            f"\t{percent(b.f1) - percent(a.f1):+.1f}"
        )
    a_acc, b_acc = report_a.sentence_accuracy, report_b.sentence_accuracy
    lines.append(
        f"cns\t\t\t{percent(a_acc.ratio):.1f}\t\t\t{percent(b_acc.ratio):.1f}"
        f"\t{percent(b_acc.ratio) - percent(a_acc.ratio):+.1f}"
    )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_baseline(args) -> int:
    from .baseline import punct_baseline

    gold = _load_corpus(args.gold, args)
    _emit(args, write_sem_conll(punct_baseline(gold)))
    return EXIT_OK


def cmd_convert(args) -> int:
    corpus = _load_corpus(args.input, args)
    if args.strip_punct:
        corpus = strip_punctuation(corpus)
    _emit(args, write_sem_conll(corpus))
    return EXIT_OK


def cmd_dep_encode(args) -> int:
    corpus = _load_corpus(args.input, args)
    kind = EncodingKind(args.encoding)
    diagnostics = []
    graphs = encode_corpus(corpus, kind, diagnostics)
    for d in diagnostics:
        sys.stderr.write(f"negeval: warning: {d.code} at {d.doc_id}#{d.sent_index}: {d.message}\n")
    _emit(args, graphs)
    return EXIT_OK


def cmd_dep_decode(args) -> int:
    text = _decode(Path(args.input).read_bytes(), args.input)
    kind = EncodingKind(args.encoding)
    corpus = decode_corpus(text, kind, source=args.input)
    _emit(args, write_sem_conll(corpus))
    return EXIT_OK


def cmd_split(args) -> int:
    from .datatools import SplitSpec, parse_assignment, split_corpus

    assignment = None
    if args.assignment:
        text = _decode(Path(args.assignment).read_bytes(), args.assignment)
        assignment = parse_assignment(text, source=args.assignment)
    try:
        ratios = tuple(int(r) for r in args.ratios.split("/"))
    except ValueError:
        raise UsageError(f"--ratios must look like 80/10/10, got {args.ratios!r}") from None
    spec = SplitSpec(ratios=ratios, seed=args.seed, assignment=assignment)
    parts = split_corpus(_load_corpus(args.input, args), spec)
    stem = Path(args.output_prefix)
    for corpus_part, suffix in zip(parts, ("train", "dev", "test")):
        out = stem.with_name(stem.name + f".{suffix}.conll")
        out.write_text(write_sem_conll(corpus_part), encoding="utf-8", newline="")
        sys.stderr.write(f"wrote {out} ({len(corpus_part)} sentences)\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    from .datatools import corpus_stats

    corpus = _load_corpus(args.input, args)
    _emit(args, corpus_stats(corpus).to_tsv())
    return EXIT_OK


def cmd_patch(args) -> int:
    from .datatools import apply_patches, parse_patch_file

    corpus = _load_corpus(args.input, args)
    patch_text = _decode(Path(args.patches).read_bytes(), args.patches)
    patches = parse_patch_file(patch_text, corpus, source=args.patches)
    _emit(args, write_sem_conll(apply_patches(corpus, patches)))
    return EXIT_OK


def cmd_detect_coord(args) -> int:
    from .datatools import DEFAULT_COORDINATION_LEXICON, detect_coordination_cues, format_patch_file

    corpus = _load_corpus(args.input, args)
    lexicon = DEFAULT_COORDINATION_LEXICON
    if args.lexicon is not None:
        lexicon = frozenset(w.strip().lower() for w in args.lexicon.split(",") if w.strip())
    patches = detect_coordination_cues(corpus, lexicon)
    _emit(args, format_patch_file(corpus, patches))
    return EXIT_OK


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("conll", "bioscope", "sfu"), help="input format (default: by extension)")
    parser.add_argument("--tokenizer", help="tokenizer rule file for XML input")
    _add_output_option(parser)


def _add_output_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", help="write output to this file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negeval", description="Negation resolution corpora and evaluation toolkit"
    )
    parser.add_argument("--version", action="version", version=f"negeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against gold annotations")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", choices=("text", "json", "tsv"), default="text")
    p.add_argument("--metrics", help="comma-separated subset of metrics to report")
    p.add_argument("--keep-punct", action="store_true", help="do not strip punctuation before scoring")
    p.add_argument("--cns-all-sentences", action="store_true",
                   help="use all sentences as the correct-sentence denominator")
    _add_io_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="score two systems side by side")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.add_argument("--keep-punct", action="store_true")
    _add_io_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("baseline", help="predict scopes from gold cues up to the next punctuation")
    p.add_argument("--gold", required=True)
    _add_io_options(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("convert", help="convert any supported corpus to the CoNLL format")
    p.add_argument("input")
    p.add_argument("--strip-punct", action="store_true", help="strip punctuation from annotation sets")
    _add_io_options(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("dep-encode", help="encode instances as negation dependency graphs")
    p.add_argument("input")
    p.add_argument("--encoding", choices=("direct", "nested"), default="direct")
    _add_io_options(p)
    p.set_defaults(func=cmd_dep_encode)

    p = sub.add_parser("dep-decode", help="decode negation dependency graphs back to CoNLL")
    p.add_argument("input")
    p.add_argument("--encoding", choices=("direct", "nested"), default="direct")
    _add_output_option(p)
    p.set_defaults(func=cmd_dep_decode)

    p = sub.add_parser("split", help="split a corpus into train/dev/test by document")
    p.add_argument("input")
    p.add_argument("--ratios", default="80/10/10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assignment", help="doc_id<TAB>part file overriding the hash assignment")
    p.add_argument("--output-prefix", required=True)
    _add_io_options(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="corpus statistics as TSV")
    p.add_argument("input")
    _add_io_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("patch", help="apply a re-annotation patch file")
    p.add_argument("input")
    p.add_argument("--patches", required=True)
    _add_io_options(p)
    p.set_defaults(func=cmd_patch)

    p = sub.add_parser("detect-coord", help="draft patches splitting discontinuous coordination cues")
    p.add_argument("input")
    p.add_argument("--lexicon", help="comma-separated coordination cue words")
    _add_io_options(p)
    p.set_defaults(func=cmd_detect_coord)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setFormatter(logging.Formatter("negeval: warning: %(message)s"))
    logger = logging.getLogger("negeval")
    propagate = logger.propagate
    logger.addHandler(warnings)
    logger.propagate = False
    try:
        with _gc_paused():
            return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        for exc_type, code, category in _EXIT_CODES:
            if isinstance(exc, exc_type):
                sys.stderr.write(f"negeval: {category}: {exc}\n")
                return code
        raise
    finally:
        logger.removeHandler(warnings)
        logger.propagate = propagate


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
