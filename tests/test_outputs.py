"""Byte identity of every command's output against a committed table.

``fixtures/outputs.sha256`` holds one line per input file, the SHA-256 of
its bytes, and one line per command, the SHA-256 of its exit code, stdout,
stderr and the files it wrote.  The commands run in process through
``cli.main``, from one working directory and with relative paths, because
paths reach the JSON metadata, the warnings and the error lines.  Any
changed byte of any output fails the test.  After an intended change of
output, write the table again with ``PYTHONPATH=src python
tests/test_outputs.py`` and review its diff.

The inputs are the fixtures, two corpora seeded with ``negeval.testing``,
graphs encoded from them, and a few small files written here.  The error
cases use messages negeval writes itself, not expat's or argparse's, whose
wording differs between Python versions.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import fixture_path
from negeval import ReannotationPatch, format_patch_file, load_sem_conll, write_sem_conll
from negeval.cli import main
from negeval.depgraph import EncodingKind, encode_corpus
from negeval.testing import perturb_predictions, random_corpus

TABLE = fixture_path("outputs.sha256")

_FIXTURES = (
    "roundtrip.conll", "nested_scopes.conll", "two_systems_gold.conll", "two_systems_a.conll",
    "two_systems_b.conll", "bioscope_sample.xml", "sfu_sample.xml", "tokenizer.rules",
)

# A discontinuous "neither ... nor" cue, which detect-coord drafts a patch
# for, and a cue that is only punctuation, which stripping drops with a warning.
_COORD_PUNCT = (
    "lit\t0\t0\tNeither\tneither\tCC\t_\tNeither\t_\t_\t_\t_\t_\n"
    "lit\t0\t1\tcats\tcat\tNNS\t_\t_\tcats\t_\t_\t_\t_\n"
    "lit\t0\t2\tnor\tnor\tCC\t_\tnor\t_\t_\t_\t_\t_\n"
    "lit\t0\t3\tdogs\tdog\tNNS\t_\t_\tdogs\t_\t_\tdogs\t_\n"
    "lit\t0\t4\t!\t!\t.\t_\t_\t_\t_\t!\t_\t_\n"
)


def _inputs() -> dict[str, bytes]:
    """Every input file's bytes, by file name."""
    files = {name: fixture_path(name).read_bytes() for name in _FIXTURES}
    rng = random.Random(94)
    gold = random_corpus(rng, max_sentences=40, max_tokens=12, n_docs=4, name="seeded")
    pred = perturb_predictions(rng, gold)
    roundtrip = load_sem_conll(fixture_path("roundtrip.conll"))
    texts = {
        "seeded_gold.conll": write_sem_conll(gold),
        "seeded_pred.conll": write_sem_conll(pred),
        "coord_punct.conll": _COORD_PUNCT,
        "roundtrip.patch": format_patch_file(
            roundtrip, [ReannotationPatch("rt", 2, 1, roundtrip.sentences[2].instances)]
        ),
        "parts.tsv": "doc1\ttest\n# the rest by hash\n",
        "unknown_parts.tsv": "nodoc\ttest\n",
        "bad.conll": "x\t0\t0\tNo\n",
        "bad.graph": "#doc rt\n#sent 0\n1\tIt\t2:CUE\n2\tis\t_\n",
        "bad.patch": "target\trt\t0\t5\n",
    }
    for kind in EncodingKind:
        texts[f"roundtrip.{kind.value}.graph"] = encode_corpus(roundtrip, kind)
        texts[f"seeded.{kind.value}.graph"] = encode_corpus(gold, kind)
    files.update((name, text.encode("utf-8")) for name, text in texts.items())
    return files


_BIOSCOPE = ["bioscope_sample.xml", "--format", "bioscope", "--tokenizer", "tokenizer.rules"]
_SFU = ["sfu_sample.xml", "--format", "sfu"]
_CORPORA = (
    ["roundtrip.conll"], ["nested_scopes.conll"], ["two_systems_gold.conll"], ["seeded_gold.conll"],
    ["coord_punct.conll"], _BIOSCOPE, _SFU,
)


def _commands() -> list[list[str]]:
    commands = []
    for gold, pred in (
        ("two_systems_gold.conll", "two_systems_a.conll"),
        ("two_systems_gold.conll", "two_systems_b.conll"),
        ("seeded_gold.conll", "seeded_pred.conll"),
    ):
        for out in ("text", "json", "tsv"):
            for flags in ([], ["--keep-punct"], ["--cns-all-sentences"], ["--keep-punct", "--cns-all-sentences"]):
                commands.append(["evaluate", "--gold", gold, "--pred", pred, "--out", out, *flags])
    for name, *options in _CORPORA:
        commands.append(["evaluate", "--gold", name, "--pred", name, "--out", "json", *options])
    evaluate_seeded = ["evaluate", "--gold", "seeded_gold.conll", "--pred", "seeded_pred.conll"]
    commands += [
        [*evaluate_seeded, "--metrics", "scm,st"],
        [*evaluate_seeded, "--metrics", " inst_ex, cues_partial_b ,", "--out", "json"],
        [*evaluate_seeded, "--metrics", "cues_exact", "--out", "tsv"],
        [*evaluate_seeded, "--out", "json", "-o", "report.json"],
    ]
    for gold, a, b in (
        ("two_systems_gold.conll", "two_systems_a.conll", "two_systems_b.conll"),
        ("seeded_gold.conll", "seeded_pred.conll", "seeded_gold.conll"),
        ("coord_punct.conll", "coord_punct.conll", "coord_punct.conll"),
    ):
        for out in ("text", "json"):
            for flags in ([], ["--keep-punct"]):
                commands.append(["compare", "--gold", gold, "--pred-a", a, "--pred-b", b, "--out", out, *flags])
    commands.append(
        ["compare", "--gold", "two_systems_gold.conll", "--pred-a", "two_systems_a.conll",
         "--pred-b", "two_systems_b.conll", "--output", "compare.tsv"]
    )
    for name, *options in _CORPORA:
        commands += [
            ["baseline", "--gold", name, *options],
            ["convert", name, *options],
            ["convert", name, "--strip-punct", *options],
            ["dep-encode", name, *options],
            ["dep-encode", name, "--encoding", "nested", *options],
            ["stats", name, *options],
            ["detect-coord", name, *options],
        ]
    for stem in ("roundtrip", "seeded"):
        for kind in EncodingKind:
            commands.append(["dep-decode", f"{stem}.{kind.value}.graph", "--encoding", kind.value])
    commands += [
        ["dep-encode", "seeded_gold.conll", "-o", "seeded.graph"],
        ["dep-decode", "roundtrip.nested.graph", "--encoding", "nested", "-o", "decoded.conll"],
        ["convert", "sfu_sample.xml", "-o", "sfu.conll"],
        ["split", "seeded_gold.conll", "--output-prefix", "part"],
        ["split", "seeded_gold.conll", "--ratios", "50/25/25", "--seed", "3", "--output-prefix", "part"],
        ["split", "seeded_gold.conll", "--assignment", "parts.tsv", "--output-prefix", "part"],
        ["patch", "roundtrip.conll", "--patches", "roundtrip.patch"],
        ["patch", "roundtrip.conll", "--patches", "roundtrip.patch", "-o", "patched.conll"],
        ["detect-coord", "coord_punct.conll", "--lexicon", " NOR,neither,, not"],
        # one error of each exit category that a command can reach
        ["evaluate", *evaluate_seeded[1:], "--metrics", "scm,nope"],
        ["split", "seeded_gold.conll", "--ratios", "80-10-10", "--output-prefix", "part"],
        ["stats", "bad.conll"],
        ["patch", "roundtrip.conll", "--patches", "bad.patch"],
        ["evaluate", "--gold", "two_systems_gold.conll", "--pred", "roundtrip.conll"],
        ["dep-decode", "bad.graph"],
        ["split", "seeded_gold.conll", "--ratios", "50/50/10", "--output-prefix", "part"],
        ["split", "seeded_gold.conll", "--assignment", "unknown_parts.tsv", "--output-prefix", "part"],
        ["evaluate", "--gold", "missing.conll", "--pred", "seeded_pred.conll"],
    ]
    return commands


def _digest(*parts: bytes) -> str:
    """SHA-256 of ``parts``, each preceded by its length."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"%d\n" % len(part))
        digest.update(part)
    return digest.hexdigest()


def _run(argv: list[str], inputs: dict[str, bytes]) -> str:
    """The digest of ``argv``'s exit code, stdout, stderr and written files,
    each file by name; the files are removed afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    for path in sorted(Path().iterdir()):
        if path.name not in inputs:
            parts += [path.name.encode(), path.read_bytes()]
            path.unlink()
    return _digest(*parts)


def table(workdir: Path) -> list[str]:
    """The table's lines, computed by running every command in ``workdir``."""
    inputs = _inputs()
    lines = [f"{_digest(data)}  input {name}" for name, data in inputs.items()]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, data in inputs.items():
            Path(name).write_bytes(data)
        lines += [f"{_run(argv, inputs)}  negeval {' '.join(argv)}" for argv in _commands()]
    finally:
        os.chdir(cwd)
    return lines


def test_every_command_writes_the_bytes_of_the_table(tmp_path):
    assert table(tmp_path) == TABLE.read_text("utf-8").splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        TABLE.write_text("\n".join(table(Path(workdir))) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
