from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negeval
from conftest import fixture_path
from negeval import load_sem_conll, parse_sem_conll
from negeval.cli import EXIT_ALIGNMENT, EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_SPLIT, EXIT_USAGE, main

GOLD = str(fixture_path("two_systems_gold.conll"))
SYS_A = str(fixture_path("two_systems_a.conll"))
SYS_B = str(fixture_path("two_systems_b.conll"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_text_contains_golden_f1s(capsys):
    code, out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_A)
    assert code == EXIT_OK
    assert "85.0" in out and "71.8" in out


def test_evaluate_gold_vs_gold_all_100(capsys):
    code, out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", GOLD, "--out", "tsv")
    assert code == EXIT_OK
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("metric"):
            continue
        cols = line.split("\t")
        if cols[0] == "cns":
            continue
        assert cols[6] == "100.0", line  # pct_f1 column


def test_evaluate_json_and_tsv_agree(capsys):
    code, json_out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_B, "--out", "json")
    assert code == EXIT_OK
    code, tsv_out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_B, "--out", "tsv")
    assert code == EXIT_OK
    payload = json.loads(json_out)
    for line in tsv_out.splitlines():
        if line.startswith("#") or line.startswith("metric") or line.startswith("cns"):
            continue
        cols = line.split("\t")
        m = payload["metrics"][cols[0]]["percent"]
        assert (f"{m['precision']:.1f}", f"{m['recall']:.1f}", f"{m['f1']:.1f}") == (
            cols[4],
            cols[5],
            cols[6],
        )


def test_evaluate_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("d\t0\t0\tonly\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", "--gold", str(bad), "--pred", str(bad))
    assert code == EXIT_PARSE
    assert err.startswith("negeval: parse-error:")
    assert err.count("\n") == 1  # single-line error


@pytest.mark.parametrize("command", ["stats", "evaluate", "dep-decode", "patch", "convert-xml"])
def test_non_utf8_input_is_a_parse_error(capsys, tmp_path, command):
    bad = tmp_path / ("bad.xml" if command == "convert-xml" else "bad.conll")
    bad.write_bytes(b"d\t0\t0\tw\xffrd\t_\t_\t_\t***\n")
    argv = {
        "stats": ["stats", str(bad)],
        "evaluate": ["evaluate", "--gold", str(bad), "--pred", str(bad)],
        "dep-decode": ["dep-decode", str(bad)],
        "patch": ["patch", GOLD, "--patches", str(bad)],
        "convert-xml": ["convert", str(bad)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.startswith(f"negeval: parse-error: {bad}: not valid UTF-8")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "rules",
    [b"abbrev N\xffo.\n", b"bogus 1\n", b"abbrev Dr.\nurl ([\n"],
    ids=["non-utf8", "unknown-key", "bad-url-regex"],
)
def test_bad_tokenizer_rule_file_is_a_parse_error(capsys, tmp_path, rules):
    rule_file = tmp_path / "R"
    rule_file.write_bytes(rules)
    argv = ["convert", str(fixture_path("bioscope_sample.xml")), "--tokenizer", str(rule_file)]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.startswith(f"negeval: parse-error: {rule_file}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("row", ["2\tx\t1:FOO", "2\tx\t3:S"], ids=["unknown-label", "head-past-end"])
def test_dep_decode_rejects_uninterpretable_edges(capsys, tmp_path, row):
    graph = tmp_path / "bad.graph"
    graph.write_text(f"#doc d\n#sent 0\n1\tno\t0:CUE\n{row}\n", encoding="utf-8")
    code, _, err = run(capsys, "dep-decode", str(graph))
    assert code == EXIT_PARSE
    assert err.startswith(f"negeval: parse-error: {graph}:4:")
    assert err.count("\n") == 1


def test_row_of_another_sentence_is_a_parse_error(capsys, tmp_path):
    conll = tmp_path / "mixed.conll"
    rows = [("d", "0", "0", "a"), ("d", "0", "1", "b"), ("e", "7", "2", "c")]
    conll.write_text("".join("\t".join([*cols, "_", "_", "_", "***"]) + "\n" for cols in rows), encoding="utf-8")
    code, out, err = run(capsys, "stats", str(conll))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (
        f"negeval: parse-error: {conll}:3: document id 'e' differs from 'd' in the first row of the sentence\n"
    )


def test_dep_decode_rejects_a_repeated_sentence_key(capsys, tmp_path):
    graph = tmp_path / "twice.graph"
    graph.write_text(
        "#doc d\n#sent 0\n1\tno\t0:CUE\n\n#doc e\n#sent 0\n1\tyes\t_\n\n#doc d\n#sent 0\n1\tno\t_\n", encoding="utf-8"
    )
    out_path = tmp_path / "decoded.conll"
    code, out, err = run(capsys, "dep-decode", str(graph), "-o", str(out_path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"negeval: parse-error: {graph}:9: duplicate sentence key ('d', 0)\n"
    assert not out_path.exists()


_SENTENCE_D0 = "d\t0\t0\tno\tno\tDT\t_\t***\n"


@pytest.mark.parametrize("command", ["stats", "evaluate-gold", "evaluate-pred"])
def test_a_repeated_conll_sentence_key_is_named_at_its_line(capsys, tmp_path, command):
    twice = tmp_path / "twice.conll"
    twice.write_text(f"{_SENTENCE_D0}\n{_SENTENCE_D0}", encoding="utf-8")
    once = tmp_path / "once.conll"
    once.write_text(_SENTENCE_D0, encoding="utf-8")
    argv = {
        "stats": ["stats", str(twice)],
        "evaluate-gold": ["evaluate", "--gold", str(twice), "--pred", str(once)],
        "evaluate-pred": ["evaluate", "--gold", str(once), "--pred", str(twice)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"negeval: parse-error: {twice}:3: duplicate sentence key ('d', 0)\n"


def test_a_repeated_bioscope_document_id_is_a_parse_error(capsys, tmp_path):
    document = "<Document><DocumentID>A</DocumentID><sentence id='s'>No.</sentence></Document>"
    xml = tmp_path / "twice.xml"
    xml.write_text(f"<Annotation>{document}{document}</Annotation>", encoding="utf-8")
    code, out, err = run(capsys, "stats", str(xml))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"negeval: parse-error: {xml}: duplicate sentence key ('A', 0)\n"


def test_dep_decode_rejects_an_empty_surface(capsys, tmp_path):
    graph = tmp_path / "empty.graph"
    graph.write_text("#doc d\n#sent 0\n1\tno\t0:CUE\n2\t\t1:S\n", encoding="utf-8")
    out_path = tmp_path / "decoded.conll"
    code, out, err = run(capsys, "dep-decode", str(graph), "-o", str(out_path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"negeval: parse-error: {graph}:4: empty token surface\n"
    assert not out_path.exists()


def test_dropped_instance_warnings_are_prefixed_once_per_call(capsys, tmp_path):
    words = [("no", "DT"), (",", ","), ("way", "NN"), (".", ".")]
    gold_cells = [["no", "_", "_"], ["_", "_", "_"], ["_", "way", "_"], ["_", "_", "_"]]
    pred_cells = [cells + ["_", "_", "_"] for cells in gold_cells]
    pred_cells[1][3] = ","  # second predicted instance: a punctuation-only cue
    for name, cells in (("gold", gold_cells), ("pred", pred_cells)):
        rows = [
            "\t".join(["d", "0", str(i), w, w, pos, "_", *row])
            for i, ((w, pos), row) in enumerate(zip(words, cells))
        ]
        (tmp_path / f"{name}.conll").write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["evaluate", "--gold", str(tmp_path / "gold.conll"), "--pred", str(tmp_path / "pred.conll")]
    for _ in range(2):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert err == "negeval: warning: dropping instance 1 of d#0: cue is entirely punctuation\n"


def _write_sentences(path: Path, sentences) -> None:
    """Write CoNLL sentences of doc ``d`` given as ``(words, cues)``: words
    are ``(surface, POS)`` pairs, and each instance is its set of cue tokens."""
    blocks = []
    for sent_no, (words, cues) in enumerate(sentences):
        rows = []
        for i, (w, pos) in enumerate(words):
            cells = [c for cue in cues for c in (w if i in cue else "_", "_", "_")]
            rows.append("\t".join(["d", str(sent_no), str(i), w, w, pos, "_", *(cells or ["***"])]))
        blocks.append("\n".join(rows))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def test_dropped_instance_warnings_come_in_pair_order(capsys, tmp_path):
    words = [("no", "DT"), (",", ","), ("way", "NN"), (".", ".")]
    gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
    # d#0: gold drops instance 1, the prediction instance 0; d#1: gold 0, prediction 1
    _write_sentences(gold, [(words, [{0}, {1}]), (words, [{3}, {0}])])
    _write_sentences(pred, [(words, [{3}, {0}]), (words, [{0}, {1}])])
    code, _, err = run(capsys, "evaluate", "--gold", str(gold), "--pred", str(pred))
    assert code == EXIT_OK
    assert err.splitlines() == [
        f"negeval: warning: dropping instance {i} of d#{s}: cue is entirely punctuation"
        for s, i in ((0, 1), (0, 0), (1, 0), (1, 1))
    ]
    # on a token mismatch, the warnings of the pairs before it come first
    _write_sentences(pred, [(words, [{3}, {0}]), ([*words[:2], ("road", "NN"), words[3]], [{0}, {1}])])
    code, _, err = run(capsys, "evaluate", "--gold", str(gold), "--pred", str(pred))
    assert code == EXIT_ALIGNMENT
    assert err.splitlines() == [
        "negeval: warning: dropping instance 1 of d#0: cue is entirely punctuation",
        "negeval: warning: dropping instance 0 of d#0: cue is entirely punctuation",
        "negeval: alignment-error: token sequences differ for sentence ('d', 1): token 2: 'way' vs 'road'",
    ]
    # a key error comes before any pair is stripped
    _write_sentences(pred, [(words, [{3}, {0}])])
    code, _, err = run(capsys, "evaluate", "--gold", str(gold), "--pred", str(pred))
    assert code == EXIT_ALIGNMENT
    assert err == "negeval: alignment-error: sentence sets differ; missing from predictions: [('d', 1)]\n"


def test_commands_pause_gc_and_restore_the_callers_state(capsys, monkeypatch, tmp_path):
    seen = []

    def full_report_spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return negeval.full_report(*args, **kwargs)

    monkeypatch.setattr("negeval.cli.full_report", full_report_spy)
    evaluate = ["evaluate", "--gold", GOLD, "--pred", SYS_A]
    missing = ["evaluate", "--gold", str(tmp_path / "missing.conll"), "--pred", SYS_A]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, *evaluate)[0] == EXIT_OK
            assert gc.isenabled() is enabled
            assert run(capsys, *missing)[0] == EXIT_IO
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]


def test_evaluate_alignment_error_exit_code(capsys, tmp_path):
    other = tmp_path / "other.conll"
    other.write_text("x\t0\t0\tword\tword\tNN\t_\t***\n", encoding="utf-8")
    code, _, err = run(capsys, "evaluate", "--gold", GOLD, "--pred", str(other))
    assert code == EXIT_ALIGNMENT
    assert err.startswith("negeval: alignment-error:")


def test_compare_ranks_systems_differently(capsys):
    code, out, _ = run(capsys, "compare", "--gold", GOLD, "--pred-a", SYS_A, "--pred-b", SYS_B)
    assert code == EXIT_OK
    rows = {line.split("\t")[0]: line.split("\t") for line in out.splitlines()[1:]}
    st = rows["st"]
    inst = rows["inst_tok"]
    assert float(st[3]) > float(st[6])  # token-level F1 prefers system A
    assert float(inst[6]) > float(inst[3])  # instance-level F1 prefers system B


def test_compare_identical_predictions_all_deltas_zero(capsys):
    code, out, _ = run(capsys, "compare", "--gold", GOLD, "--pred-a", SYS_A, "--pred-b", SYS_A)
    assert code == EXIT_OK
    for line in out.splitlines()[1:]:
        assert line.split("\t")[-1] in ("+0.0", "-0.0")


def test_compare_json_delta_matches_recomputation(capsys):
    code, out, _ = run(
        capsys, "compare", "--gold", GOLD, "--pred-a", SYS_A, "--pred-b", SYS_B, "--out", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    for key, delta in payload["delta_f1"].items():
        a = payload["system_a"]["metrics"][key]["f1"]
        b = payload["system_b"]["metrics"][key]["f1"]
        assert delta == pytest.approx(b - a)


def test_baseline_then_evaluate_gives_perfect_cue_score(capsys, tmp_path):
    pred_path = tmp_path / "baseline.conll"
    code, _, _ = run(capsys, "baseline", "--gold", GOLD, "-o", str(pred_path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", str(pred_path), "--out", "tsv")
    assert code == EXIT_OK
    row = next(line for line in out.splitlines() if line.startswith("cues_exact_b\t"))
    assert row.split("\t")[6] == "100.0"


def test_convert_bioscope_to_conll_scores_perfectly_against_itself(capsys, tmp_path):
    out_path = tmp_path / "bio.conll"
    code, _, _ = run(
        capsys, "convert", str(fixture_path("bioscope_sample.xml")), "-o", str(out_path)
    )
    assert code == EXIT_OK
    code, out, _ = run(
        capsys, "evaluate", "--gold", str(out_path), "--pred", str(out_path), "--out", "tsv"
    )
    assert code == EXIT_OK
    row = next(line for line in out.splitlines() if line.startswith("inst_tok\t"))
    assert row.split("\t")[6] == "100.0"


def test_dep_encode_decode_round_trip(capsys, tmp_path):
    encoded = tmp_path / "nested_corpus.graph"
    decoded = tmp_path / "nested_corpus_back.conll"
    code, _, _ = run(
        capsys, "dep-encode", str(fixture_path("nested_scopes.conll")), "--encoding", "nested", "-o", str(encoded)
    )
    assert code == EXIT_OK
    code, _, _ = run(capsys, "dep-decode", str(encoded), "--encoding", "nested", "-o", str(decoded))
    assert code == EXIT_OK
    original = load_sem_conll(fixture_path("nested_scopes.conll"))
    back = load_sem_conll(decoded)
    assert back.sentences[0].surfaces() == original.sentences[0].surfaces()
    original_sets = {(i.cue, i.scope, i.event) for i in original.sentences[0].instances}
    back_sets = {(i.cue, i.scope, i.event) for i in back.sentences[0].instances}
    assert back_sets == original_sets


def test_split_writes_three_files(capsys, tmp_path):
    prefix = tmp_path / "golden"
    code, _, _ = run(
        capsys, "split", GOLD, "--seed", "1", "--output-prefix", str(prefix)
    )
    assert code == EXIT_OK
    parts = [prefix.with_name(f"golden.{s}.conll") for s in ("train", "dev", "test")]
    assert all(p.exists() for p in parts)
    total = sum(len(load_sem_conll(p)) for p in parts)
    assert total == 3


def test_stats_output(capsys):
    code, out, _ = run(capsys, "stats", GOLD)
    assert code == EXIT_OK
    assert "sentences\t3" in out
    assert "instances\t3" in out


def test_detect_coord_then_patch(capsys, tmp_path):
    corpus_path = tmp_path / "coord.conll"
    rows = []
    words = ["Neither", "Mary", "nor", "Sam", "like", "pizza"]
    for i, w in enumerate(words):
        cue = w if i in (0, 2) else "_"
        scope = w if i in (1, 3, 4, 5) else "_"
        rows.append("\t".join(["cd", "0", str(i), w, w.lower(), "NN", "_", cue, scope, "_"]))
    corpus_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    patch_path = tmp_path / "draft.patch"
    code, _, _ = run(capsys, "detect-coord", str(corpus_path), "-o", str(patch_path))
    assert code == EXIT_OK
    assert patch_path.read_text(encoding="utf-8").startswith("target\tcd\t0\t0")

    code, out, _ = run(capsys, "patch", str(corpus_path), "--patches", str(patch_path))
    assert code == EXIT_OK
    patched = parse_sem_conll(out)
    assert len(patched.sentences[0].instances) == 2


def test_patch_replacement_without_cue_is_a_parse_error(capsys, tmp_path):
    # written out, such an instance would fail every later command with empty-cue
    n_tokens = len(load_sem_conll(GOLD).sentences[0].tokens)
    patches = tmp_path / "no-cue.patch"
    patches.write_text(
        "target\tredcircle01\t0\t0\nreplace\t" + "\t".join(["_"] * (3 * n_tokens)) + "\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "patch", GOLD, "--patches", str(patches))
    assert (code, out) == (EXIT_PARSE, "")
    (line,) = err.splitlines()
    assert line.startswith("negeval: parse-error:") and f"{patches}:2" in line


def test_instance_without_cue_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "no-cue.conll"
    bad.write_text(
        "d\t0\t0\tnot\tnot\tRB\t_\tnot\t_\t_\t_\t_\t_\n"
        "d\t0\t1\tgood\tgood\tJJ\t_\t_\tgood\t_\t_\tgood\t_\n",
        encoding="utf-8",
    )
    for argv in (("evaluate", "--gold", str(bad), "--pred", str(bad)), ("stats", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        (line,) = err.splitlines()
        assert line.startswith(f"negeval: parse-error: {bad}:1: ")


def test_empty_annotation_cell_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "empty-cell.conll"
    bad.write_text("d\t0\t0\tnot\tnot\tRB\t_\tnot\t\t_\n", encoding="utf-8")
    for argv in (("evaluate", "--gold", str(bad), "--pred", str(bad)), ("stats", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"negeval: parse-error: {bad}:1: empty annotation cell\n"


@pytest.mark.parametrize("control", ["\t", "\n"])
def test_writers_refuse_a_token_with_a_tab_or_line_feed(capsys, tmp_path, control):
    xml = tmp_path / "t.xml"
    xml.write_text(
        "<DOCUMENT><SENTENCE><W>I</W><cue type=\"negation\" ID=\"1\"><W>never</W></cue>"
        f"<xcope ID=\"1\"><W>New{control}York</W></xcope></SENTENCE></DOCUMENT>\n",
        encoding="utf-8",
        newline="",
    )
    out_path = tmp_path / "t.out"
    for command in ("convert", "dep-encode"):
        code, out, err = run(capsys, command, str(xml), "--format", "sfu", "-o", str(out_path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "negeval: usage-error: cannot write sentence ('t', 0): a cell of token 2 holds a tab, "
            "line feed or carriage return\n"
        )
        assert not out_path.exists()
    code, out, _ = run(capsys, "stats", str(xml), "--format", "sfu")
    assert code == EXIT_OK and out.startswith("sentences\t1\n")


@pytest.mark.parametrize("source", ["graph", "bioscope"])
def test_conll_writer_refuses_a_sentence_without_tokens(capsys, tmp_path, source):
    if source == "graph":
        path = tmp_path / "e.graph"
        path.write_text("#doc d\n#sent 0\n\n#doc d\n#sent 1\n1\tfoo\t_\n", encoding="utf-8")
        command, key = "dep-decode", "('d', 0)"
    else:
        path = tmp_path / "e.xml"
        path.write_text(
            "<Document><DocumentID>A</DocumentID><sentence id='s'>No.</sentence><sentence id='e'/></Document>",
            encoding="utf-8",
        )
        command, key = "convert", "('A', 1)"
    out_path = tmp_path / "e.conll"
    code, out, err = run(capsys, command, str(path), "-o", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"negeval: usage-error: cannot write sentence {key}: it has no tokens\n"
    assert not out_path.exists()


def test_evaluate_reads_predictions_with_the_gold_tokens(capsys, monkeypatch):
    import negeval.conll

    calls = []
    real = negeval.conll.parse_sem_conll

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((kwargs.get("tokens_from"), result))
        return result

    monkeypatch.setattr(negeval.conll, "parse_sem_conll", counting)
    code, out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_A, "--out", "json")
    assert code == EXIT_OK
    assert len(calls) == 2
    (no_tokens, gold), (tokens_from, pred) = calls
    assert no_tokens is None and tokens_from is gold
    assert all(p.tokens is g.tokens for p, g in zip(pred.sentences, gold.sentences))
    monkeypatch.undo()
    assert run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_A, "--out", "json")[1] == out


def test_compare_json_is_laid_out_as_json_dumps_does(capsys):
    code, out, _ = run(capsys, "compare", "--gold", GOLD, "--pred-a", SYS_A, "--pred-b", SYS_B, "--out", "json")
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_split_rejects_negative_ratios(capsys, tmp_path):
    prefix = tmp_path / "parts"
    code, _, err = run(capsys, "split", GOLD, "--ratios", "120/-10/-10", "--output-prefix", str(prefix))
    assert code == EXIT_SPLIT
    (line,) = err.splitlines()
    assert line.startswith("negeval: split-error:")
    assert not list(tmp_path.iterdir())


def test_byte_determinism(capsys):
    code, out1, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_B, "--out", "json")
    code2, out2, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_B, "--out", "json")
    assert (code, code2) == (EXIT_OK, EXIT_OK)
    assert out1 == out2


def test_usage_error_on_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    assert code != EXIT_OK
    # evaluate has no --cue-match option and compare no tsv output
    assert main(["evaluate", "--gold", GOLD, "--pred", GOLD, "--cue-match", "exact"]) == EXIT_USAGE
    assert main(["compare", "--gold", GOLD, "--pred-a", SYS_A, "--pred-b", SYS_B, "--out", "tsv"]) == EXIT_USAGE


def test_module_runs_as_a_script():
    src = str(Path(negeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "negeval.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "negeval 0.1.0\n")
