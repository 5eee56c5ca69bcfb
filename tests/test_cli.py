from __future__ import annotations

import codecs
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negeval
from conftest import fixture_path, outputs_under_hash_seeds
from negeval import Corpus, full_report, load_sem_conll, parse_sem_conll, strip_punctuation
from negeval.cli import EXIT_ALIGNMENT, EXIT_GRAPH, EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_SPLIT, EXIT_USAGE, main

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


def test_evaluate_reports_the_chosen_metrics(capsys):
    code, out, err = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_A, "--metrics", " st, inst_tok,", "--out", "tsv")
    assert (code, err) == (EXIT_OK, "")
    assert out.split("\n") == [
        "# schema_version\t1",
        "metric\tprecision\trecall\tf1\tpct_p\tpct_r\tpct_f1\tp_num\tp_den\tr_num\tr_den",
        "st\t0.8095238095238095\t0.8947368421052632\t0.8500000000000001\t81.0\t89.5\t85.0\t17\t21\t17\t19",
        "inst_tok\t0.6666666666666666\t0.7777777777777777\t0.7179487179487178\t66.7\t77.8\t71.8"
        "\t2.0\t3\t2.333333333333333\t3",
        "cns\t0.3333333333333333\t\t\t33.3\t\t\t1\t3\t\t",
        "",
    ]


def test_evaluate_refuses_an_unknown_metric(capsys):
    code, out, err = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_A, "--metrics", "st,nope")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "negeval: usage-error: unknown metrics: ['nope']; known: ['cues_exact', 'cues_exact_b', "
        "'cues_partial', 'cues_partial_b', 'inst_ex', 'inst_tok', 'scm', 'scm_b', 'st']\n"
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


def test_compare_warns_about_the_gold_once_then_each_system(capsys, tmp_path):
    words = [("no", "DT"), (",", ","), ("way", "NN")]
    paths = {name: tmp_path / f"{name}.conll" for name in ("gold", "a", "b")}
    # a comma-only cue: instance 1 in gold, 0 in system A, 2 in system B
    for name, cues in (("gold", [{0}, {1}]), ("a", [{1}, {0}]), ("b", [{0}, {2}, {1}])):
        _write_sentences(paths[name], [(words, cues)])
    argv = ["compare", "--gold", str(paths["gold"]), "--pred-a", str(paths["a"]), "--pred-b", str(paths["b"])]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err.splitlines() == [
        f"negeval: warning: dropping instance {i} of d#0: cue is entirely punctuation" for i in (1, 0, 2)
    ]


def test_compare_reads_every_file_before_it_strips_the_gold(capsys, tmp_path):
    words = [("no", "DT"), (",", ","), ("way", "NN")]
    paths = {name: tmp_path / f"{name}.conll" for name in ("gold", "a", "b")}
    _write_sentences(paths["gold"], [(words, [{0}, {1}])])  # instance 1 has a comma-only cue
    _write_sentences(paths["a"], [(words, [{0}])])
    paths["b"].write_text("d\t0\t0\tno\n", encoding="utf-8")
    argv = ["compare", "--gold", str(paths["gold"]), "--pred-a", str(paths["a"]), "--pred-b", str(paths["b"])]
    # the unreadable prediction stops the command before the gold is stripped and warns
    assert run(capsys, *argv) == (
        EXIT_PARSE, "", f"negeval: parse-error: {paths['b']}:1: expected at least 8 columns, found 4\n"
    )


def test_scored_files_fail_in_reading_order(capsys, tmp_path):
    gold = tmp_path / "gold.conll"
    gold.write_text("d\t0\t0\tno\n", encoding="utf-8")
    missing = tmp_path / "missing.xml"
    # the gold's error, although the prediction could not even be sniffed
    assert run(capsys, "evaluate", "--gold", str(gold), "--pred", str(missing)) == (
        EXIT_PARSE, "", f"negeval: parse-error: {gold}:1: expected at least 8 columns, found 4\n"
    )
    code, _, err = run(capsys, "evaluate", "--gold", str(missing), "--pred", str(gold))
    assert code == EXIT_IO and str(missing) in err


def test_byte_identical_prediction_blocks_warn_as_read_blocks_do(tmp_path):
    words = [("no", "DT"), (",", ","), ("way", "NN"), (".", ".")]
    paths = {name: tmp_path / f"{name}.conll" for name in ("gold", "a", "b")}
    # d#0 and d#2 are byte-identical in every file, each with a punctuation-only
    # cue; d#1 differs, and each system has a punctuation-only cue of its own there
    gold = [(words, [{0}, {1}]), (words, [{0}]), (words, [{3}, {0}])]
    a = [gold[0], (words, [{1}, {2}]), gold[2]]
    b = [gold[0], (words, [{2}, {0}, {3}]), gold[2]]
    for name, sentences in (("gold", gold), ("a", a), ("b", b)):
        _write_sentences(paths[name], sentences)
    gold_path, a_path, b_path = (str(paths[name]) for name in ("gold", "a", "b"))

    def warnings(*dropped):
        line = "negeval: warning: dropping instance {1} of d#{0}: cue is entirely punctuation\n"
        return "".join(line.format(*sentence_instance) for sentence_instance in dropped)

    # evaluate: sentence by sentence, the gold's before the prediction's
    evaluate = ["-m", "negeval.cli", "evaluate", "--gold", gold_path, "--pred", a_path]
    report = full_report(load_sem_conll(gold_path), load_sem_conll(a_path)).render("text")
    assert outputs_under_hash_seeds(evaluate) == {(EXIT_OK, report, warnings((0, 1), (0, 1), (1, 0), (2, 0), (2, 0)))}
    # compare: the gold's once, then system A's, then system B's
    compare = ["-m", "negeval.cli", "compare", "--gold", gold_path, "--pred-a", a_path, "--pred-b", b_path]
    ((code, _, err),) = outputs_under_hash_seeds(compare)
    assert (code, err) == (EXIT_OK, warnings((0, 1), (2, 0), (0, 1), (1, 0), (2, 0), (0, 1), (1, 2), (2, 0)))


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


@pytest.mark.parametrize(
    "instance_id, message",
    [(5, "unknown instance redcircle01#0/5"), (0, "two patches target instance redcircle01#0/0")],
    ids=["unknown-instance", "repeated"],
)
def test_patch_with_a_refused_target_is_a_parse_error_at_its_line(capsys, tmp_path, instance_id, message):
    n_tokens = len(load_sem_conll(GOLD).sentences[0].tokens)
    cells = ["_"] * (3 * n_tokens)
    cells[3] = "not"  # the cue cell of token 1
    replace = "replace\t" + "\t".join(cells) + "\n"
    patches = tmp_path / "p.patch"
    patches.write_text(
        f"target\tredcircle01\t0\t0\n{replace}\ntarget\tredcircle01\t0\t{instance_id}\n{replace}", encoding="utf-8"
    )
    code, out, err = run(capsys, "patch", GOLD, "--patches", str(patches))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"negeval: parse-error: {patches}:4: {message}\n"


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
    import negeval.cli
    from negeval.conll import _blocks

    scored = []
    real = negeval.cli.full_report

    def recording(gold, pred, **options):
        scored.append((gold, pred))
        return real(gold, pred, **options)

    monkeypatch.setattr(negeval.cli, "full_report", recording)
    code, out, _ = run(capsys, "evaluate", "--gold", GOLD, "--pred", SYS_A, "--out", "json")
    assert code == EXIT_OK
    ((gold, pred),) = scored
    assert len(pred.sentences) == len(gold.sentences)
    assert all(p.tokens is g.tokens for p, g in zip(pred.sentences, gold.sentences))
    # a block byte-identical to the gold's is the gold's sentence
    gold_blocks, pred_blocks = (
        ["\n".join(lines) for _, lines in _blocks(Path(path).read_text("utf-8"))] for path in (GOLD, SYS_A)
    )
    identical = [g == p for g, p in zip(gold_blocks, pred_blocks)]
    assert any(identical) and not all(identical)
    assert [p is g for p, g in zip(pred.sentences, gold.sentences)] == identical
    # the same corpora and report as reading each file on its own
    assert (gold, pred) == (load_sem_conll(GOLD), load_sem_conll(SYS_A))
    assert out == real(load_sem_conll(GOLD), load_sem_conll(SYS_A)).render("json")


@pytest.mark.parametrize("name", ["bioscope_sample.xml", "sfu_sample.xml"])
def test_evaluate_against_an_xml_gold_reads_the_prediction_on_its_own(capsys, monkeypatch, tmp_path, name):
    import negeval.cli
    from negeval import Sentence, dump_sem_conll, load_bioscope, load_sfu

    gold_path = str(fixture_path(name))
    gold = (load_bioscope if name.startswith("bioscope") else load_sfu)(gold_path)
    # the system misses the last instance of the first negated sentence
    first = next(i for i, sent in enumerate(gold.sentences) if sent.instances)
    sentences = list(gold.sentences)
    sent = sentences[first]
    sentences[first] = Sentence(sent.doc_id, sent.sent_index, sent.tokens, sent.instances[:-1])
    pred_path = tmp_path / "pred.conll"
    dump_sem_conll(Corpus(tuple(sentences)), pred_path)

    scored = []
    real = negeval.cli.full_report

    def recording(gold, pred, **options):
        scored.append((gold, pred))
        return real(gold, pred, **options)

    monkeypatch.setattr(negeval.cli, "full_report", recording)
    code, out, _ = run(capsys, "evaluate", "--gold", gold_path, "--pred", str(pred_path))
    assert code == EXIT_OK
    ((read_gold, pred),) = scored
    assert (read_gold, pred) == (gold, load_sem_conll(pred_path))
    assert out == real(gold, load_sem_conll(pred_path)).render("text")


def test_compare_json_is_the_reports_of_plain_reads(capsys):
    code, out, _ = run(capsys, "compare", "--gold", GOLD, "--pred-a", SYS_A, "--pred-b", SYS_B, "--out", "json")
    assert code == EXIT_OK
    gold = strip_punctuation(load_sem_conll(GOLD))  # once, as compare strips it
    reports = [full_report(gold, load_sem_conll(path)) for path in (SYS_A, SYS_B)]
    payload = json.loads(out)
    assert (payload["system_a"], payload["system_b"]) == tuple(r._payload() for r in reports)


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


def test_convert_refuses_two_cue_elements_on_one_token(capsys, tmp_path):
    xml = tmp_path / "t.xml"
    xml.write_text(
        "<Document><DocumentID>A</DocumentID><sentence id='s'><xcope id='X1'>"
        "<cue type='negation' ref='X1'>un</cue>believ<cue type='negation' ref='X1'>able</cue>"
        "</xcope> claims.</sentence></Document>",
        encoding="utf-8",
    )
    out_path = tmp_path / "t.conll"
    code, out, err = run(capsys, "convert", str(xml), "--format", "bioscope", "-o", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "negeval: usage-error: cannot write sentence ('A', 0): instance 0 has two cue elements on token 0\n"
    assert not out_path.exists()


def test_detect_coord_refuses_a_tab_in_a_cell(capsys, tmp_path):
    xml = tmp_path / "s.xml"
    xml.write_text(
        '<DOCUMENT><SENTENCE><cue type="negation" ID="1"><W>neither</W></cue><xcope ID="1"><W>New&#9;York</W>'
        '</xcope><cue type="negation" ID="1"><W>nor</W></cue><xcope ID="1"><W>Boston</W></xcope></SENTENCE>'
        "</DOCUMENT>\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "d.patch"
    code, out, err = run(capsys, "detect-coord", str(xml), "--format", "sfu", "-o", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "negeval: usage-error: cannot write sentence ('s', 0): a cell of token 1 holds a tab, "
        "line feed or carriage return\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("encoding", ["direct", "nested"])
def test_dep_encode_prints_the_encoder_diagnostics(capsys, encoding):
    from negeval.depgraph import EncodingKind, encode_corpus

    path = str(fixture_path("roundtrip.conll"))
    code, out, err = run(capsys, "dep-encode", path, "--encoding", encoding)
    assert code == EXIT_OK
    assert err == (
        "negeval: warning: affix-promoted at rt#0: instance 0 has sub-token elements; encoded at whole tokens\n"
    )
    assert out == encode_corpus(load_sem_conll(path), EncodingKind(encoding))


def test_dep_encode_warns_for_a_nested_graph_that_does_not_decode(capsys, tmp_path):
    # cue {0} with scope {0, 1}, cue {1} with scope {3}, cue {3} with no scope
    rows = [
        "a\ta\ta\t_\t_\t_\t_\t_\t_\t_",
        "b\t_\tb\t_\tb\t_\t_\t_\t_\t_",
        "c\t_\t_\t_\t_\t_\t_\t_\t_\t_",
        "d\t_\t_\t_\t_\td\t_\td\t_\t_",
    ]
    lines = [f"n\t0\t{i}\t{row[0]}\t_\t_\t_{row[1:]}" for i, row in enumerate(rows)]
    path = tmp_path / "n.conll"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "dep-encode", str(path), "--encoding", "nested")
    assert code == EXIT_OK
    assert err == "negeval: warning: nested-lossy at n#0: the nested graph does not decode to these instances\n"


def test_a_graph_error_names_the_file_and_the_block(capsys, tmp_path):
    # the cycle of test_depgraph.test_decode_rejects_nesting_cycles, as the second block
    path = tmp_path / "n.graph"
    path.write_text(
        "#doc d\n#sent 0\n1\tx\t_\n\n#doc d\n#sent 1\n1\ta\t0:CUE|2:S\n2\tb\t0:CUE|1:S\n3\tc\t_\n4\td\t_\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "dep-decode", str(path), "--encoding", "nested")
    assert (code, out) == (EXIT_GRAPH, "")
    assert err == f"negeval: graph-error: {path}:5: cycle in nested encoding through representatives (0, 1, 0)\n"


@pytest.mark.parametrize("option", [["--format", "sfu"], ["--tokenizer", "rules"]])
def test_dep_decode_takes_no_input_options(capsys, tmp_path, option):
    path = tmp_path / "g.graph"
    path.write_text("#doc d\n#sent 0\n1\tx\t_\n", encoding="utf-8")
    code, out, _ = run(capsys, "dep-decode", str(path), *option)
    assert (code, out) == (EXIT_USAGE, "")


def _split_with_assignment(capsys, tmp_path, corpus_text, assignment_text):
    corpus, assignment = tmp_path / "c.conll", tmp_path / "a.tsv"
    corpus.write_text(corpus_text, encoding="utf-8", newline="")
    assignment.write_text(assignment_text, encoding="utf-8", newline="")
    code, out, err = run(
        capsys, "split", str(corpus), "--assignment", str(assignment), "--output-prefix", str(tmp_path / "p")
    )
    return code, out, err, assignment


def test_split_refuses_a_document_assigned_twice(capsys, tmp_path):
    code, out, err, assignment = _split_with_assignment(
        capsys, tmp_path, "c\t0\t0\tx\tx\tNN\t_\t***\n", "c\ttrain\n# the same document\nc\ttest\n"
    )
    assert (code, out) == (EXIT_SPLIT, "")
    assert err == f"negeval: split-error: {assignment}:3: document 'c' is assigned twice\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tsv", "c.conll"]


def test_split_names_the_assignment_file_and_line(capsys, tmp_path):
    code, out, err, assignment = _split_with_assignment(
        capsys, tmp_path, "c\t0\t0\tx\tx\tNN\t_\t***\n", "\nc\ttrain\textra\n"
    )
    assert (code, out) == (EXIT_SPLIT, "")
    assert err == f"negeval: split-error: {assignment}:2: expected 'doc_id<TAB>part', got 'c\\ttrain\\textra'\n"


def test_split_assignment_reads_lines_as_the_corpus_reader_does(capsys, tmp_path):
    # "\x85" ends a line for str.splitlines, but not in a CoNLL file
    code, _, err, _ = _split_with_assignment(
        capsys, tmp_path, "a\x85b\t0\t0\tx\tx\tNN\t_\t***\n", "a\x85b\ttest\r\n \n"
    )
    assert code == EXIT_OK
    assert err.splitlines()[-1].endswith("p.test.conll (1 sentences)")
    assert load_sem_conll(tmp_path / "p.test.conll").sentences[0].doc_id == "a\x85b"


def test_evaluate_reads_a_byte_order_marked_gold_as_the_plain_one(capsys, tmp_path, monkeypatch):
    # the JSON report names its inputs, so both golds are read as "gold.conll"
    gold = Path(GOLD).read_bytes()
    outputs = []
    for name, data in (("plain", gold), ("marked", codecs.BOM_UTF8 + gold)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "gold.conll").write_bytes(data)
        monkeypatch.chdir(tmp_path / name)
        outputs.append([
            run(capsys, "evaluate", "--gold", "gold.conll", "--pred", SYS_A, "--out", out)
            for out in ("text", "json", "tsv")
        ])
    assert outputs[0][0][0] == EXIT_OK
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("ratios, shown", [("50/50", "(50, 50)"), ("60/20/10/10", "(60, 20, 10, 10)")])
def test_split_ratios_need_three_parts(capsys, tmp_path, ratios, shown):
    code, out, err = run(capsys, "split", GOLD, "--ratios", ratios, "--output-prefix", str(tmp_path / "p"))
    assert (code, out) == (EXIT_SPLIT, "")
    assert err == f"negeval: split-error: split ratios must have three parts, got {shown}\n"
    assert not list(tmp_path.iterdir())


def test_split_checks_the_ratios_before_it_reads_the_input(capsys, tmp_path):
    missing = tmp_path / "missing.conll"
    code, out, err = run(capsys, "split", str(missing), "--ratios", "50/50", "--output-prefix", str(tmp_path / "p"))
    assert (code, out) == (EXIT_SPLIT, "")
    assert err == "negeval: split-error: split ratios must have three parts, got (50, 50)\n"


def test_split_refuses_ratios_that_are_not_numbers(capsys, tmp_path):
    code, out, err = run(capsys, "split", GOLD, "--ratios", "8o/10/10", "--output-prefix", str(tmp_path / "p"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "negeval: usage-error: --ratios must look like 80/10/10, got '8o/10/10'\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["convert", "dep-encode", "detect-coord"])
def test_writers_refuse_a_tab_in_the_document_id(capsys, tmp_path, command):
    xml = tmp_path / "t.xml"
    xml.write_text(
        "<Document><DocumentID>A&#9;B</DocumentID><sentence id='s'><xcope id='X1'>"
        "<cue type='negation' ref='X1'>neither</cue> Mary <cue type='negation' ref='X1'>nor</cue> Sam"
        "</xcope> came.</sentence></Document>",
        encoding="utf-8",
    )
    out_path = tmp_path / "t.out"
    code, out, err = run(capsys, command, str(xml), "--format", "bioscope", "-o", str(out_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "negeval: usage-error: cannot write sentence ('A\\tB', 0): its document id holds a tab, "
        "line feed or carriage return\n"
    )
    assert not out_path.exists()


def test_main_runs_alike_with_the_cached_parser(capsys):
    from negeval.cli import build_parser

    calls = [
        ["stats", GOLD],
        ["evaluate", "--gold", GOLD, "--pred", SYS_A, "--out", "tsv"],
        ["evaluate", "--gold", GOLD],  # --pred is missing
        ["--version"],
        ["stats", GOLD, "--format", "conll"],
    ]
    cached = [(main(argv), *capsys.readouterr()) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append((main(argv), *capsys.readouterr()))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
