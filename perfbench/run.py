"""negeval benchmark: three CD-SCO-sized workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop with one
client and one operation in flight:

- ``evaluate-cdsco``: one fresh-interpreter CLI ``evaluate --out json`` on a
  gold/predicted pair shaped like CD-SCO.
- ``score-dense``: ``full_report(gold, pred).to_json()`` in a long-lived
  worker that loaded a pair in which every sentence is negated.
- ``transcode``: three fresh-interpreter CLI commands in sequence,
  ``convert --strip-punct``, ``dep-encode`` and ``dep-decode`` (direct).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same operations in a worker, alternating
untraced and traced ones, and reports per-layer metrics.  Every
operation's output is checked; a failed check counts as a failed
operation.  Human-readable lines come first and the last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-ups per run, spread over the run so that they meet the same drift in
#: host speed as the operations; setup_s is their median.  score-dense's
#: set-up takes 7-9 s, so it is repeated less to keep its runs short.
SETUP_REPEATS = {"evaluate-cdsco": 5, "score-dense": 3, "transcode": 5}
#: Fresh interpreters timed for cli.import_s in a traced run.
IMPORT_SAMPLES = 5
#: The package runs from ``src/`` uninstalled, so there is no console
#: script; ``python -m negeval.cli`` would exit 0 without doing anything, as
#: cli.py has no ``__main__`` guard.
CLI_BOOT = "from negeval.cli import console_main; console_main()"
IMPORT_PROBE = "import time; t = time.perf_counter(); import negeval.cli; print(time.perf_counter() - t)"

WORKLOADS = ("evaluate-cdsco", "score-dense", "transcode")

PER_LAYER_SELF = (
    "cli.main",
    "conll.parse_sem_conll",
    "model.validate",
    "model.strip_punctuation",
    "alignment.align_corpus.exact",
    "alignment.align_corpus.partial",
    "metrics.cue_scores",
    "metrics.scope_match",
    "metrics.scope_tokens",
    "metrics.instance_scores",
    "metrics.correct_sentence_ratio",
    "report.full_report",
    "report.render",
    "conll.write_sem_conll",
    "depgraph.encode_corpus",
    "depgraph.decode_corpus",
)
PER_LAYER_COUNTS = (
    ("conll.parse_sem_conll.sentences", "count"),
    ("conll.parse_sem_conll.tokens", "count"),
    ("model.strip_punctuation.elements_removed", "count"),
    ("model.strip_punctuation.instances_dropped", "count"),
    ("conll.write_sem_conll.bytes", "B"),
    ("depgraph.edges", "count"),
)


class Failure(Exception):
    """An output check that did not pass."""


class Op(NamedTuple):
    """One operation's outcome; ``problem`` is why it failed, if it did."""

    wall_s: float | None
    maxrss_kb: int
    trace: dict | None
    problem: str | None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_cli(argv: list[str], err_path: Path) -> tuple[float, int, int]:
    """Run one CLI command in a fresh interpreter: (wall s, exit code, max RSS kB)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_BOOT, *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=_env(), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class Worker:
    """A ``worker.py`` process, driven one JSON line at a time."""

    def __init__(self, err_path: Path) -> None:
        with open(err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("worker.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=_env(), cwd=ROOT, text=True,
            )

    def ask(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self, spans: Path | None = None) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "quit", "spans": spans and str(spans)}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


class Bench:
    """One workload's inputs, its operation and the checks on its outputs."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.worker: Worker | None = None
        self.verified: dict[str, bytes] = {}

    # -- setup -----------------------------------------------------------

    def setup(self, start_worker: bool) -> None:
        """Generate the corpora, write the input files and, for score-dense,
        load them into a fresh worker.  This is what setup_s times."""
        from corpora import generate
        from negeval.conll import write_sem_conll

        self.corpora = generate(self.workload, self.seed)
        self.gold_path = self.work / "gold.conll"
        self.gold_path.write_text(write_sem_conll(self.corpora.gold), encoding="utf-8", newline="")
        if self.corpora.pred is not None:
            self.pred_path = self.work / "pred.conll"
            self.pred_path.write_text(
                write_sem_conll(self.corpora.pred), encoding="utf-8", newline=""
            )
        if start_worker:
            self.worker = Worker(self.work / "worker-stderr.txt")
            if self.workload == "score-dense":
                reply = self.worker.ask(cmd="load", gold=str(self.gold_path), pred=str(self.pred_path))
                if "error" in reply:
                    raise RuntimeError(f"worker could not load the corpora:\n{reply['error']}")

    def stop_worker(self, spans: Path | None = None) -> None:
        if self.worker is not None:
            self.worker.close(spans)
            self.worker = None

    def prepare_checks(self) -> None:
        """Reference results for the output checks, computed once per run."""
        import reference

        if self.workload == "transcode":
            self.expected = reference.strip(self.corpora.gold)
            return
        self.expected = reference.recount(self.corpora.gold, self.corpora.pred)
        if self.workload == "evaluate-cdsco":
            from negeval.conll import load_sem_conll
            from negeval.report import full_report

            # the CLI names each corpus after its path, and so does load_sem_conll
            gold, pred = load_sem_conll(self.gold_path), load_sem_conll(self.pred_path)
            self.in_process = full_report(gold, pred).to_json().encode("utf-8")

    # -- operations ------------------------------------------------------

    def argvs(self) -> list[list[str]]:
        work = self.work
        if self.workload == "evaluate-cdsco":
            return [[
                "evaluate", "--gold", str(self.gold_path), "--pred", str(self.pred_path),
                "--out", "json", "-o", str(work / "report.json"),
            ]]
        return [
            ["convert", str(self.gold_path), "--strip-punct", "-o", str(work / "stripped.conll")],
            ["dep-encode", str(work / "stripped.conll"), "--encoding", "direct",
             "-o", str(work / "stripped.graph")],
            ["dep-decode", str(work / "stripped.graph"), "--encoding", "direct",
             "-o", str(work / "decoded.conll")],
        ]

    def _clear_outputs(self) -> None:
        for name in ("report.json", "stripped.conll", "stripped.graph", "decoded.conll"):
            (self.work / name).unlink(missing_ok=True)

    def run_op(self, traced: bool | None) -> Op:
        """Run one operation and check its output.

        ``traced=None`` runs CLI commands as fresh interpreters; otherwise the
        operation runs in the worker, with or without tracing.
        """
        self._clear_outputs()
        argvs = self.argvs()
        summary = problem = None
        score_json = b""
        if self.workload == "score-dense" or traced is not None:
            if self.workload == "score-dense":
                reply = self.worker.ask(cmd="score", trace=bool(traced))
            else:
                reply = self.worker.ask(cmd="cli", argvs=argvs, trace=traced)
            wall, rss, summary = reply.get("wall_s"), reply["maxrss_kb"], reply.get("trace")
            score_json = reply.get("json", "").encode("utf-8")
            if "error" in reply:
                problem = reply["error"].strip().splitlines()[-1]
            for argv, code in zip(argvs, reply.get("codes", ())):
                if code != 0:
                    problem = f"{argv[0]} exited with code {code}"
                    break
        else:
            wall, rss = 0.0, 0
            for argv in argvs:
                err = self.work / "stderr.txt"
                step_wall, code, step_rss = _run_cli(argv, err)
                wall += step_wall
                rss = max(rss, step_rss)
                if code != 0:
                    tail = err.read_text(encoding="utf-8", errors="replace").strip()[-300:]
                    problem = f"{argv[0]} exited with code {code}: {tail}"
                    break
        if problem is None:
            try:
                self.check(score_json)
            except Failure as exc:
                problem = str(exc)
            except Exception as exc:  # output the checks cannot even read
                problem = f"unreadable output: {exc!r:.300}"
        return Op(wall, rss, summary, problem)

    # -- output checks ---------------------------------------------------

    def _read(self, name: str) -> bytes:
        path = self.work / name
        if not path.is_file():
            raise Failure(f"no output {name}")
        return path.read_bytes()

    def _once(self, key: str, data: bytes, check) -> None:
        """Run ``check`` on the first output of each kind; a later output must
        repeat the verified bytes or pass the check itself."""
        if self.verified.get(key) == data:
            return
        problems = check(data)
        if problems:
            raise Failure(f"{key}: " + "; ".join(problems[:3]))
        self.verified.setdefault(key, data)

    def check(self, score_json: bytes | None) -> None:
        import reference
        from negeval.conll import parse_sem_conll

        if self.workload == "score-dense":
            self._once("report", score_json, lambda data: (
                reference.report_mismatches(data.decode("utf-8"), self.expected)
                + (["differs from the first operation's report"] if "report" in self.verified else [])
            ))
        elif self.workload == "evaluate-cdsco":
            self._once("report", self._read("report.json"), lambda data: (
                reference.report_mismatches(data.decode("utf-8"), self.expected)
                + ([] if data == self.in_process else ["differs from in-process full_report"])
            ))
        else:
            self._once("stripped", self._read("stripped.conll"), lambda data: (
                [] if reference.as_records(parse_sem_conll(data)) == self.expected
                else ["convert --strip-punct output differs from the stripped input"]
            ))
            self._once("decoded", self._read("decoded.conll"), lambda data: (
                reference.roundtrip_mismatches(self.expected, parse_sem_conll(data))
            ))


# ---------------------------------------------------------------------------


def _end_to_end(bench: Bench, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup: list[float] = []

    def set_up() -> None:
        bench.stop_worker()
        start = time.perf_counter()
        bench.setup(start_worker=bench.workload == "score-dense")
        setup.append(time.perf_counter() - start)

    set_up()
    bench.prepare_checks()
    repeats = SETUP_REPEATS[bench.workload]

    attempted = failed = 0
    walls: list[float] = []
    peak_kb = 0
    problems: list[str] = []
    clock = 0.0  # time spent in timed operations
    # The first operation warms the file cache and compiles bytecode; its
    # time is not counted, but its output is checked like any other.
    timed = False
    while clock < seconds:
        if len(setup) < repeats and clock >= len(setup) * seconds / repeats:
            set_up()  # the same seed, so the same inputs the checks expect
        start = time.perf_counter()
        op = bench.run_op(traced=None)
        attempted += 1
        if op.problem:
            failed += 1
            problems.append(op.problem)
        peak_kb = max(peak_kb, op.maxrss_kb)
        if timed:
            clock += time.perf_counter() - start
            if op.wall_s is not None:
                walls.append(op.wall_s)
        timed = True
    while len(setup) < repeats:  # long operations leave the last ones for the end
        set_up()
    if not walls:
        raise SystemExit("perfbench: no operation ran: " + "; ".join(problems[:3]))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "sentences_per_s": (len(bench.corpora.gold.sentences) * len(walls) / sum(walls), "sentences/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    print(f"operations timed: {len(walls)} (op_s.p50 is their median); set-ups: {len(setup)}")
    print(f"error_rate: {failed / attempted:.4f} ratio ({failed} failed / {attempted} attempted)")
    return metrics, attempted, failed, problems


def _import_seconds() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def _per_layer(bench: Bench, seconds: float, spans: Path) -> tuple[dict, int, int, list[str]]:
    import_s = _import_seconds()
    bench.setup(start_worker=True)
    bench.prepare_checks()

    attempted = failed = 0
    plain: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    problems: list[str] = []
    began = None
    # Untraced and traced operations alternate, after one untraced warm-up.
    while began is None or time.perf_counter() - began < seconds or not (traced and plain or failed):
        with_trace = began is not None and len(traced) < len(plain)
        op = bench.run_op(traced=with_trace)
        attempted += 1
        if op.problem:
            failed += 1
            problems.append(op.problem)
        elif with_trace:
            traced.append(op.wall_s)
            summaries.append(op.trace)
        elif began is not None:
            plain.append(op.wall_s)
        if began is None:
            began = time.perf_counter()
    bench.stop_worker(spans)
    if not (traced and plain):
        raise SystemExit("perfbench: no traced and untraced operation passed: " + "; ".join(problems[:3]))

    counts = [s["counts"] for s in summaries]
    if any(c != counts[0] for c in counts):
        failed += 1
        problems.append("traced counts differ between operations")
    count = counts[0]

    metrics = {"cli.import_s": (import_s, "s")}
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (statistics.median([s["self_s"].get(name, 0.0) for s in summaries]), "s")
    for name, unit in PER_LAYER_COUNTS:
        metrics[name] = (count.get(name, 0), unit)
    gold = count.get("alignment.exact.gold", 0)
    metrics["alignment.exact.matched_ratio"] = (
        count.get("alignment.exact.matched", 0) / gold if gold else 0.0, "ratio",
    )
    metrics["runtime.gc_s"] = (statistics.median([s["gc_s"] for s in summaries]), "s")
    # the operation's wall time less the tracer's counting, which no span sees
    metrics["runtime.gc_share"] = (
        statistics.median([s["gc_s"] / (w - s["counting_s"]) for s, w in zip(summaries, traced)]),
        "ratio",
    )
    metrics["runtime.gc_gen2_collections"] = (
        statistics.median([s["gc_gen2"] for s in summaries]), "count",
    )
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    print(f"operations in one worker: {len(plain)} untraced, median {statistics.median(plain):.4f} s; "
          f"{len(traced)} traced, median {statistics.median(traced):.4f} s")
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "negeval" / "cli.py").is_file():
        print(f"perfbench: no negeval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpora import shape_of

    # The in-process reference report would print negeval's warnings about
    # dropped instances here; the operations themselves still print theirs.
    logging.getLogger("negeval").addHandler(logging.NullHandler())

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        if args.trace:
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            metrics, attempted, failed, problems = _per_layer(bench, args.seconds, spans)
            print(f"spans: {spans.relative_to(ROOT)}")
        else:
            metrics, attempted, failed, problems = _end_to_end(bench, args.seconds)
    finally:
        bench.stop_worker()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {sys.version.split()[0]}")
    print("corpus shape: " + json.dumps(shape_of(bench.corpora)))
    for problem in problems[:10]:
        print(f"FAILED: {problem}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name.ljust(width)}  {shown} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
