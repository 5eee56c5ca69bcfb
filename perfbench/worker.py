"""Long-lived process that runs operations for ``run.py``.

It reads one JSON command per line on stdin and answers each with one JSON
line on stdout:

- ``{"cmd": "load", "gold": G, "pred": P}`` loads two CoNLL files to score;
- ``{"cmd": "score", "trace": bool}`` runs ``full_report(gold, pred).to_json()``
  on them and returns the JSON text;
- ``{"cmd": "cli", "argvs": [...], "trace": bool}`` runs
  ``negeval.cli.main(argv)`` for each argv in turn and returns the exit codes;
- ``{"cmd": "quit", "spans": PATH}`` writes the recorded spans to PATH, if
  any, and exits.

Every answer carries the operation's wall time and the process's max RSS.
A traced operation also carries the tracer's summary.  Scoring a corpus
already in memory is what a training loop or ablation sweep does; running
it here keeps the memory and garbage-collection load of corpus generation
out of its numbers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import negeval.cli
import negeval.report
from negeval.conll import load_sem_conll
from tracing import Tracer


def _operation(command: dict, corpora, tracer: Tracer, op_id: int) -> dict:
    traced = command["trace"]
    if traced:
        tracer.install()
        tracer.begin_op(op_id)
    try:
        reply = {}
        start = time.perf_counter()
        if command["cmd"] == "score":
            reply["json"] = negeval.report.full_report(*corpora).to_json()
        elif traced:
            reply["codes"] = [tracer.call("cli.main", negeval.cli.main, a) for a in command["argvs"]]
        else:
            reply["codes"] = [negeval.cli.main(argv) for argv in command["argvs"]]
        reply["wall_s"] = time.perf_counter() - start
        if traced:
            reply["trace"] = tracer.end_op()
        return reply
    finally:
        if traced:
            tracer.uninstall()


def main() -> int:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr  # nothing the package prints may reach the replies
    tracer = Tracer()
    corpora = None
    op_id = 0
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "quit":
            if command.get("spans"):
                tracer.dump(command["spans"])
            return 0
        reply = {}
        try:
            if command["cmd"] == "load":
                corpora = (load_sem_conll(command["gold"]), load_sem_conll(command["pred"]))
            else:
                op_id += 1
                reply = _operation(command, corpora, tracer, op_id)
        except Exception:  # a failed operation is reported, and the next one still runs
            reply["error"] = traceback.format_exc()
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
