"""Run one workload's CLI chain in this process, round after round.

Usage: python3 chain.py PLAN_JSON

The plan (written by run.py) gives the source directory, the operations
as argv lists for callselect.cli.main, the seconds to measure, whether
to trace, and where to write the result. Every round runs every
operation once; rounds repeat until the seconds are used up, so a run
always attempts whole rounds. Input generation happens in the parent, so
this process's peak RSS is the chain's own.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _written(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return []
    try:
        return list(json.loads(lines[-1]).get("written", []))
    except (json.JSONDecodeError, AttributeError):
        return []


def run_chain(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from callselect.cli import main as cli_main

    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < plan["seconds"]:
        ops = []
        if tracer:
            tracer.round = len(rounds)
        for argv in plan["ops"]:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.begin("cli." + argv[0]) if tracer else None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli_main(argv)
                except Exception:  # a crash is one failed operation; the chain goes on
                    traceback.print_exc()
                    rc = -1
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
            written = _written(out.getvalue()) if rc == 0 else []
            ops.append({
                "rc": rc,
                "seconds": seconds,
                "digest": _digest(written) if written else None,
                "stderr": err.getvalue()[-2000:] if rc != 0 else "",
            })
        rounds.append({"seconds": sum(op["seconds"] for op in ops), "ops": ops})

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        Path(plan["trace_out"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result


if __name__ == "__main__":
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    Path(plan["result"]).write_text(json.dumps(run_chain(plan)), encoding="utf-8")
