"""Work on two processes: a child made with os.fork does its share and
writes it to a pipe while the caller does the rest and then reads it.
The records read (ingest.read_records_jsonl), the trace-log parse
(ingest.ingest_corpus) and the cross-validation sweep
(evaluate.sweep_folds) import this only when they run, so importing the
CLI never loads it."""
from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
import threading
from typing import BinaryIO, Callable, TypeVar

from .errors import ConfigError

T = TypeVar("T")


def _can_fork() -> bool:
    """Whether a forked child could share the work: os.fork exists, this
    process may run on a second CPU, and no thread other than this one
    runs (a forked child holds only the forking thread; the children here
    call no BLAS, so numpy's native threads do not count)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return hasattr(os, "fork") and (cpus or 1) >= 2 and threading.active_count() == 1


def run_forked(child: Callable[[BinaryIO], None], caller: Callable[[BinaryIO], T]) -> T | None:
    """caller(pipe)'s result, where pipe reads what child(pipe) writes in a
    child made with os.fork. None, calling neither, when _can_fork is
    false; None when os.fork fails or the child ends without its result
    (caller meets EOFError or pickle.UnpicklingError), so the caller does
    the work alone. The child writes to the pipe only, runs with the cycle
    collector off and leaves by os._exit. When caller raises, the child is
    killed; it is reaped before this returns or raises."""
    if not _can_fork():
        return None
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child: never returns
        code = 1
        try:
            os.close(r)
            gc.disable()
            with os.fdopen(w, "wb") as pipe:
                child(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as pipe:
            try:
                return caller(pipe)
            except (EOFError, pickle.UnpicklingError):
                return None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def _run(fn: Callable[[int], T], jobs, results: list, parent: int | None = None) -> None:
    """Set results[j] = fn(j) for the jobs in order, up to the first that
    raises a ConfigError. Given the parent's pid (in the child), exit as
    soon as the parent is gone, so a killed caller leaves no child running
    past one job."""
    for j in jobs:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        try:
            results[j] = fn(j)
        except ConfigError:
            return


def map_jobs(fn: Callable[[int], T], count: int) -> list[T]:
    """[fn(0), ..., fn(count - 1)] for an fn that returns no None, reads no
    other job's result and raises the same ConfigError when run again.
    With 2 or more jobs, a child forked by run_forked computes the odd jobs
    and pickles them back. Each process stops at its first ConfigError;
    then every job still missing runs here in order, so the first failing
    job raises its error, as the serial loop would, and jobs a child left
    undone (none was forked, or it ended without its result) are done."""
    results: list = [None] * count
    if count >= 2:
        parent = os.getpid()

        def child(pipe):
            _run(fn, range(1, count, 2), results, parent)
            pickle.dump(results[1::2], pipe)

        def caller(pipe):
            _run(fn, range(0, count, 2), results)
            results[1::2] = pickle.load(pipe)

        run_forked(child, caller)
    for j in range(count):
        if results[j] is None:
            results[j] = fn(j)
    return results
