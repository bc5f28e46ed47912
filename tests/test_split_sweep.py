"""The two-process sweep: a forked child fits every other (length, fold)
job while this process fits the rest.

The split sweep is checked against the one-process sweep on random
tables, byte for byte; forked.map_jobs is checked against a plain loop
with failing jobs and dying children; every error must carry the
one-process message, and no sweep may leave a child behind, even when
its caller is killed."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import callselect
from callselect import ConfigError, FeatureVectorTable, evaluate, forked, sweep, sweep_folds


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the process may use: 1 keeps every job here, 2
    splits, on a one-CPU machine too (fork needs no second CPU). Returns
    the pids of the children forked since."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()
        return forks

    return set_cpus


def _outcome(fn):
    """fn()'s result or its ConfigError's message; no child may outlive it."""
    try:
        return fn()
    except ConfigError as exc:
        return str(exc)
    finally:
        _no_child_left()


def _table(rng, n_per_class=12, d=4):
    n = 2 * n_per_class
    return FeatureVectorTable(
        sample_ids=tuple(f"s{i}" for i in range(n)),
        calls=tuple(f"c{j}" for j in range(d)),
        weights=np.round(rng.uniform(0, 1, (n, d)), 1),
        labels=tuple(str(x) for x in rng.permutation(["M"] * n_per_class + ["B"] * n_per_class)),
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("folds, lengths, trees", [
    (2, [1, 4], 3),
    (4, [3], 5),
    (3, [2], 4),  # an odd job count: the caller fits one more
    (5, [1, 2, 3], 1),
], ids=["k2", "single-length", "odd-jobs", "one-tree"])
def test_split_sweep_equals_serial(cpus, seed, folds, lengths, trees):
    rng = np.random.default_rng(seed)
    fvt = _table(rng, n_per_class=int(rng.integers(folds, 15)))
    ranking = [str(c) for c in rng.permutation(fvt.calls)]
    run = [lambda: sweep(fvt, ranking, lengths, folds=folds, seed=seed, trees_count=trees,
                         max_depth=4),
           lambda: sweep_folds(fvt, [ranking] * folds, lengths, seed=seed, trees_count=trees,
                               max_depth=4)]
    cpus(1)
    serial = [_outcome(fn) for fn in run]
    forks = cpus(2)
    split = [_outcome(fn) for fn in run]
    assert len(forks) == 2
    assert json.dumps(split[0].to_json_dict()) == json.dumps(serial[0].to_json_dict())
    for (row, oof), (want_row, want_oof) in zip(split[1], serial[1], strict=True):
        assert row == want_row and np.array_equal(oof, want_oof)


def _jobs(bad, die_at, parent, ran):
    """A job function: job j gives 10 * j + 1, raises for j in bad, and
    ends the child (not the parent) at job die_at. Each process appends
    the jobs it starts to its own copy of ran."""
    def fn(j):
        ran.append(j)
        if j == die_at and os.getpid() != parent:
            os._exit(3)
        if j in bad:
            raise ConfigError(f"job {j} failed")
        return 10 * j + 1
    return fn


@pytest.mark.parametrize("seed", range(40))
def test_map_jobs_equals_a_loop(cpus, capfd, seed):
    # The first failing job in job order wins, wherever it ran and whether
    # or not the child lived to report it.
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 9))
    bad = {int(j) for j in range(count) if rng.random() < 0.2}
    die_at = int(rng.integers(0, count)) if seed % 2 else None
    first_bad = min(bad, default=None)
    want = [10 * j + 1 for j in range(count)] if first_bad is None else f"job {first_bad} failed"
    forks, ran = cpus(2), []
    assert _outcome(lambda: forked.map_jobs(_jobs(bad, die_at, os.getpid(), ran), count)) == want
    assert len(forks) == (count >= 2)
    if count >= 2 and not bad and die_at is None:
        assert ran == list(range(0, count, 2))  # the child ran the rest
    assert capfd.readouterr() == ("", "")  # the child wrote nothing


def _train_patched(monkeypatch, child=None, caller=None):
    """evaluate.train with child() run first in the child and caller() in
    this process."""
    train, parent = evaluate.train, os.getpid()

    def patched(*args, **kwargs):
        hook = caller if os.getpid() == parent else child
        if hook:
            hook()
        return train(*args, **kwargs)

    monkeypatch.setattr(evaluate, "train", patched)


def _sweep_args():
    rng = np.random.default_rng(7)
    fvt = _table(rng)
    return fvt, list(fvt.calls), [2, 3]


def test_failed_fork_leaves_the_sweep_here(cpus, monkeypatch):
    fvt, ranking, lengths = _sweep_args()
    cpus(1)
    serial = sweep(fvt, ranking, lengths, folds=3, trees_count=3)

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(2)
    assert _outcome(lambda: sweep(fvt, ranking, lengths, folds=3, trees_count=3)) == serial


@pytest.mark.parametrize("fits", [0, 1], ids=["at-once", "after-one-fit"])
def test_child_that_ends_without_its_result_leaves_the_sweep_here(cpus, monkeypatch, fits):
    fvt, ranking, lengths = _sweep_args()
    cpus(1)
    serial = sweep(fvt, ranking, lengths, folds=3, trees_count=3)
    done = []

    def dies():
        if len(done) == fits:
            os._exit(3)
        done.append(1)

    _train_patched(monkeypatch, child=dies)
    forks = cpus(2)
    assert _outcome(lambda: sweep(fvt, ranking, lengths, folds=3, trees_count=3)) == serial
    assert len(forks) == 1


def test_interrupted_sweep_kills_and_reaps_the_child(cpus, monkeypatch):
    fvt, ranking, lengths = _sweep_args()

    def interrupted():
        raise KeyboardInterrupt

    _train_patched(monkeypatch, child=lambda: time.sleep(60), caller=interrupted)
    forks = cpus(2)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        sweep(fvt, ranking, lengths, folds=3, trees_count=3)
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 1
    _no_child_left()


# Per fold, the positions of its ranking that hold an unknown call. With
# 4 folds and lengths 1 and 2, job (length index l, fold i) is 4 * l + i;
# the child fits the odd jobs.
@pytest.mark.parametrize("ghosts, first", [
    ({1: 0}, "ghost1"),  # job 1, child only
    ({1: 0, 2: 0}, "ghost1"),  # jobs 1 and 2: the child's first
    ({2: 0, 3: 0}, "ghost2"),  # jobs 2 and 3: the caller's first
    ({0: 1, 3: 1}, "ghost0"),  # jobs 4 and 7, after every length-1 job
    ({3: 1}, "ghost3"),  # job 7, the child's last
], ids=["child-only", "child-first", "caller-first", "second-length", "child-last"])
@pytest.mark.parametrize("child_dies", [False, True], ids=["child-lives", "child-dies"])
def test_split_error_is_the_serial_error(cpus, monkeypatch, capfd, ghosts, first, child_dies):
    fvt, ranking, _ = _sweep_args()
    rankings = [list(ranking) for _ in range(4)]
    for fold, pos in ghosts.items():
        rankings[fold][pos] = f"ghost{fold}"

    def run():
        return sweep_folds(fvt, rankings, [1, 2], trees_count=2)

    cpus(1)
    serial = _outcome(run)
    assert serial == f"unknown call: '{first}'"
    if child_dies:  # the child's first fit ends it, so this process refits its jobs
        _train_patched(monkeypatch, child=lambda: os._exit(3))
    forks = cpus(2)
    assert _outcome(run) == serial
    assert len(forks) == 1
    assert capfd.readouterr() == ("", "")  # the child wrote nothing


def _running(pid):
    """Whether pid names a process that has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_KILLED_CALLER = textwrap.dedent("""
    import os, sys, time
    sys.path.insert(0, {src!r})
    import numpy as np
    from callselect import FeatureVectorTable, evaluate, sweep

    os.sched_getaffinity = lambda pid: {{0, 1}}
    fork, train = os.fork, evaluate.train

    def reported_fork():
        pid = fork()
        if pid:
            print(pid, flush=True)
        return pid

    def slow_train(*args, **kwargs):
        time.sleep(0.5)
        return train(*args, **kwargs)

    os.fork, evaluate.train = reported_fork, slow_train
    rng = np.random.default_rng(0)
    fvt = FeatureVectorTable(tuple(f"s{{i}}" for i in range(20)), ("a", "b", "c"),
                             rng.uniform(0, 1, (20, 3)), ("M", "B") * 10)
    sweep(fvt, ["a", "b", "c"], [1, 2, 3], folds=10, trees_count=2)
""")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_child_of_a_killed_caller_stops_after_its_fit():
    # 30 jobs of 0.5 s each: the child's 15 would run 7.5 s without the
    # parent check between fits.
    src = str(Path(callselect.__file__).parents[1])
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER.format(src=src)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = caller.stdout.readline()
        assert line.strip().isdigit(), caller.stderr.read()
        child = int(line)
        time.sleep(1.0)
        assert _running(child)
    finally:
        caller.kill()
        caller.wait(timeout=30)
        caller.stdout.close()
        caller.stderr.close()
    deadline = time.monotonic() + 4.0
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)


def test_cli_import_loads_no_fork_helper():
    src = str(Path(callselect.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import callselect.cli; "
            "print('callselect.forked' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
