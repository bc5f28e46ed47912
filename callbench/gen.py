"""Seeded input generators for the benchmark workloads.

Both generators return the truth they planted next to the files they
write, so the output checks can compare the program's results with
numbers the program never saw. The program itself receives only the
files: a manifest plus strace logs, or a records JSONL file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Salts keep the streams of different generators apart for one --seed.
_STRACE_SALT = 7101
_WIDE_SALT = 7202
_PLANTED_BASE_RATE = 1.0

# Call name and the argument text that follows "name(" on a completed line.
_SYSCALLS = (
    ("read", '3, "\\177ELF\\2\\1\\1"..., 832) = 832'),
    ("write", '1, "ok\\n", 3) = 3'),
    ("openat", 'AT_FDCWD, "/etc/ld.so.cache", O_RDONLY|O_CLOEXEC) = 3'),
    ("close", "3) = 0"),
    ("fstat", "3, {st_mode=S_IFREG|0644, st_size=27002, ...}) = 0"),
    ("newfstatat", 'AT_FDCWD, "/proc/self", {st_mode=S_IFDIR|0555, ...}, 0) = 0'),
    ("mmap", "NULL, 8192, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0) = 0x7f2a"),
    ("munmap", "0x7f2a3c000000, 27002) = 0"),
    ("mprotect", "0x7f2a3c1f0000, 16384, PROT_READ) = 0"),
    ("brk", "NULL) = 0x55d0c8a4c000"),
    ("rt_sigaction", "SIGINT, {sa_handler=0x55d0, sa_mask=[], sa_flags=SA_RESTORER}, NULL, 8) = 0"),
    ("rt_sigprocmask", "SIG_SETMASK, [], NULL, 8) = 0"),
    ("ioctl", "1, TCGETS, {B38400 opost isig icanon echo ...}) = 0"),
    ("pread64", '3, "\\4\\0\\0\\0"..., 48, 848) = 48'),
    ("access", '"/etc/ld.so.preload", R_OK) = -1 ENOENT (No such file or directory)'),
    ("getpid", ") = 1234"),
    ("getuid", ") = 0"),
    ("geteuid", ") = 0"),
    ("getppid", ") = 1"),
    ("clone", "child_stack=NULL, flags=CLONE_CHILD_CLEARTID|SIGCHLD, child_tidptr=0x7f2a) = 1236"),
    ("execve", '"/system/bin/sh", ["sh", "-c", "id"], 0x7ffd /* 12 vars */) = 0'),
    ("wait4", "-1, [{WIFEXITED(s) && WEXITSTATUS(s) == 0}], 0, NULL) = 1236"),
    ("socket", "AF_INET, SOCK_STREAM|SOCK_CLOEXEC, IPPROTO_IP) = 5"),
    ("connect", '5, {sa_family=AF_INET, sin_port=htons(443), sin_addr=inet_addr("10.0.0.7")}, 16) = 0'),
    ("sendto", '5, "\\26\\3\\1\\2\\0\\1\\0"..., 517, MSG_NOSIGNAL, NULL, 0) = 517'),
    ("recvfrom", '5, "\\26\\3\\3\\0z\\2"..., 16384, 0, NULL, NULL) = 1024'),
    ("getsockopt", "5, SOL_SOCKET, SO_ERROR, [0], [4]) = 0"),
    ("setsockopt", "5, SOL_TCP, TCP_NODELAY, [1], 4) = 0"),
    ("epoll_wait", "4, [{events=EPOLLIN, data={u32=5, u64=5}}], 16, -1) = 1"),
    ("futex", "0x7f2a3c1f0a, FUTEX_WAKE_PRIVATE, 1) = 0"),
    ("nanosleep", "{tv_sec=0, tv_nsec=1000000}, NULL) = 0"),
    ("ptrace", "PTRACE_TRACEME) = -1 EPERM (Operation not permitted)"),
    ("unlinkat", 'AT_FDCWD, "/data/local/tmp/x", 0) = 0'),
    ("renameat", 'AT_FDCWD, "/data/local/tmp/a", AT_FDCWD, "/data/local/tmp/b") = 0'),
    ("fchmodat", 'AT_FDCWD, "/data/local/tmp/b", 0755) = 0'),
    ("getdents64", "3, 0x55d0 /* 12 entries */, 32768) = 384"),
    ("lseek", "3, 0, SEEK_SET) = 0"),
    ("dup3", "3, 1, 0) = 1"),
    ("pipe2", "[3, 4], O_CLOEXEC) = 0"),
    ("prctl", 'PR_SET_NAME, "worker") = 0'),
)
_MALWARE_FAVOURS = ("ptrace", "execve", "socket", "connect", "sendto", "fchmodat", "unlinkat", "clone")
_BENIGN_FAVOURS = ("ioctl", "epoll_wait", "futex", "nanosleep", "getdents64")

_GARBAGE = (
    "strace: Process 1236 attached",
    "[ Process PID=1234 runs in 32 bit mode. ]",
    "",
    "   ",
    "?? truncated write",
    "strace: detached",
)
# Bytes that are not UTF-8; the reader must decode them lossily.
_GARBAGE_BYTES = b"\xff\xfe\xfd not utf-8"

# Per-line kind draws for the body of a log: completed call, unfinished
# call head (resumed later), signal, garbage, child exit.
_BODY_KINDS = ("call", "unfinished", "signal", "garbage", "exit")
_BODY_P = np.array([0.80, 0.07, 0.04, 0.06, 0.03])
_PID_SHARE = 0.3


@dataclass(frozen=True)
class StraceSample:
    sample_id: str
    label: str
    path: str  # relative to the corpus directory
    counts: dict[str, int]  # call + unfinished lines per call name
    kinds: dict[str, int]  # lines per parser kind


@dataclass(frozen=True)
class StraceCorpus:
    samples: tuple[StraceSample, ...]


def _call_probabilities() -> tuple[np.ndarray, np.ndarray]:
    """Per-class call mix. It is fixed, so line lengths and the size of the
    logs do not drift with the seed; the seed draws the lines."""
    base = np.random.default_rng(_STRACE_SALT).gamma(0.7, 1.0, size=len(_SYSCALLS)) + 0.02
    mal, ben = base.copy(), base.copy()
    for j, (name, _) in enumerate(_SYSCALLS):
        if name in _MALWARE_FAVOURS:
            mal[j] *= 4.0
            ben[j] *= 0.05
        elif name in _BENIGN_FAVOURS:
            ben[j] *= 4.0
            mal[j] *= 0.3
    return mal / mal.sum(), ben / ben.sum()


def _write_log(path: Path, rng: np.random.Generator, n_lines: int,
               p_calls: np.ndarray) -> tuple[dict[str, int], dict[str, int]]:
    """Write one log of n_lines lines; return its call counts and kind tally."""
    kinds = {"call": 0, "unfinished": 0, "resumed": 0, "signal": 0, "exit": 0, "garbage": 0}
    counts: dict[str, int] = {}
    body = n_lines - 1  # the last line is the process exit
    draws = rng.choice(len(_BODY_KINDS), size=body, p=_BODY_P)
    names = rng.choice(len(_SYSCALLS), size=body, p=p_calls)
    pid_flags = rng.random(body) < _PID_SHARE
    pids = rng.integers(1000, 9999, size=body)
    garbage_pick = rng.integers(0, len(_GARBAGE) + 1, size=body)
    out: list[bytes] = []
    pending: list[tuple[int, str]] = []  # unfinished heads awaiting "resumed"
    i = 0
    while len(out) < body:
        if pending and rng.random() < 0.5:
            pid, name = pending.pop(0)
            out.append(f"{pid}  <... {name} resumed> ) = 0".encode())
            kinds["resumed"] += 1
            continue
        kind = _BODY_KINDS[draws[i]]
        name, args = _SYSCALLS[names[i]]
        prefix = f"{pids[i]}  " if pid_flags[i] else ""
        if kind == "call":
            out.append(f"{prefix}{name}({args}".encode())
        elif kind == "unfinished":
            # An interrupted call always belongs to a traced pid.
            out.append(f"{pids[i]}  {name}(3,  <unfinished ...>".encode())
            pending.append((int(pids[i]), name))
        elif kind == "signal":
            out.append(f"{prefix}--- SIGCHLD {{si_signo=SIGCHLD, si_code=CLD_EXITED, "
                       f"si_pid={pids[i]}, si_uid=0, si_status=0}} ---".encode())
        elif kind == "exit":
            out.append(f"{pids[i]}  +++ exited with 0 +++".encode())
        else:
            g = garbage_pick[i]
            out.append(_GARBAGE_BYTES if g == len(_GARBAGE) else _GARBAGE[g].encode())
        kinds[kind] += 1
        if kind in ("call", "unfinished"):
            counts[name] = counts.get(name, 0) + 1
        i += 1
    out.append(b"+++ exited with 0 +++")
    kinds["exit"] += 1
    path.write_bytes(b"\n".join(out) + b"\n")
    return dict(sorted(counts.items())), kinds


def write_strace_corpus(out_dir: Path, seed: int, small_logs: int = 300,
                        small_lines: tuple[int, int] = (600, 1400),
                        large_lines: int = 400_000) -> StraceCorpus:
    """Write small logs plus one large one and a manifest.csv naming them all.

    Small logs alternate M and B; the large log is malware. Returns the
    planted per-sample call counts and line-kind tallies.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STRACE_SALT]))
    p_mal, p_ben = _call_probabilities()
    logs = out_dir / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    plan = [(f"s{i:04d}", "M" if i % 2 == 0 else "B",
             int(rng.integers(small_lines[0], small_lines[1] + 1)))
            for i in range(small_logs)]
    plan.append(("big0000", "M", large_lines))
    samples = []
    for sample_id, label, n_lines in plan:
        rel = f"logs/{sample_id}.log"
        counts, kinds = _write_log(out_dir / rel, rng, n_lines,
                                   p_mal if label == "M" else p_ben)
        samples.append(StraceSample(sample_id, label, rel, counts, kinds))
    rows = ["path,label,sample_id"] + [f"{s.path},{s.label},{s.sample_id}" for s in samples]
    (out_dir / "manifest.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return StraceCorpus(tuple(samples))


def _stratified_poisson(rng: np.random.Generator, rate: np.ndarray, n: int) -> np.ndarray:
    """n Poisson draws per column, one uniform from each stratum [i/n, (i+1)/n).

    The uniforms go through the Poisson inverse CDF in shuffled order, so
    each column's empirical distribution follows its rate closely and the
    class overlap, and with it the work of a classifier, varies little
    from seed to seed. Columns are independent of each other.
    """
    cols = len(rate)
    strata = rng.permuted(np.tile(np.arange(n), (cols, 1)), axis=1).T
    q = (strata + rng.random((n, cols))) / n
    kmax = int(rate.max() + 12 * np.sqrt(rate.max()) + 12)
    k = np.arange(kmax + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, kmax + 1)))])
    cdf = np.cumsum(np.exp(k[:, None] * np.log(rate)[None, :] - rate[None, :]
                           - log_fact[:, None]), axis=0)
    out = np.empty((n, cols), dtype=np.int64)
    for j in range(cols):
        out[:, j] = np.searchsorted(cdf[:, j], q[:, j], side="left")
    return np.minimum(out, kmax)


@dataclass(frozen=True)
class WideCorpus:
    sample_ids: tuple[str, ...]
    labels: tuple[str, ...]
    calls: tuple[str, ...]
    counts: np.ndarray  # (samples, calls) int64, columns in `calls` order
    planted_malware: tuple[str, ...]
    planted_benign: tuple[str, ...]


def wide_corpus(seed: int, samples_per_class: int, n_calls: int,
                planted_malware: int, planted_benign: int,
                effect: float) -> WideCorpus:
    """Stratified Poisson call counts with planted calls and a shuffled sample order.

    Unplanted calls have a rate drawn from U(2, 10) shared by both classes.
    Planted calls have a base rate of 1 plus `effect` inside their own
    class, so presence as well as magnitude separates the classes. Fixed
    planted rates and stratified draws keep the separability, and with it
    the work of a classifier, nearly the same from seed to seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _WIDE_SALT]))
    calls = tuple(f"call{j:03d}" for j in range(n_calls))
    picked = rng.choice(n_calls, size=planted_malware + planted_benign, replace=False)
    mal_idx, ben_idx = picked[:planted_malware], picked[planted_malware:]
    base = rng.uniform(2.0, 10.0, size=n_calls)
    base[picked] = _PLANTED_BASE_RATE
    rate_m, rate_b = base.copy(), base.copy()
    rate_m[mal_idx] += effect
    rate_b[ben_idx] += effect
    n = samples_per_class
    counts = np.vstack([_stratified_poisson(rng, rate_m, n),
                        _stratified_poisson(rng, rate_b, n)])
    labels = np.array(["M"] * n + ["B"] * n)
    order = rng.permutation(2 * n)
    counts, labels = counts[order], labels[order]
    if (counts.sum(axis=1) == 0).any():
        raise ValueError("a generated sample has no calls")
    return WideCorpus(
        sample_ids=tuple(f"w{i:05d}" for i in range(2 * n)),
        labels=tuple(str(x) for x in labels),
        calls=calls,
        counts=counts,
        planted_malware=tuple(sorted(calls[j] for j in mal_idx)),
        planted_benign=tuple(sorted(calls[j] for j in ben_idx)),
    )


def write_records(corpus: WideCorpus, path: Path) -> None:
    """Write the corpus in the records JSONL format (positive counts only)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sid, label, row in zip(corpus.sample_ids, corpus.labels, corpus.counts.tolist()):
            counts = {c: n for c, n in zip(corpus.calls, row) if n > 0}
            obj = {"sample_id": sid, "label": label, "counts": counts, "total": sum(row)}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
