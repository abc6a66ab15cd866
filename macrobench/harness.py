"""Shared plumbing of the macro benchmark: paths, timing, statistics.

Nothing here knows about a particular workload. ``workloads.py`` drives
the program end to end, ``layers.py`` times single layers from outside,
and ``run.py`` turns either into the one-line JSON result the benchmark
contract asks for.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Every simulated cost knob of the program, pinned to zero: the
#: benchmark measures the program, never a ``time.sleep``.
SIMULATED_COSTS = {
    "service_latency_s": 0.0,
    "storage_latency_s": 0.0,
    "stage_latency_s": 0.0,
}

#: Load shape shared by every workload: one generator process, two
#: client threads, closed loop (a client sends its next request only
#: after the previous one completed).
N_CLIENTS = 2


def require_program() -> None:
    """Put the checkout's ``src`` on ``sys.path`` or exit non-zero.

    The benchmark runs from a bare checkout (no install, no
    ``PYTHONPATH``). In a directory that holds only the benchmark there
    is no program to measure, and the run must fail before printing a
    result.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(
            f"macrobench: no program to measure: {src}/repro is missing\n")
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class WorkDir:
    """A scratch directory inside the checkout, removed on exit.

    Pack files must live on disk to be mmap'd; everything the benchmark
    writes goes under ``.macrobench_work/<pid>`` at the checkout root
    (git-ignored) so a run never touches anything outside its checkout.
    """

    def __init__(self) -> None:
        self.path = os.path.join(ROOT, ".macrobench_work", str(os.getpid()))
        self._n = 0

    def __enter__(self) -> "WorkDir":
        os.makedirs(self.path, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still has its directory in the parent

    def file(self, stem: str) -> str:
        """A fresh path (never reused: an mmap'd pack may still be open)."""
        self._n += 1
        return os.path.join(self.path, f"{stem}-{self._n}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def time_calls(fn: Callable[[object], object], args: Iterable[object],
               warmup: int = 0, pace_s: float = 0.0) -> List[float]:
    """Per-call wall time in seconds of ``fn(arg)`` for each arg, timed
    from outside; the first ``warmup`` calls run untimed. ``pace_s``
    idles that long before each call, outside the timed region."""
    clock = time.perf_counter
    out: List[float] = []
    for i, arg in enumerate(args):
        if i < warmup:
            fn(arg)
            continue
        if pace_s:
            time.sleep(pace_s)
        t0 = clock()
        fn(arg)
        out.append(clock() - t0)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """What one timed pass of a workload observed.

    ``wall_s`` covers the timed region only. ``primary`` and ``aux`` are
    per-op latencies in seconds of the workload's two user-visible ops;
    ``wire_bytes / wire_ops`` is the pass's bytes-per-op ratio.
    """

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    primary: List[float] = field(default_factory=list)
    aux: List[float] = field(default_factory=list)
    wire_bytes: int = 0
    wire_ops: int = 0
    #: free-form extra samples a traced run reads (router-side latencies
    #: per request kind, sync latencies, ...), seconds
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def merge(self, other: "PassResult") -> None:
        """Fold another client's share of the same pass into this one
        (``wall_s`` is set by whoever timed the whole pass)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.primary.extend(other.primary)
        self.aux.extend(other.aux)
        self.wire_bytes += other.wire_bytes
        self.wire_ops += other.wire_ops
        for key, values in other.extra.items():
            self.extra.setdefault(key, []).extend(values)


def run_clients(client: Callable[[int, PassResult], None],
                n_clients: int = N_CLIENTS) -> PassResult:
    """Run ``client(index, result)`` on ``n_clients`` threads at once and
    time the whole pass. A client that raises fails the pass loudly."""
    parts = [PassResult() for _ in range(n_clients)]
    errors: List[BaseException] = []

    def body(i: int) -> None:
        try:
            client(i, parts[i])
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    total = PassResult(wall_s=wall)
    for part in parts:
        total.merge(part)
    return total


def run_passes(run_pass: Callable[[], PassResult], seconds: float,
               min_passes: int = 2) -> List[PassResult]:
    """Repeat fixed-size passes until ``seconds`` of wall time are spent.

    Passes have a fixed op count so the program's state after pass *k*
    is the same on both sides of any comparison; how many passes fit is
    what ``--seconds`` decides.
    """
    deadline = time.perf_counter() + seconds
    passes: List[PassResult] = []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass())
    return passes


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def pooled(passes: Sequence[PassResult], attr: str) -> List[float]:
    out: List[float] = []
    for p in passes:
        out.extend(getattr(p, attr))
    return out


def pooled_extra(passes: Sequence[PassResult], key: str) -> List[float]:
    out: List[float] = []
    for p in passes:
        out.extend(p.extra.get(key, ()))
    return out


def us(seconds: float) -> float:
    return seconds * 1e6


def ms(seconds: float) -> float:
    return seconds * 1e3
