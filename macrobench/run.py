"""macrobench: one real-cost fleet benchmark.

Two ways in, one measurement:

``python3 macrobench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one process. The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
    every end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) declared in ``BENCHMARK.json``. ``--report FILE``
    also writes the per-pass detail.

``python3 macrobench/run.py --seed N --out FILE``
    Every workload, untraced then traced, each in its own subprocess;
    prints every metric by name with its unit and writes one JSON
    report that ``compare.py`` reads.

See ``README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from harness import PassResult, median, metric, ms, quantile  # noqa: E402

#: set-ups per run: at least this many, more while they are cheap, so
#: ``setup_s`` is a median and not one draw
MIN_SETUPS = 3
MAX_SETUPS = 7
CHEAP_SETUP_BUDGET_S = 2.0


def end_to_end(workload, passes: Sequence[PassResult], setup_s: float
               ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, object]]:
    """The contract's end-to-end metrics plus the per-pass detail."""
    throughput = [(p.attempted - p.failed) / p.wall_s for p in passes]
    primary = harness.pooled(passes, "primary")
    aux = harness.pooled(passes, "aux")
    wire_bytes = sum(p.wire_bytes for p in passes)
    wire_ops = sum(p.wire_ops for p in passes)
    q = workload.aux_quantile
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops_s": metric(median(throughput), "1/s"),
        "latency_p50_ms": metric(ms(median(primary)), "ms"),
        "aux_latency_ms": metric(ms(quantile(aux, q)), "ms"),
        "wire_bytes_per_op": metric(wire_bytes / wire_ops, "B"),
        "peak_rss_mb": metric(harness.peak_rss_mb(), "MiB"),
    }
    detail = {
        "passes": len(passes),
        "samples": {"latency_p50_ms": len(primary),
                    "aux_latency_ms": len(aux)},
        "per_pass": {
            "throughput_ops_s": throughput,
            "latency_p50_ms": [ms(median(p.primary)) for p in passes],
            "aux_latency_ms": [ms(quantile(p.aux, q)) for p in passes
                               if p.aux],
            "wire_bytes_per_op": [p.wire_bytes / p.wire_ops
                                  for p in passes if p.wire_ops],
        },
    }
    return metrics, detail


def run_untraced(workload, seconds: float
                 ) -> Tuple[Dict, Dict, List[PassResult], List[str]]:
    setups: List[float] = []
    while True:
        t0 = time.perf_counter()
        workload.setup()
        workload.run_pass()  # warm-up: caches fill, lazy set-up finishes
        setups.append(time.perf_counter() - t0)
        if len(setups) >= MIN_SETUPS and (
                len(setups) >= MAX_SETUPS
                or sum(setups) >= CHEAP_SETUP_BUDGET_S):
            break
        workload.teardown()
        gc.collect()  # or each set-up pays for the garbage of the last
    passes = harness.run_passes(workload.run_pass, seconds)
    problems = workload.finish()
    workload.teardown()
    metrics, detail = end_to_end(workload, passes, median(setups))
    detail["per_pass"]["setup_s"] = setups
    return metrics, detail, passes, problems


def run_workload(name: str, seed: int, seconds: float, trace: int
                 ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Measure one workload; returns ``(contract result, detail)``.
    The program must be importable (``harness.require_program``)."""
    import layers
    from workloads import WORKLOADS

    with harness.WorkDir() as work:
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, work)
        inputs_s = time.perf_counter() - t0
        if trace:
            metrics, detail, passes, problems = layers.run_traced(
                workload, seconds)
        else:
            metrics, detail, passes, problems = run_untraced(
                workload, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_s": inputs_s, "problems": problems,
        "simulated_costs": harness.SIMULATED_COSTS,
        "transport": "process", "client_threads": harness.N_CLIENTS,
        "loop": "closed",
    })
    return result, detail


# ---------------------------------------------------------------------------
# the whole benchmark in one command
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(seed: int, seconds: float, out: Optional[str] = None
            ) -> Tuple[int, Dict[str, object]]:
    """Every workload, untraced then traced, one subprocess each;
    returns ``(exit status, report)``."""
    spec = harness.load_spec()
    report = {
        "meta": {
            "seed": seed, "run_seconds": seconds,
            "commit": _git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "simulated_costs": harness.SIMULATED_COSTS,
            "transport": "process", "client_threads": harness.N_CLIENTS,
        },
        "workloads": {},
    }
    status = 0
    with harness.WorkDir() as work:
        for name in (w["name"] for w in spec["workloads"]):
            entry = report["workloads"][name] = {}
            # Untraced first: the end-to-end numbers are taken before
            # any per-layer timing has touched the page cache.
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                detail_path = work.file("detail.json")
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--report", detail_path],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    print(f"{name} --trace {trace}: exit {proc.returncode}")
                    status = 1
                    continue
                with open(detail_path, "r", encoding="utf-8") as fh:
                    entry[key] = json.load(fh)
                result = entry[key]["result"]
                if not result["correct"]:
                    status = 1
                flag = "ok" if result["correct"] else "WRONG"
                print(f"\n== {name}  --trace {trace}  [{flag}]  attempted="
                      f"{result['attempted']} failed={result['failed']}"
                      + "".join(f"\n   ! {p}"
                                for p in entry[key]["problems"]))
                for metric_name, m in result["metrics"].items():
                    print(f"   {metric_name:<44} {m['value']:>14.4f} "
                          f"{m['unit']}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {out}")
    return status, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="macrobench: real-cost fleet benchmark")
    parser.add_argument("--workload", help="one workload (contract mode); "
                        "omit to run them all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="contract mode: also write the "
                        "per-pass detail as JSON here")
    parser.add_argument("--out", help="all-workloads mode: report file")
    args = parser.parse_args(argv)

    harness.require_program()
    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, args.out)[0]
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(known)}")
    result, detail = run_workload(args.workload, args.seed, seconds,
                                  args.trace)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"result": result, **detail}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
