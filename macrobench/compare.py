"""Compare two macrobench reports: ``compare.py A.json B.json``.

``A`` is the reference side (the parent commit, or the first of two
runs of one commit), ``B`` the candidate. For every (workload,
end-to-end metric) pair the metric's bound and direction from
``BENCHMARK.json`` are applied to the two values, and one row is
printed:

``ok``          B is no worse than A by more than the bound, and the
                per-pass ranges are tight enough to say so
``worse``       B is worse than A by more than the bound, and every pass
                of B is worse than every pass of A
``unresolved``  the per-pass (for ``setup_s``: per-set-up) min–max
                ranges of the two sides overlap and either B reads worse
                by more than the bound, or a side's own range is wider
                than the bound — "unchanged" cannot be told from
                "changed by less than the noise"

Exit status is 1 if any row is ``worse``, if B failed a larger share of
its operations than A on any workload, or if either report is missing a
workload or metric the other has; else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _worsening(a: float, b: float, better: str) -> float:
    """Relative change of B against A, positive when B is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _range(side: Dict[str, object], name: str, value: float
           ) -> Tuple[float, float]:
    per_pass = side["per_pass"].get(name) or [value]
    return min(per_pass), max(per_pass)


def verdict(a: float, b: float, a_range: Tuple[float, float],
            b_range: Tuple[float, float], better: str, bound: float
            ) -> str:
    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    overlap = a_lo <= b_hi and b_lo <= a_hi
    if _worsening(a, b, better) > bound:
        return "unresolved" if overlap else "worse"
    noisy = any(mid and (hi - lo) / abs(mid) > bound
                for (lo, hi), mid in ((a_range, a), (b_range, b)))
    return "unresolved" if noisy and overlap else "ok"


def failed_share(result: Dict[str, object]) -> float:
    return result["failed"] / result["attempted"]


def compare(a: Dict[str, object], b: Dict[str, object],
            spec: Optional[Dict[str, object]] = None) -> Tuple[List, int]:
    """Rows ``(workload, metric, a, b, unit, worsening, verdict)`` and
    the exit status."""
    spec = spec or harness.load_spec()
    rows = []
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sides = [report["workloads"].get(workload, {}).get("end_to_end")
                 for report in (a, b)]
        if not all(sides):
            rows.append((workload, "-", 0.0, 0.0, "", 0.0, "missing"))
            status = 1
            continue
        side_a, side_b = sides
        if not (side_a["result"]["correct"] and side_b["result"]["correct"]):
            rows.append((workload, "correct", 0.0, 0.0, "", 0.0, "worse"))
            status = 1
        shares = [failed_share(side["result"]) for side in sides]
        word = "worse" if shares[1] > shares[0] else "ok"
        rows.append((workload, "failed_share", shares[0], shares[1],
                     "ratio", shares[1] - shares[0], word))
        if word == "worse":
            status = 1
        for m in spec["end_to_end"]:
            name = m["name"]
            try:
                va = side_a["result"]["metrics"][name]["value"]
                vb = side_b["result"]["metrics"][name]["value"]
            except KeyError:
                rows.append((workload, name, 0.0, 0.0, m["unit"], 0.0,
                             "missing"))
                status = 1
                continue
            word = verdict(va, vb, _range(side_a, name, va),
                           _range(side_b, name, vb),
                           m["better"], m["bound"])
            if word == "worse":
                status = 1
            rows.append((workload, name, va, vb, m["unit"],
                         _worsening(va, vb, m["better"]), word))
    return rows, status


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py A.json B.json\n")
        return 2
    rows, status = compare(_load(argv[0]), _load(argv[1]))
    print(f"{'workload':<22}{'metric':<20}{'A':>14}{'B':>14}  "
          f"{'unit':<6}{'B worse by':>11}  verdict")
    for workload, name, va, vb, unit, change, word in rows:
        print(f"{workload:<22}{name:<20}{va:>14.4f}{vb:>14.4f}  "
              f"{unit:<6}{change * 100:>10.2f}%  {word}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print(", ".join(f"{n} {word}" for word, n in sorted(counts.items())))
    return status


if __name__ == "__main__":
    sys.exit(main())
