"""macrobench self-test: ``python3 macrobench/selftest.py``.

Three checks, none of which measures the program's speed:

1. **Declaration** — ``BENCHMARK.json`` has the shape the benchmark
   contract fixes (keys, name and unit alphabets, bounds, one
   ``setup_s``).
2. **Calibration** — "recovered error ≈ injected noise": the tile-read
   onion is rebuilt with the program's public ``service_latency_s`` knob
   at 1 ms. The per-layer budget must book what a 1 ms sleep costs on
   this machine, ± 150 µs, to ``self.serve.service_us`` and less than
   100 µs to every other layer. If the budget cannot find a millisecond it was handed, it
   cannot be trusted to find one it was not.
3. **Report** — every workload is run briefly, untraced and traced;
   each result must be correct and carry exactly the declared metric
   names with the declared units.

Exit status 0 when all three hold.
"""

from __future__ import annotations

import os
import re
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

INJECTED_S = 0.001
INJECTED_TOLERANCE_US = 150.0
BYSTANDER_LIMIT_US = 100.0
CALIBRATION_OPS = 400
SHORT_RUN_S = 1.0

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check_declaration(spec: Dict[str, object]) -> List[str]:
    bad: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        bad.append(f"keys are {sorted(spec)}, want {sorted(keys)}")
        return bad
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        bad.append("run_seconds must be a whole number from 1 to 60")
    for key, lo, hi in (("workloads", 2, 8), ("end_to_end", 1, 16),
                        ("per_layer", 1, 128)):
        if not lo <= len(spec[key]) <= hi:
            bad.append(f"{key} has {len(spec[key])} entries, "
                       f"want {lo} to {hi}")
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    for name in names:
        if not NAME.match(name):
            bad.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        bad.append("a name is used twice")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            bad.append(f"workload {w.get('name')!r}: want a name and a "
                       f"one-line why of at most 200 characters")
    for key, want in (("end_to_end", {"name", "unit", "better", "bound"}),
                      ("per_layer", {"name", "unit", "better"})):
        for m in spec[key]:
            if set(m) != want:
                bad.append(f"{key} {m.get('name')!r}: keys {sorted(m)}")
                continue
            if not UNIT.match(m["unit"]):
                bad.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                bad.append(f"{m['name']}: better={m['better']!r}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                bad.append(f"{m['name']}: bound {m['bound']} not in "
                           f"(0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not (len(setup) == 1 and setup[0]["unit"] == "s"
            and setup[0]["better"] == "lower"):
        bad.append("need exactly one setup_s, unit s, lower is better")
    return bad


def check_calibration() -> List[str]:
    harness.require_program()
    import layers
    import tapes
    from workloads import make_router, reference_payloads

    bad: List[str] = []
    with harness.WorkDir() as work:
        hdmap = tapes.make_map()
        tiles = sorted(reference_payloads(
            hdmap, tapes.CLUSTER_TILE_SIZE, work.file("reference.pack")))
        tape = [tile for steps in tapes.tile_read_tape(7, tiles)
                for step in steps for tile in step]
        onions = {}
        # The clean run idles 1 ms between calls, outside the timed
        # region, so both runs see the same request rate: a machine
        # wakes an idle core more slowly than a busy one, and that
        # must not be booked to a layer.
        for label, latency, pace in (("clean", 0.0, INJECTED_S),
                                     ("injected", INJECTED_S, 0.0)):
            router = make_router(hdmap, work.file("cluster.pack"),
                                 service_latency_s=latency)
            try:
                onions[label] = layers.tile_read_onion(
                    hdmap, tape, work, router, service_latency_s=latency,
                    ops=CALIBRATION_OPS, pace_s=pace)
            finally:
                router.close()
    # What a 1 ms sleep really costs here (timer slack + wake-up) is the
    # amount injected; 1 000 µs is only what was asked for.
    injected_us = harness.us(harness.median(harness.time_calls(
        time.sleep, [INJECTED_S] * 200)))
    print(f"time.sleep({INJECTED_S}) takes {injected_us:.0f} µs here")
    print(f"{'layer':<30}{'clean':>10}{'injected':>10}{'delta':>10}  µs")
    for _entry, name in layers.ONION:
        clean, injected = onions["clean"][name], onions["injected"][name]
        delta = injected - clean
        print(f"{name:<30}{clean:>10.1f}{injected:>10.1f}{delta:>10.1f}")
        if name == "self.serve.service_us":
            if abs(delta - injected_us) > INJECTED_TOLERANCE_US:
                bad.append(f"{name} rose by {delta:.0f} µs, want "
                           f"{injected_us:.0f} ± "
                           f"{INJECTED_TOLERANCE_US:.0f}")
        elif abs(delta) >= BYSTANDER_LIMIT_US:
            bad.append(f"{name} moved by {delta:.0f} µs, want < "
                       f"{BYSTANDER_LIMIT_US:.0f}")
    return bad


def check_report(spec: Dict[str, object]) -> List[str]:
    import run

    bad: List[str] = []
    status, report = run.run_all(seed=7, seconds=SHORT_RUN_S)
    if status != 0:
        bad.append("a short run failed or gave a wrong answer")
    for w in spec["workloads"]:
        entry = report["workloads"].get(w["name"], {})
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = entry.get(key, {}).get("result", {}).get("metrics")
            if got is None:
                bad.append(f"{w['name']}: no {key} result")
                continue
            for name in sorted(set(declared) - set(got)):
                bad.append(f"{w['name']}: {key} metric {name} missing")
            for name in sorted(set(got) - set(declared)):
                bad.append(f"{w['name']}: undeclared {key} metric {name}")
            for name in set(got) & set(declared):
                if got[name]["unit"] != declared[name]:
                    bad.append(f"{w['name']}: {name} has unit "
                               f"{got[name]['unit']!r}, declared "
                               f"{declared[name]!r}")
            if key == "end_to_end":
                for name, m in got.items():
                    if not m["value"] > 0:
                        bad.append(f"{w['name']}: {name} is "
                                   f"{m['value']}, must be > 0")
    return bad


def main() -> int:
    spec = harness.load_spec()
    failures = 0
    for title, check in (
            ("declaration", lambda: check_declaration(spec)),
            ("calibration", check_calibration),
            ("report", lambda: check_report(spec))):
        print(f"\n## {title}")
        bad = check()
        for line in bad:
            print(f"FAIL {line}")
        print(f"{title}: {'ok' if not bad else f'{len(bad)} failure(s)'}")
        failures += len(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
