"""Performance instrumentation and paired kernel timing.

Three pieces:

- :mod:`repro.perf.instrument` — per-kernel call/ns counters behind a
  near-zero-cost ``timed()`` decorator/context manager (disabled unless a
  perf run enables the registry);
- :mod:`repro.perf.pairing` — ``paired(a, b, n, warmup)``, the one way
  two code paths are compared by wall clock: alternating order, untimed
  warm-up, per-pair ratios with median, IQR, wins and a sign test;
- :mod:`repro.perf.suite` — the curated hot-path suite (LiDAR scan,
  particle-filter weighting, polyline projection, grid-index query, tile
  codec), each kernel paired with its frozen pre-optimization twin in
  :mod:`repro.perf.reference`, which the equivalence tests also compare
  against. Benchmark S3 gates the resulting speedups.

This ``__init__`` must stay import-light: geometry and sensor kernels
import :mod:`repro.perf.instrument` at module load, so importing the suite
(which pulls in the world generator and storage layer) here would create
an import cycle. The suite loads lazily on first attribute access.
"""

from __future__ import annotations

from repro.perf.instrument import REGISTRY, PerfRegistry, timed
from repro.perf.pairing import Paired, paired

__all__ = ["Paired", "PerfRegistry", "REGISTRY", "paired", "run_perf_suite",
           "timed"]


def __getattr__(name: str):
    if name == "run_perf_suite":
        from repro.perf.suite import run_perf_suite

        return run_perf_suite
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
