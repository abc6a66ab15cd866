"""Paired timing: the one way two code paths are compared by wall clock.

``paired(a, b, n, warmup)`` calls ``a`` and ``b`` back to back ``n``
times, alternating which of the two runs first, so slow host drift lands
on both halves of a pair instead of biasing whichever side ran last.
Warm-up calls are made the same way but not timed. The verdict is read
from the per-pair ratios ``time(b) / time(a)``: their median and
quartiles, how many pairs ``a`` won, and an exact two-sided sign test on
those wins. S3 (kernel vs frozen twin), S4 and S9 (tracing on vs off)
gate on it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Sequence, Tuple


@dataclass(frozen=True)
class Paired:
    """Per-call seconds of both sides and the per-pair ratio summary."""

    a_s: Tuple[float, ...]
    b_s: Tuple[float, ...]
    ratios: Tuple[float, ...]  # b / a, one per pair
    median: float
    q1: float
    q3: float
    wins: int  # pairs in which a was faster (ratio > 1)
    p: float  # exact two-sided sign test on wins, ties dropped

    def describe(self) -> str:
        return (f"IQR {self.q1:.3f}-{self.q3:.3f}, ratio > 1 in "
                f"{self.wins}/{len(self.ratios)}, sign p={self.p:.2g}")


def _sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided binomial p of ``wins`` vs ``losses`` at p = 1/2."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def paired(a: Callable[[], object], b: Callable[[], object], n: int,
           warmup: int = 0) -> Paired:
    """Time ``n`` alternating ``(a, b)`` pairs after ``warmup`` untimed ones."""
    if n < 1:
        raise ValueError(f"paired needs n >= 1, got {n}")
    for i in range(warmup):
        for fn in ((a, b) if i % 2 == 0 else (b, a)):
            fn()
    a_s: List[float] = []
    b_s: List[float] = []
    for i in range(n):
        for fn, out in (((a, a_s), (b, b_s)) if i % 2 == 0
                        else ((b, b_s), (a, a_s))):
            start = perf_counter()
            fn()
            out.append(perf_counter() - start)
    ratios = tuple(tb / max(ta, 1e-12) for ta, tb in zip(a_s, b_s))
    wins = sum(r > 1.0 for r in ratios)
    q1, q3 = _quartiles(ratios)
    return Paired(a_s=tuple(a_s), b_s=tuple(b_s), ratios=ratios,
                  median=statistics.median(ratios), q1=q1, q3=q3,
                  wins=wins,
                  p=_sign_test_p(wins, sum(r < 1.0 for r in ratios)))
