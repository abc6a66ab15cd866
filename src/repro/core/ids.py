"""Typed element identifiers.

Every map element carries an :class:`ElementId` — a (kind, number) pair —
so references between layers (lane -> boundary, regulatory -> lane) are
self-describing and wrong-kind references are caught at validation time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass(frozen=True, order=True)
class ElementId:
    """Identifier of one map element: a kind tag plus a number."""

    kind: str
    num: int

    def __str__(self) -> str:
        return f"{self.kind}:{self.num}"

    @staticmethod
    def parse(text: str) -> "ElementId":
        kind, sep, num = text.partition(":")
        if not sep or not kind:
            raise ValueError(f"malformed element id {text!r}")
        return ElementId(kind, int(num))


class IdAllocator:
    """Monotonic per-kind id allocator for a map instance."""

    def __init__(self) -> None:
        self._counters: Dict[str, Iterator[int]] = {}
        self._highest: Dict[str, int] = {}

    def allocate(self, kind: str) -> ElementId:
        if kind not in self._counters:
            start = self._highest.get(kind, 0) + 1
            self._counters[kind] = itertools.count(start)
        eid = ElementId(kind, next(self._counters[kind]))
        self._highest[kind] = eid.num
        return eid

    def reserve(self, eid: ElementId) -> None:
        """Mark an externally supplied id as used so it is never re-issued."""
        if eid.num > self._highest.get(eid.kind, 0):
            self._highest[eid.kind] = eid.num
            # Restart the counter past the reserved id.
            self._counters[eid.kind] = itertools.count(eid.num + 1)
