"""The mandatory verify gate between fuse and publish.

Reference-free constraint verification (ROADMAP item 4): every
:class:`~repro.ingest.publisher.ConfirmedPatch` the pipeline emits is
checked against the :class:`~repro.core.validation.ConstraintEngine`
before it may reach the map database. A patch with any ERROR-severity
:class:`~repro.core.validation.ConstraintViolation` is **quarantined**
— written to a journaled :class:`QuarantineStore` with its full
structured violation report — never silently dropped, and never
published. Clean patches pass with microsecond-scale added latency
(the patch-scoped ``check_patch`` never scans the whole map; the
macrobench ``ingest.stage.verify_us`` row records the stage's cost).

The gate is enforced twice, deliberately:

- :class:`VerifyStage` (in :mod:`repro.ingest.stages`) filters the
  emit stage's output inside the pipeline, so quarantined patches are
  accounted per batch and the stage gets ``ingest.stage.verify``
  latency for free.
- :class:`~repro.ingest.publisher.PatchPublisher` calls the same gate
  as a backstop on any patch that did not come through the stage
  (``confirmed.verified`` is False) — e.g. chaos harnesses publishing
  malformed patches directly. One gate object, one quarantine store,
  one metric surface, regardless of the entry path.

Observability: ``ingest.verify`` spans around each decision,
``ingest.verify.*`` counters (checked / passed / quarantined /
violations and one ``ingest.verify.constraint.<name>`` counter per
catalog entry), a ``patch_quarantined`` ERROR event per rejection.
docs/MAP_QUALITY.md is the operator-facing catalog and the triage
playbook for everything this module rejects.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set

from repro.core.hdmap import HDMap
from repro.core.validation import ConstraintEngine, ConstraintReport
from repro.ingest.metrics import IngestMetrics
from repro.ingest.publisher import ConfirmedPatch
from repro.obs.log import get_logger
from repro.obs.trace import TRACER
from repro.storage.journal import RecordJournal

_log = get_logger("ingest.verify")


class QuarantineStore:
    """Journaled store of gate-rejected patches.

    Every rejection becomes one structured record — idempotency key,
    provenance, an op summary, and the full violation report — appended
    to a :class:`~repro.storage.journal.RecordJournal`. With a ``path``
    the journal writes through as JSONL, so a crashed process leaves a
    complete quarantine trail that :meth:`load` replays. Keys are
    deduplicated: at-least-once redelivery of the same rejected patch
    is counted (``duplicates``) but journaled once.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._journal = RecordJournal(path)
        self._lock = threading.Lock()
        self._keys: Set[str] = set()
        self.duplicates = 0

    @property
    def path(self) -> Optional[str]:
        return self._journal._path

    def add(self, confirmed: ConfirmedPatch,
            report: ConstraintReport) -> bool:
        """Record one rejected patch; returns False on a duplicate key."""
        record = {
            "key": confirmed.key,
            "source": confirmed.patch.source,
            "confidence": float(confirmed.patch.confidence),
            "ops": [type(op).__name__ for op in confirmed.patch.ops],
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "violations": [v.as_dict() for v in report.violations],
        }
        with self._lock:
            if confirmed.key in self._keys:
                self.duplicates += 1
                return False
            self._keys.add(confirmed.key)
        self._journal.append(record)
        return True

    def records(self) -> List[Dict[str, object]]:
        return self._journal.replay()

    def keys(self) -> Set[str]:
        with self._lock:
            return set(self._keys)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._keys

    def __len__(self) -> int:
        return len(self._journal)

    def violation_counts(self) -> Dict[str, int]:
        """Total journaled violations per constraint name."""
        out: Dict[str, int] = {}
        for record in self._journal.replay():
            for violation in record.get("violations", []):
                name = str(violation.get("constraint", "?"))
                out[name] = out.get(name, 0) + 1
        return out

    def close(self) -> None:
        self._journal.close()

    @staticmethod
    def load(path: str) -> "QuarantineStore":
        """Rebuild a store's in-memory state from its JSONL journal.

        The crash-recovery path: the reloaded store remembers every
        quarantined key, so redeliveries after restart still dedup.
        The underlying journal is memory-only (reopen with a fresh
        ``QuarantineStore(path)`` to keep appending to the same file).
        """
        journal = RecordJournal.load(path)
        store = QuarantineStore()
        store._journal = journal
        store._keys = {str(r["key"]) for r in journal.replay() if "key" in r}
        return store


class VerifyGate:
    """One admit/quarantine decision point shared by stage and publisher.

    ``prior`` is the immutable pre-run snapshot the pipeline already
    keeps for emit-stage diffing — checking against it instead of the
    live database means no lock is taken on the hot path. That is a
    deliberate trade: a patch is judged against the map as of pipeline
    start, which is exactly the consistency the rest of the pipeline
    (associate/fuse) already assumes.
    """

    def __init__(self, prior: HDMap,
                 metrics: Optional[IngestMetrics] = None,
                 quarantine: Optional[QuarantineStore] = None) -> None:
        self.prior = prior
        self.engine = ConstraintEngine()
        self.metrics = metrics
        self.quarantine = quarantine if quarantine is not None \
            else QuarantineStore()
        # Bound once for the per-publish hot path (attribute chains
        # cost real time at this call rate).
        self._check = self.engine.check_patch
        self._mark_clean = None if metrics is None \
            else metrics.verify_mark_clean

    def admit(self, confirmed: ConfirmedPatch) -> bool:
        """Verify one patch; True admits it, False quarantines it."""
        # The enabled/current prechecks dodge even NOOP_SPAN
        # construction, and the clean-patch outcome resolves right
        # here: this runs once per published patch.
        if TRACER.enabled and TRACER.current() is not None:
            with TRACER.span("ingest.verify") as span:
                ok = self._admit(confirmed)
                span.set("key", confirmed.key)
                span.set("admitted", ok)
                return ok
        report = self._check(self.prior, confirmed.patch)
        confirmed.verified = True
        if not report.violations:
            if self._mark_clean is not None:
                self._mark_clean()
            return True
        return self._flag(confirmed, report)

    def _admit(self, confirmed: ConfirmedPatch) -> bool:
        # Traced-path twin of the inline decision in admit(); keep the
        # two in lockstep.
        report = self._check(self.prior, confirmed.patch)
        confirmed.verified = True
        if not report.violations:
            if self._mark_clean is not None:
                self._mark_clean()
            return True
        return self._flag(confirmed, report)

    def _flag(self, confirmed: ConfirmedPatch,
              report: ConstraintReport) -> bool:
        """The violations path: count, warn or quarantine."""
        metrics = self.metrics
        if metrics is not None:
            metrics.verify_checked.add()
            metrics.verify_violations.add(len(report.violations))
            for name, count in report.counts().items():
                counter = metrics.verify_constraint.get(name)
                if counter is not None:
                    counter.add(count)
        if report.ok():
            if metrics is not None:
                metrics.verify_passed.add()
            _log.warning("patch_verify_warnings", key=confirmed.key,
                         warnings=len(report.warnings),
                         summary=report.summary())
            return True
        self.quarantine.add(confirmed, report)
        if metrics is not None:
            metrics.verify_quarantined.add()
            metrics.quarantine_depth.set(len(self.quarantine))
        _log.error("patch_quarantined", key=confirmed.key,
                   errors=len(report.errors),
                   warnings=len(report.warnings),
                   constraints=",".join(sorted(report.counts())),
                   summary=report.summary())
        return False

    def filter(self, patches: Iterable[ConfirmedPatch]
               ) -> List[ConfirmedPatch]:
        """Admit a batch; quarantined patches are dropped from the
        returned list (but never from the record — see the store)."""
        return [cp for cp in patches if self.admit(cp)]
