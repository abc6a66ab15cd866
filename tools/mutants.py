#!/usr/bin/env python
"""Mutant list: hand-made bugs the test suite must keep catching.

Run as ``python tools/mutants.py`` (no flags, no environment). Each entry
of :data:`MUTANTS` names a bug as an exact source edit and the tests that
must catch it. For every entry, in a fresh temporary copy of ``src/`` and
``tests/``:

1. the named tests must pass on the unmutated copy;
2. ``old`` must occur exactly once in ``file`` — a snippet that no longer
   matches is an error, so the list cannot rot silently;
3. with ``old`` replaced by ``new``, every named test must fail.

All runs use ``--hypothesis-profile=ci`` (derandomized, no example
database), so a mutant is caught within the default example budget or
not at all. A surviving mutant means a test needs strengthening, never
that the entry goes. Exit status 1 if any entry is not killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCHEDULED = "tests/test_cluster_model.py::TestScheduledCoreModel"
COPY_PROPERTY = ("tests/test_properties_core.py::TestCopyMatchesReinsert"
                 "::test_copy_matches_reinsert_copy")

MUTANTS = [
    dict(
        name="resend-without-restart",
        file="src/repro/cluster/protocol.py",
        old="""\
                if shard.gen[PRIMARY] == send.gen:
                    self._restart(shard, PRIMARY)
        raise ClusterError(f"shard {index} failed twice on write: {last_exc}")
""",
        new="""\
        raise ClusterError(f"shard {index} failed twice on write: {last_exc}")
""",
        tests=[SCHEDULED],
        reason="an ambiguous write resent to the shard that may have "
               "applied it lands twice",
    ),
    dict(
        name="replica-below-floor",
        file="src/repro/cluster/protocol.py",
        old="""\
            elif response.version is not None and response.version < floor:
""",
        new="""\
            elif False:
""",
        tests=[SCHEDULED],
        reason="a lagging replica answers below a version the router "
               "already showed a client",
    ),
    dict(
        name="reply-from-respawned-slot",
        file="src/repro/cluster/protocol.py",
        old="""\
        if (error is None and send is not None
                and self._shards[send.index].gen[send.slot] != send.gen):
            error = ShardDead("slot respawned since the send")
""",
        new="",
        tests=[SCHEDULED, "tests/test_cluster_model.py"
               "::test_write_answered_by_a_respawned_primary_is_resent"],
        reason="a write answered by a primary replaced meanwhile is "
               "acked, but its successor never applied it",
    ),
    dict(
        name="journal-at-send",
        file="src/repro/cluster/protocol.py",
        old="""\
                result, applied = yield from self._write(index, sub,
                                                         tile_ops)
                if result.accepted and applied:
                    self._journal_ack(index, patch, applied)
""",
        new="""\
                self._journal_ack(index, patch, tile_ops)
                result, applied = yield from self._write(index, sub,
                                                         tile_ops)
                if result.accepted and applied:
""",
        tests=[SCHEDULED],
        reason="a write the shard never acked (or refused) is replayed "
               "into every restart",
    ),
    dict(
        name="replay-by-current-ownership",
        file="src/repro/cluster/placement.py",
        old="""\
            if k < boot_seq:
                ops = [op for tile, op in entry.ops
                       if boot.shard(tile) == index]
            elif entry.shard == index:
""",
        new="""\
            if True:
                ops = [op for tile, op in entry.ops
                       if self.ownership.shard(tile) == index]
            elif entry.shard == index:
""",
        tests=[SCHEDULED,
               "tests/test_cluster.py::TestRebalance"
               "::test_restart_after_growth_keeps_shard_versions"],
        reason="a shard restarted after a rebalance rewinds its version "
               "and a synced client skips its next change",
    ),
    dict(
        name="changes-since-unfiltered",
        file="src/repro/cluster/protocol.py",
        old="""\
                if place.home(change.element_id, lambda: place.scheme.tile_of(
                        *change.position))[1] != index:
                    continue  # stale copy of a rebalanced-away element
""",
        new="",
        tests=[SCHEDULED],
        reason="the old owner's stale copies of rebalanced elements show "
               "up as duplicate changes",
    ),
    dict(
        name="image-waiter-skips-reprobe",
        file="src/repro/cluster/protocol.py",
        old="""\
            if (image is not seen and image is not None
                    and (yield from self._image_current(image))):
""",
        new="""\
            if image is not seen and image is not None:
""",
        tests=["tests/test_cluster_model.py"
               "::test_bootstrap_waiter_reprobes_the_image_it_waited_for"],
        reason="a bootstrap that waited on another's rebuild answers that "
               "image though a write was acked before it started",
    ),
    dict(
        name="wait-ignores-deadlines",
        file="src/repro/cluster/router.py",
        old="""\
                op.wake.acquire(True, left)
""",
        new="""\
                op.wake.acquire()
""",
        tests=["tests/test_cluster.py::TestSteppedReplies"
               "::test_reply_past_its_deadline_is_one_timeout_and_one_late_"
               "discard"],
        reason="a shard that never answers hangs its caller past "
               "call_timeout_s instead of failing over",
    ),
    dict(
        name="bus-leases-first-ready",
        file="src/repro/ingest/bus.py",
        old="""\
                    _, p, part = min(ready)
""",
        new="""\
                    _, p, part = ready[0]
""",
        tests=["tests/test_ingest_bus.py::TestBusModel"],
        reason="a refilling partition starves its siblings on a worker "
               "that owns several",
    ),
    dict(
        name="copy-keeps-stale-cells",
        file="src/repro/geometry/index.py",
        old="""\
            if old != bounds:
                if old is not None:
                    out._uncover(key, old)
""",
        new="""\
            if old is None:
""",
        tests=[COPY_PROPERTY],
        reason="a map copy still finds a moved element in the cells it "
               "left",
    ),
    dict(
        name="copy-clones-allocator",
        file="src/repro/core/hdmap.py",
        old="""\
        for members in by_kind.values():
            # add() reserves every id; only the highest of a kind counts.
            clone._ids.reserve(max(members, key=_id_num))
""",
        new="""\
        clone._ids._highest = dict(self._ids._highest)
""",
        tests=[COPY_PROPERTY],
        reason="a map copy issues different new ids than a copy that "
               "re-added every element",
    ),
]


def _pytest(root: str, tests) -> bool:
    """Whether ``tests`` all pass in the tree at ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=ci", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode == 0


def _check(entry) -> str:
    """Run one entry; returns "" when the mutant is killed, else why not."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as root:
        for tree in ("src", "tests"):
            shutil.copytree(os.path.join(REPO, tree),
                            os.path.join(root, tree),
                            ignore=shutil.ignore_patterns(
                                "__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(REPO, "pyproject.toml"), root)
        path = os.path.join(root, entry["file"])
        with open(path) as fh:
            source = fh.read()
        found = source.count(entry["old"])
        if found != 1:
            return f"snippet matches {found} times in {entry['file']}"
        if not _pytest(root, entry["tests"]):
            return "tests fail without the mutation"
        with open(path, "w") as fh:
            fh.write(source.replace(entry["old"], entry["new"]))
        for test in entry["tests"]:
            if _pytest(root, [test]):
                return f"survived {test}"
    return ""


def main() -> int:
    failed = 0
    for entry in MUTANTS:
        t0 = time.monotonic()
        problem = _check(entry)
        status = f"NOT KILLED: {problem}" if problem else "killed"
        print(f"{entry['name']:<30} {status} "
              f"({time.monotonic() - t0:.0f} s) — {entry['reason']}",
              flush=True)
        failed += bool(problem)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
