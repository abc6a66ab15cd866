#!/usr/bin/env python
"""Docs-consistency gate: the CLI, metric names, and knobs the docs
promise must exist in the code.

Three checks, run by CI's lint job (and locally via
``PYTHONPATH=src python tools/check_docs.py``):

1. every ``python -m repro`` subcommand registered by
   :func:`repro.cli.build_parser` is mentioned in README.md;
2. every canonical metric name written in the operator handbooks
   (docs/OPERATIONS.md and docs/MAP_QUALITY.md — backticked
   ``serve.* / ingest.* / perf.* / log.*`` tokens, with ``<placeholder>``
   segments) resolves against the registry universe of a real
   serve+ingest workload — the same one ``obs smoke`` gates on — so a
   handbook can never name a metric the code stopped registering; the
   ``ingest.verify.*`` constraint universe resolves because the
   per-constraint counters are pre-seeded from the canonical catalog;
3. every knob a handbook tells an operator to turn — backticked
   ``Ctor(arg=…)`` snippets and ``--flag`` mentions — is a real
   constructor/function argument or a real CLI flag.

Exits non-zero listing every stale reference.
"""

from __future__ import annotations

import inspect
import os
import re
import sys
import tempfile
from typing import List, Set

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

#: Modules knob snippets may resolve against, in lookup order.
KNOB_NAMESPACES = (
    "repro.serve",
    "repro.ingest",
    "repro.chaos",
    "repro.obs",
    "repro.update.distribution",
    "repro.cluster",
    "repro.pack",
)

#: Operator-facing handbooks whose metric names and knobs must resolve.
HANDBOOKS = (
    os.path.join("docs", "OPERATIONS.md"),
    os.path.join("docs", "MAP_QUALITY.md"),
)

METRIC_TOKEN = re.compile(
    r"`((?:serve|ingest|perf|log|cluster|pack)\.[A-Za-z0-9_.<>]+)`")
KNOB_CALL = re.compile(
    r"`([A-Za-z][A-Za-z0-9_]*)\(([a-z][a-z0-9_]*)=")
CLI_FLAG = re.compile(r"`(--[a-z][a-z0-9-]+)`")


def _read(path: str) -> str:
    with open(os.path.join(REPO, path), encoding="utf-8") as fh:
        return fh.read()


def check_cli_in_readme(errors: List[str]) -> None:
    from repro.cli import build_parser

    parser = build_parser()
    subcommands: Set[str] = set()
    for action in parser._subparsers._group_actions:
        subcommands.update(action.choices)
    readme = _read("README.md")
    for name in sorted(subcommands):
        if name not in readme:
            errors.append(
                f"README.md: CLI subcommand `{name}` is not mentioned")


def _metric_universe() -> Set[str]:
    """Registered names of a real workload (dynamic names included)."""
    import numpy as np

    from repro.cli import _obs_workload
    from repro.storage import save_map
    from repro.world import generate_grid_city

    from repro.obs import MetricsRegistry
    from repro.serve import GetTile, MapService
    from repro.storage import TileStore
    from repro.update.distribution import MapDistributionServer

    city = generate_grid_city(np.random.default_rng(7), 2, 2,
                              block_size=150.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "city.json")
        save_map(city, path)
        registry = _obs_workload(path, seed=7)
    names = set(registry.snapshot())

    # The fleet workload never issues GetTile; cover its dynamic
    # per-kind names from a one-request service of its own.
    extra = MetricsRegistry()
    server = MapDistributionServer(city.copy())
    store = TileStore.build(city, tile_size=250.0)
    with MapService(server, store, n_workers=1, registry=extra) as service:
        service.request(GetTile(store.tiles()[0]))
    names |= set(extra.snapshot())

    # cluster.* names come from a tiny in-process cluster: replicated
    # reads mint the concurrent-read-path metrics (replica hits, lag,
    # coalescing, inflight), one write mints the per-kind router
    # metrics, one metrics poll mints the merged per-shard names.
    from repro.cluster import ClusterRouter
    from repro.core import MapPatch, SignType, TrafficSign
    from repro.serve import IngestPatch

    cluster_registry = MetricsRegistry()
    router = ClusterRouter(city, n_shards=2, tile_size=250.0,
                           transport="local", replicas=1,
                           registry=cluster_registry)
    try:
        for _ in range(4):  # round-robin across primary + replica
            router.request(GetTile(router.tiles()[0]))
        import numpy as np
        patch = MapPatch(source="docs-check", confidence=0.9)
        patch.add(TrafficSign(id=city.new_id("docs-check-sign"),
                              position=np.array([10.0, 10.0]),
                              sign_type=SignType.DIRECTION))
        router.request(IngestPatch(patch=patch))
        router.collect_shard_metrics()
        names |= set(cluster_registry.snapshot())
    finally:
        router.close()

    # pack.* names come from a tiny pack-backed store: one zero-copy
    # read and one decode touch every serving counter.
    from repro.storage.tilestore import TileStore as _TileStore

    pack_registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        pack_path = os.path.join(tmp, "docs-check.pack")
        _TileStore.build(city, tile_size=250.0).to_pack(pack_path)
        packed = _TileStore.from_pack(pack_path)
        tile = packed.tiles()[0]
        packed.encoded_view(tile)
        packed.load_tile(tile)
        packed.pack_reader.register_into(pack_registry)
        packed.pack_reader.close()
        names |= set(pack_registry.snapshot())
    return names


def check_handbook_metrics(errors: List[str]) -> None:
    universe = _metric_universe()
    for handbook in HANDBOOKS:
        label = os.path.basename(handbook)
        doc = _read(handbook)
        for token in sorted(set(METRIC_TOKEN.findall(doc))):
            if "<" in token:
                # <placeholder> segments may span dots (perf kernel
                # names are dotted); re.escape leaves the <...> markers
                # intact.
                pattern = re.compile(
                    "^" + re.sub(r"<[a-z]+>", r"[A-Za-z0-9_.]+",
                                 re.escape(token)) + "$")
                if not any(pattern.match(name) for name in universe):
                    errors.append(
                        f"{label}: metric pattern `{token}` matches "
                        f"nothing in the registry")
            elif token not in universe:
                errors.append(
                    f"{label}: metric `{token}` is not registered")


def _resolve_knob_target(name: str):
    import importlib

    for namespace in KNOB_NAMESPACES:
        module = importlib.import_module(namespace)
        target = getattr(module, name, None)
        if target is not None:
            return target
    return None


def check_handbook_knobs(errors: List[str]) -> None:
    from repro.cli import build_parser

    flags: Set[str] = set()
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            for sub_action in sub._actions:
                flags.update(sub_action.option_strings)
            if sub._subparsers is not None:
                for nested in sub._subparsers._group_actions:
                    for leaf in nested.choices.values():
                        for leaf_action in leaf._actions:
                            flags.update(leaf_action.option_strings)

    for handbook in HANDBOOKS:
        label = os.path.basename(handbook)
        doc = _read(handbook)
        for name, arg in sorted(set(KNOB_CALL.findall(doc))):
            target = _resolve_knob_target(name)
            if target is None:
                errors.append(
                    f"{label}: knob target `{name}` not found in "
                    f"{', '.join(KNOB_NAMESPACES)}")
                continue
            callee = target.__init__ if inspect.isclass(target) else target
            params = inspect.signature(callee).parameters
            if arg not in params:
                errors.append(
                    f"{label}: `{name}({arg}=…)` — no such argument")
        for flag in sorted(set(CLI_FLAG.findall(doc))):
            if flag not in flags:
                errors.append(
                    f"{label}: CLI flag `{flag}` does not exist")


def main() -> int:
    errors: List[str] = []
    check_cli_in_readme(errors)
    check_handbook_knobs(errors)
    check_handbook_metrics(errors)
    if errors:
        for line in errors:
            print(f"FAIL {line}")
        print(f"docs check failed: {len(errors)} stale reference(s)")
        return 1
    print("docs check passed: CLI, metrics, and knobs all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
