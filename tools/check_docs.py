#!/usr/bin/env python
"""Docs-consistency gate: the CLI, metric names, and knobs the docs
promise must exist in the code.

Three checks, run by CI's lint job (and locally via
``PYTHONPATH=src python tools/check_docs.py``):

1. every ``python -m repro`` subcommand registered by
   :func:`repro.cli.build_parser` is mentioned in README.md, and every
   ``python -m repro <command>`` that README.md, DESIGN.md, docs/*.md or
   a ``.claude/skills/*/SKILL.md`` names is registered;
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

import glob
import inspect
import os
import re
import sys
import tempfile
from typing import Dict, List, Set

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
CLI_MENTION = re.compile(r"python -m repro\s+([a-z][a-z0-9-]*)")

#: Docs whose ``python -m repro <command>`` mentions must be registered.
CLI_DOCS = ("README.md", "DESIGN.md", os.path.join("docs", "*.md"),
            os.path.join(".claude", "skills", "*", "SKILL.md"))


def _read(path: str) -> str:
    with open(os.path.join(REPO, path), encoding="utf-8") as fh:
        return fh.read()


def check_cli_docs(errors: List[str], root: str = REPO) -> None:
    from repro.cli import build_parser

    parser = build_parser()
    subcommands: Set[str] = set()
    for action in parser._subparsers._group_actions:
        subcommands.update(action.choices)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for name in sorted(subcommands):
        if name not in readme:
            errors.append(
                f"README.md: CLI subcommand `{name}` is not mentioned")
    for pattern in CLI_DOCS:
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path, encoding="utf-8") as fh:
                named = set(CLI_MENTION.findall(fh.read()))
            for name in sorted(named - subcommands):
                errors.append(
                    f"{os.path.relpath(path, root)}: `python -m repro "
                    f"{name}` is not a registered subcommand")


def _metric_universe() -> Dict[str, str]:
    """Every metric name of a real workload -> its Prometheus type.

    One registry composes the registries of the components a deployment
    runs: the ``obs smoke`` workload (event log, ingest pipeline and
    bus, map service, perf kernels); a one-request service, because the
    fleet workload never issues ``GetTile``; a tiny in-process cluster,
    whose replicated reads mint the read-path metrics, whose one write
    mints the per-kind router metrics and whose one metrics poll mints
    the merged per-shard names; and a pack-backed store after one
    zero-copy read and one decode.
    """
    import numpy as np

    from repro.cli import _obs_workload
    from repro.cluster import ClusterRouter
    from repro.core import MapPatch, SignType, TrafficSign
    from repro.obs.metrics import MetricsRegistry, prom_type
    from repro.serve import GetTile, IngestPatch, MapService
    from repro.storage import TileStore, save_map
    from repro.update.distribution import MapDistributionServer
    from repro.world import generate_grid_city

    city = generate_grid_city(np.random.default_rng(7), 2, 2,
                              block_size=150.0)
    universe = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "city.json")
        save_map(city, path)
        universe.register_collector(_obs_workload(path, seed=7).collect)

        store = TileStore.build(city, tile_size=250.0)
        with MapService(MapDistributionServer(city.copy()), store,
                        n_workers=1) as service:
            service.request(GetTile(store.tiles()[0]))
        universe.register_collector(service.registry.collect)

        with ClusterRouter(city, n_shards=2, tile_size=250.0,
                           transport="local", replicas=1) as router:
            for _ in range(4):  # round-robin across primary + replica
                router.request(GetTile(router.tiles()[0]))
            patch = MapPatch(source="docs-check", confidence=0.9)
            patch.add(TrafficSign(id=city.new_id("docs-check-sign"),
                                  position=np.array([10.0, 10.0]),
                                  sign_type=SignType.DIRECTION))
            router.request(IngestPatch(patch=patch))
            router.collect_shard_metrics()
        universe.register_collector(router.registry.collect)

        pack_path = os.path.join(tmp, "docs-check.pack")
        store.to_pack(pack_path)
        packed = TileStore.from_pack(pack_path)
        tile = packed.tiles()[0]
        packed.encoded_view(tile)
        packed.load_tile(tile)
        packed.pack_reader.close()
        universe.register_collector(packed.pack_reader.registry.collect)
    return {name: prom_type(metric)
            for name, metric in universe.collect().items()}


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
    check_cli_docs(errors)
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
