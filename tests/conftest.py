"""Shared fixtures: deterministic RNG and small reusable worlds.

World fixtures are session-scoped (they are read-only for tests) to keep
the suite fast; anything that mutates a map must copy it first.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import settings

from repro.core.elements import Kind
from repro.core.regulatory import RegulatoryElement
from repro.world import generate_factory_floor, generate_grid_city, generate_highway

# `--hypothesis-profile=ci`: examples derive from the test alone and no
# local example database is read, so a failure reproduces from the commit.
settings.register_profile("ci", derandomize=True, database=None)
# `--hypothesis-profile=ci-deep`: the same, with 100 examples; the model
# machines (tests/test_cluster_model.py) run that many, from DEEP_SEED
# instead of their own fixed seeds.
settings.register_profile("ci-deep", derandomize=True, database=None,
                          max_examples=100)
DEEP_SEED = 20241020


def deep_profile() -> bool:
    """Whether this run loaded the ``ci-deep`` profile."""
    return settings.default is settings.get_profile("ci-deep")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def leaked(threads_before) -> list:
    """Threads started since ``threads_before`` that are still alive, and
    live child processes — after a few seconds' grace for ones already
    on their way out."""
    deadline = time.monotonic() + 5.0
    while True:
        threads = [t for t in threading.enumerate()
                   if t not in threads_before and t.is_alive()]
        children = multiprocessing.active_children()
        if (not threads and not children) or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    return ([f"thread {t.name}" for t in threads]
            + [f"process {p.name}" for p in children])


@pytest.fixture
def leaks():
    """``leaks(prefix)``: the targets of this process's open file
    descriptors that start with ``prefix`` (``pipe:``, a file path…).
    The test also fails if, once it returns, a thread it started is
    still alive or a child process is still running."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")

    def targets(prefix: str):
        out = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue  # closed since the listing (listdir's own fd)
            if target.startswith(prefix):
                out.append(target)
        return out

    before = set(threading.enumerate())
    yield targets
    left = leaked(before)
    assert not left, f"still running after the test: {left}"


@pytest.fixture(scope="session")
def highway():
    return generate_highway(np.random.default_rng(101), length=2000.0,
                            sign_spacing=200.0, pole_spacing=80.0)


@pytest.fixture(scope="session")
def city():
    return generate_grid_city(np.random.default_rng(202), blocks_x=3,
                              blocks_y=2, block_size=150.0)


@pytest.fixture(scope="session")
def factory():
    return generate_factory_floor(np.random.default_rng(303))


def add_rule(hdmap, **kwargs) -> RegulatoryElement:
    """Add one regulatory element with a fresh id to ``hdmap``."""
    rule = RegulatoryElement(id=hdmap.new_id(Kind.REGULATORY), **kwargs)
    hdmap.add(rule)
    return rule


def of_type(hdmap, cls) -> list:
    """Every element of ``hdmap`` that is a ``cls``."""
    return [e for e in hdmap.elements() if isinstance(e, cls)]


def stale_index_entries(hdmap) -> dict:
    """``{id: (indexed bounds, current bounds)}`` for every spatial element
    whose grid-index entry no longer matches ``element.bounds()``."""
    indexed = hdmap._index._bounds
    return {eid: (indexed.get(eid), element.bounds())
            for eid, element in hdmap._elements.items()
            if indexed.get(eid) != element.bounds()}
