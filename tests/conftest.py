"""Shared fixtures: deterministic RNG and small reusable worlds.

World fixtures are session-scoped (they are read-only for tests) to keep
the suite fast; anything that mutates a map must copy it first.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.elements import Kind
from repro.core.regulatory import RegulatoryElement
from repro.world import generate_factory_floor, generate_grid_city, generate_highway

# `--hypothesis-profile=ci`: examples derive from the test alone and no
# local example database is read, so a failure reproduces from the commit.
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def open_fds():
    """``open_fds(prefix)``: the targets of this process's open file
    descriptors that start with ``prefix`` (``pipe:``, a file path…)."""
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

    return targets


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
