"""Shared fixtures: deterministic RNG and small reusable worlds.

World fixtures are session-scoped (they are read-only for tests) to keep
the suite fast; anything that mutates a map must copy it first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.world import generate_factory_floor, generate_grid_city, generate_highway

# `--hypothesis-profile=ci`: examples derive from the test alone and no
# local example database is read, so a failure reproduces from the commit.
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


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
