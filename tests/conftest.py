"""Shared fixtures: fitted class models and small topology builders.

Class models are built once per session from the bundled corpus's fitted
CDFs; they are read-only and shared by every test that needs realistic homes.
Every session also checks that the tests leave the checkout's root as they
found it, less what `.gitignore` ignores.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import helpers
from stressgrid.engine import load_models
from stressgrid.topology import build_topology

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session", autouse=True)
def checkout_left_clean():
    """Fail the session if the tests leave a new entry in the repo root that
    no root-level `.gitignore` pattern matches (caches such as
    `.hypothesis` are ignored there)."""
    before = {p.name for p in ROOT.iterdir()}
    yield
    lines = (ROOT / ".gitignore").read_text().splitlines()
    patterns = [line.strip().strip("/") for line in lines if line.strip() and not line.startswith("#")]
    left = sorted(
        p.name for p in ROOT.iterdir()
        if p.name not in before and not any(fnmatch(p.name, pattern) for pattern in patterns)
    )
    assert not left, f"the tests left {left} in {ROOT}"


@pytest.fixture(scope="session")
def class_models():
    return load_models("builtin")


@pytest.fixture
def small_topology(class_models):
    """100 homes on 10 feeders (2 groups of 5), 90% smart, fresh each test."""

    def build(ap=0.9, n_homes=100, n_feeders=10, group_size=5, seed=7, class_mix=(1 / 3, 1 / 3, 1 / 3)):
        rng = np.random.default_rng(seed)
        topo = build_topology(
            class_models,
            n_homes=n_homes,
            n_feeders=n_feeders,
            ap=ap,
            rng=rng,
            homes_per_transformer=5,
            group_size=group_size,
            class_mix=class_mix,
        )
        helpers.fill_draws(topo, 0.8)
        return topo

    return build
