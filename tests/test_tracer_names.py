"""The benchmark's tracer patches program functions by name; each of those
names must exist in the program, and a traced run must show every policy
step, command and served-demand sum."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import stressgrid.cli  # noqa: F401  (the tracer patches every loaded module)
from stressgrid import engine
from stressgrid.engine import SimConfig
from stressgrid.protocol import CommandChannel
from stressgrid.topology import SupplyModel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    assert tracer.FUNCTIONS
    for module, func in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"stressgrid.{module}"), func, None)), (module, func)
    # the apply wrapper takes (channel, home, level), one command per call
    assert list(inspect.signature(CommandChannel.apply).parameters) == ["self", "home", "level"]


STEPS = [
    ("baseline", "policies.baseline_step"),
    ("distributed", "policies.alg1_round"),
    ("centralized", "policies.alg2_step"),
]
LOSSY = {"protocol_emulation": True, "protocol_distance_m": 50.0}
LOSSLESS = {"protocol_emulation": False}


@pytest.mark.parametrize(
    "policy, step, link",
    [pytest.param(policy, step, LOSSY, id=f"{policy}-{step}") for policy, step in STEPS]
    + [pytest.param(policy, step, LOSSLESS, id=f"{policy}-{step}-lossless") for policy, step in STEPS],
)
def test_traced_run_counts_every_round(tracer, policy, step, link):
    """One span per round of the policy's step, one `apply` per command, and
    one served-demand sum per hour: the rounds keep it up to date. On a
    lossy link and on a lossless one, whose runs of commands all land."""
    config = SimConfig(
        horizon_hours=4, n_homes=200, n_feeders=10, group_size=5, policy=policy,
        supply=SupplyModel(gap_fraction=0.3), seed=3, **link,
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        log = engine.run(config)
    finally:
        spans.uninstall()
    calls = spans.summary()["calls"]
    rounds = sum(rec.convergence_seconds for rec in log.hours)
    assert rounds > 0
    assert calls[step] == rounds
    assert calls[tracer.APPLY] == log.commands_sent > 0
    assert calls["topology.served_demand"] == len(log.hours)
