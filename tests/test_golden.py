"""Golden fingerprints: small fixed runs must reproduce recorded outcomes.

Integer outcomes (level counts, convergence seconds, flags, repeat-shed
homes, command counters) and the demand and served watts must match
exactly: draws are whole multiples of `homes.QUANTUM_W`, so those sums are
exact in any order. ULW and mean utility come from rounded products and
quotients (capacity is a fraction of demand), which a rewritten formula may
round differently without changing any decision, so they are compared to
FLOAT_REL_TOL relative.

The digest matrix pins one sha256 per run of a wider grid of small cells
(policy x gap x link x seed, each cell run through `engine.run_cell`), over
the exact parts of its fingerprint: commands, integers and watts.

Re-record both after a deliberate change of behaviour, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from stressgrid.engine import SimConfig, run, run_cell
from stressgrid.policies import POLICIES
from stressgrid.topology import SupplyModel

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_REL_TOL = 1e-9

_SMALL = dict(horizon_hours=24, n_homes=400, n_feeders=20, group_size=5, ap=0.6, seed=5)
CONFIGS = {
    "baseline": dict(_SMALL, policy="baseline", supply=SupplyModel(gap_fraction=0.3)),
    "distributed": dict(_SMALL, policy="distributed", supply=SupplyModel(gap_fraction=0.3)),
    "centralized": dict(_SMALL, policy="centralized", supply=SupplyModel(gap_fraction=0.3)),
    "lossy_distributed": dict(
        _SMALL, policy="distributed", ap=0.9, supply=SupplyModel(gap_fraction=0.4),
        protocol_emulation=True, protocol_distance_m=50.0,
    ),
    "lossy_centralized": dict(
        _SMALL, policy="centralized", ap=0.9, supply=SupplyModel(gap_fraction=0.4),
        protocol_emulation=True, protocol_distance_m=50.0,
    ),
    # 22 of its 24 hours declare an emergency, which the 30 % case never does
    "centralized_emergency": dict(_SMALL, policy="centralized", supply=SupplyModel(gap_fraction=0.4)),
}
INT_FIELDS = (
    "level_counts", "smart_level_counts", "convergence_seconds",
    "converged", "emergency", "repeat_shed_homes",
)
WATT_FIELDS = ("demand_w", "served_w")
FLOAT_FIELDS = ("ulw_w", "mean_utility")


# The digest matrix: every policy x gap x link x seed, 54 runs in 18 cells.
DIGESTS = GOLDEN_DIR / "digests.json"
_MATRIX = dict(horizon_hours=12, n_homes=600, n_feeders=30, group_size=4, ap=0.7)
GAPS = (0.1, 0.4, 0.6)
LINKS = {"nolink": {}, "50m": dict(protocol_emulation=True, protocol_distance_m=50.0),
         "30m": dict(protocol_emulation=True, protocol_distance_m=30.0)}
SEEDS = (5, 99)
CELLS = {f"gap{round(100 * gap)}-{link}-seed{seed}": (gap, link, seed)
         for gap, link, seed in product(GAPS, LINKS, SEEDS)}


def fingerprint(name: str) -> dict:
    return log_fingerprint(run(SimConfig(**CONFIGS[name])))


def log_fingerprint(log) -> dict:
    return {
        "commands": [log.commands_sent, log.commands_lost],
        "ints": [[list(v) if isinstance(v, tuple) else v for v in
                  (getattr(rec, f) for f in INT_FIELDS)] for rec in log.hours],
        "watts": [[getattr(rec, f) for f in WATT_FIELDS] for rec in log.hours],
        "floats": [[getattr(rec, f) for f in FLOAT_FIELDS] for rec in log.hours],
    }


def cell_digests(cell: str) -> dict[str, str]:
    """{policy: digest} of the runs of one matrix cell, named as in CELLS.
    A digest is the sha256 of the run's fingerprint less its floats."""
    gap, link, seed = CELLS[cell]
    base = dict(_MATRIX, **LINKS[link], supply=SupplyModel(gap_fraction=gap), seed=seed)
    logs = run_cell([SimConfig(**base, policy=policy) for policy in POLICIES])
    digests = {}
    for log in logs:
        exact = {k: v for k, v in log_fingerprint(log).items() if k != "floats"}
        digests[log.policy] = hashlib.sha256(json.dumps(exact).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("cell", CELLS)
def test_matches_digest_matrix(cell):
    assert cell_digests(cell) == json.loads(DIGESTS.read_text())[cell]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = fingerprint(name)
    assert got["commands"] == want["commands"]
    assert got["ints"] == want["ints"]
    assert got["watts"] == want["watts"]
    for hour, (g, w) in enumerate(zip(got["floats"], want["floats"])):
        assert g == pytest.approx(w, rel=FLOAT_REL_TOL, abs=0.0), (hour, FLOAT_FIELDS)


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(fingerprint(name), indent=1) + "\n")
        print(f"wrote {path}")
    DIGESTS.write_text(json.dumps({cell: cell_digests(cell) for cell in CELLS}, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
