"""Distribution-grid topology and the supply model.

The tree is feeders -> transformers -> homes, built deterministically:
homes are placed round-robin onto transformers and transformers onto
feeders, classes are assigned by a largest-deficit quota stream, and
smart-controller flags are dealt to an exact quota of homes chosen by a
seeded shuffle. Feeders are grouped in consecutive chunks; shedding
policies act on those groups.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .homes import HOME_CLASSES, ClassModel, Fleet

# Stress levels are rounded to this many decimals of a percent, so the
# rounding of capacity, a product of the demand, cannot move a level that is
# exactly 100 * gap (such as 40) to one ulp below it, where it would flip the
# policies' integer comparisons against it.
STRESS_DECIMALS = 9


@dataclass(frozen=True)
class SupplyModel:
    """Available supply per hour.

    fixed_capacity serves a constant number of watts; fractional_gap
    recomputes capacity every hour as (1 - gap) of that hour's demand.
    """

    mode: str = "fractional_gap"
    capacity_w: float = 0.0
    gap_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("fixed_capacity", "fractional_gap"):
            raise ValueError(f"unknown supply mode {self.mode!r}")
        if self.mode == "fixed_capacity" and not self.capacity_w >= 0:
            raise ValueError(f"capacity_w {self.capacity_w:g} outside [0, inf)")
        if not 0.0 <= self.gap_fraction < 1.0:
            raise ValueError(f"gap_fraction {self.gap_fraction:g} outside [0, 1)")

    def capacity_for(self, demand_w: float) -> float:
        if self.mode == "fixed_capacity":
            return self.capacity_w
        return (1.0 - self.gap_fraction) * demand_w


@lru_cache(maxsize=8)
def _class_stream(n_homes: int, class_mix: tuple[float, ...]) -> np.ndarray:
    """Deterministic interleaved class indices honoring the mix quotas: each
    home takes the class furthest below its quota so far, ties going to the
    lower label. Cached, so the array is read-only."""
    mix_a, mix_b, mix_c = class_mix
    n_a = n_b = n_c = 0
    out = bytearray(n_homes)
    for i in range(n_homes):
        d_a = mix_a * (i + 1) - n_a
        d_b = mix_b * (i + 1) - n_b
        d_c = mix_c * (i + 1) - n_c
        if d_a >= d_b and d_a >= d_c:
            n_a += 1
        elif d_b >= d_c:
            n_b += 1
            out[i] = 1
        else:
            n_c += 1
            out[i] = 2
    return np.frombuffer(bytes(out), dtype=np.uint8)


def check_classes(labels: Collection[str], n_homes: int, class_mix: tuple[float, ...]) -> None:
    """Raise ValueError unless `labels` holds every class the class stream
    gives a home."""
    used = np.unique(_class_stream(n_homes, tuple(class_mix)))
    missing = {sorted(HOME_CLASSES)[c] for c in used} - set(labels)
    if missing:
        raise ValueError(f"no class model for class {', '.join(sorted(missing))}")


def build_topology(
    class_models: dict[str, ClassModel],
    n_homes: int,
    n_feeders: int,
    ap: float,
    rng: np.random.Generator,
    homes_per_transformer: int,
    group_size: int,
    class_mix: tuple[float, ...],
) -> Fleet:
    """Build the tree as a `Fleet`; `ap` is the fraction of homes given smart
    control. The arguments are taken as checked, as `SimConfig` checks them."""
    n_transformers = math.ceil(n_homes / homes_per_transformer)

    labels = sorted(HOME_CLASSES)
    cls = _class_stream(n_homes, tuple(class_mix)).astype(np.intp)
    check_classes(class_models, n_homes, class_mix)
    smart = np.zeros(n_homes, dtype=bool)
    smart[rng.permutation(n_homes)[: round(ap * n_homes)]] = True
    group = np.arange(n_homes) % n_transformers % n_feeders // group_size

    # every group takes its turn, also one whose feeders carry no home
    n_groups = math.ceil(n_feeders / group_size)
    ends = np.cumsum(np.bincount(group, minlength=n_groups))
    members = np.split(np.argsort(group, kind="stable"), ends[:-1])
    models = tuple(class_models.get(label) for label in labels)
    return Fleet(models, cls, smart, members)


def served_demand(fleet: Fleet) -> float:
    """Served demand at the homes' current states; raises while draws are unset."""
    total = float(fleet.watts(np.arange(len(fleet))).sum())
    if math.isnan(total):
        raise RuntimeError("hour draws not set")
    return total


def stress_level(demand_w: float, supply_w: float) -> float:
    """Percent of actual demand not met, floored at zero and rounded to
    STRESS_DECIMALS decimals."""
    if demand_w <= 0:
        raise ValueError("demand must be positive")
    return max(0.0, round(100.0 * (demand_w - supply_w) / demand_w, STRESS_DECIMALS))
