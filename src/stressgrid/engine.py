"""Event-driven simulation engine.

Time advances in one-second steps inside hourly windows. At each hour
boundary every home is restored to full power, appliance draws are
redrawn, and the hour's supply and stress level are fixed. While served
demand exceeds capacity the active policy's round function runs once per
second, k = 1, 2, ... within the hour; the engine sums served demand once,
at the hour's start, and each round lowers it by the watts it sheds. Once
the hour converges no state changes until the next boundary, so the engine
skips ahead. A run is a pure function of (config, seed). The runs of one
cell, whose configs differ in policy alone, share one grid and one
redraw per hour (`run_cell`).

Under-load wastage and all level statistics are recorded at the converged
state of each hour. A policy that exhausts its round budget leaves the
hour marked non-convergent and the run carries on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .consumption import EmpiricalCdf, filter_outliers, fit_cdf, load_corpus, sample_inverse
from .homes import HOME_CLASSES, ClassModel, Fleet, build_class_model, check_appliance_count, set_hour_draws
from .levels import _L5, PowerLevel, UtilityParams, utility
from .metrics import HourRecord, MetricsLog, ulw
from .policies import POLICIES, DistributionProfile, RoundState, reset_hourly
from .protocol import CommandChannel, LinkModel
from .topology import STRESS_DECIMALS, SupplyModel, build_topology, served_demand, stress_level


@dataclass(frozen=True)
class SimConfig:
    horizon_hours: int = 24
    n_homes: int = 1000
    n_feeders: int = 50
    group_size: int = 10
    homes_per_transformer: int = 5
    class_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    data_dir: str = "builtin"
    ap: float = 0.9
    supply: SupplyModel = field(default_factory=SupplyModel)
    policy: str = "baseline"
    dp: DistributionProfile = field(
        default_factory=lambda: DistributionProfile(0.4, 0.3, 0.3)
    )
    reduction_factor: float = 0.5
    utility: UtilityParams = field(default_factory=UtilityParams)
    protocol_emulation: bool = False
    protocol_distance_m: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("horizon_hours", "n_homes", "n_feeders", "group_size", "homes_per_transformer"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0.0 <= self.ap <= 1.0:
            raise ValueError(f"ap {self.ap:g} outside [0, 1]")
        if not 0.0 < self.reduction_factor <= 1.0:
            raise ValueError(f"reduction_factor {self.reduction_factor:g} outside (0, 1]")
        if len(self.class_mix) != 3:
            raise ValueError("class_mix needs three fractions (A,B,C)")
        if min(self.class_mix) < 0 or not abs(sum(self.class_mix) - 1.0) <= 1e-6:
            raise ValueError("class mix must sum to 1 with no negative fraction")
        if not self.protocol_distance_m >= 0:
            raise ValueError(f"protocol_distance_m {self.protocol_distance_m:g} outside [0, inf)")

    def config_hash(self) -> str:
        parts = []
        for f in fields(self):
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


_MODEL_CACHE: dict[str, dict[str, ClassModel]] = {}

# The fitted CDFs of the bundled corpus: exactly what fit_cdf(filter_outliers(s))
# returns for each appliance of corpus.synthetic_samples(). Per class label L,
# "L_grid_x" and "L_grid_f" are (appliances x GRID_POINTS) and "L_bandwidth"
# is (appliances,). Only read here; tests/helpers.py rewrites it.
BUILTIN_CDFS = Path(__file__).with_name("builtin_cdfs.npz")


def load_models(data_dir: str) -> dict[str, ClassModel]:
    """Class models of a corpus directory, fitted from its files, or for
    "builtin", built from the fitted CDFs in BUILTIN_CDFS; cached per process.
    Raises OSError or ValueError for a corpus that cannot be read or fitted;
    a class with the wrong number of appliances is rejected before any fit."""
    if data_dir not in _MODEL_CACHE:
        if data_dir == "builtin":
            cdfs = _builtin_cdfs()
        else:
            corpus = load_corpus(data_dir)
            for label, samples in corpus.items():
                check_appliance_count(label, len(samples))
            cdfs = {
                label: [fit_cdf(filter_outliers(s)) for s in samples]
                for label, samples in corpus.items()
            }
        _MODEL_CACHE[data_dir] = {
            label: build_class_model(label, cdfs[label]) for label in sorted(cdfs)
        }
    return _MODEL_CACHE[data_dir]


def _builtin_cdfs() -> dict[str, list[EmpiricalCdf]]:
    with np.load(BUILTIN_CDFS, allow_pickle=False) as table:
        return {
            label: [
                EmpiricalCdf(x, f, float(h))
                for x, f, h in zip(
                    table[f"{label}_grid_x"], table[f"{label}_grid_f"], table[f"{label}_bandwidth"]
                )
            ]
            for label in HOME_CLASSES
        }


# Homes redrawn at a time, which bounds the temporaries of the hourly redraw.
BLOCK_ROWS = 2048


def _refresh_draws(fleet: Fleet, rng: np.random.Generator) -> None:
    """Redraw every appliance for the hour, class by class in home order,
    BLOCK_ROWS homes at a time. Each block of quantiles becomes its homes'
    draws in place. The values are those of one `rng.random` block per
    class: one double per value, in C order."""
    for model, homes in zip(fleet.models, fleet.class_homes):
        for first in range(0, homes.size, BLOCK_ROWS):
            block = homes[first : first + BLOCK_ROWS]
            u = rng.random((block.size, model.n_appliances))
            set_hour_draws(fleet, block, sample_inverse(model.table, u, out=u))


def _play_hour(config: SimConfig, state: RoundState, log: MetricsLog, hour: int,
               demand_w: float, capacity_w: float, sl: float) -> None:
    """One run's hour, the only writer of its hour state: open the hour on
    `state`, whose homes are all at L5, play the policy's rounds, record the
    hour and the run's command counts so far in `log`, and close the hour
    with `reset_hourly`, which leaves the homes at L5 for the next."""
    policy = POLICIES[config.policy]
    state.sl, state.capacity_w, state.served_w, state.emergency = sl, capacity_w, demand_w, False
    rounds = 0
    max_rounds = policy.max_rounds(len(state.fleet.groups))
    is_converged = demand_w <= capacity_w
    while not is_converged and rounds < max_rounds:
        rounds += 1
        policy.round(state, rounds)
        is_converged = state.served_w <= capacity_w

    fleet = state.fleet
    level = fleet.level
    # row v: the non-smart and the smart homes at level v
    by_level = np.bincount(2 * level + fleet.smart, minlength=12).reshape(6, 2)[1:]
    counts = by_level.sum(axis=1).tolist()
    smart_counts = by_level[:, 1].tolist()
    shed_again = fleet.ls_lh & (level < _L5)
    repeat_shed = 0 if state.emergency else int(np.count_nonzero(shed_again))
    log.hours.append(
        HourRecord(
            hour=hour,
            demand_w=demand_w,
            capacity_w=capacity_w,
            served_w=state.served_w,
            ulw_w=ulw(capacity_w, state.served_w) if is_converged else 0.0,
            level_counts=tuple(counts),
            smart_level_counts=tuple(smart_counts),
            mean_utility=sum(
                utility(lv, config.utility) * counts[lv - 1] for lv in PowerLevel
            ) / len(level),
            convergence_seconds=rounds,
            converged=is_converged,
            emergency=state.emergency,
            repeat_shed_homes=repeat_shed,
        )
    )
    log.commands_sent, log.commands_lost = state.channel.sent, state.channel.lost
    reset_hourly(fleet)


def run(config: SimConfig) -> MetricsLog:
    """Execute one simulation run; deterministic given (config, seed)."""
    return run_cell([config])[0]


def run_cell(configs: list[SimConfig]) -> list[MetricsLog]:
    """Execute the runs of `configs`, which must be equal but for their
    policies (a policy may repeat); log i is the log of configs[i] run alone.

    The seed spawns one random stream per purpose (topology, hourly redraw,
    policy, channel), so a draw for one purpose moves no value of another.
    The topology and redraw streams never read the policy, so the cell does
    the work its runs share: it builds one grid, and once an hour redraws
    it, sums its demand and fixes the capacity and stress level. Each run
    then plays the hour (`_play_hour`) on its own fleet states,
    `RoundState`, policy stream and channel stream. Raises ValueError for
    no configs or configs that differ in more than the policy.
    """
    if not configs:
        raise ValueError("run_cell needs at least one config")
    config = configs[0]
    if any(replace(other, policy=config.policy) != config for other in configs[1:]):
        raise ValueError("the configs of a cell may differ in policy only")
    models = load_models(config.data_dir)
    streams = np.random.SeedSequence(config.seed).spawn(4)
    topology_rng, draws_rng = (np.random.default_rng(s) for s in streams[:2])
    grid = build_topology(
        models,
        n_homes=config.n_homes,
        n_feeders=config.n_feeders,
        ap=config.ap,
        rng=topology_rng,
        homes_per_transformer=config.homes_per_transformer,
        group_size=config.group_size,
        class_mix=config.class_mix,
    )
    delivery_p = (
        LinkModel().delivery_probability(config.protocol_distance_m)
        if config.protocol_emulation else 1.0
    )
    supply = config.supply
    gap_pct = (
        round(100.0 * supply.gap_fraction, STRESS_DECIMALS)  # as stress_level rounds
        if supply.mode == "fractional_gap" else float("nan")
    )
    runs = []
    for i, run_config in enumerate(configs):
        policy_rng, channel_rng = (np.random.default_rng(s) for s in streams[2:])
        state = RoundState(
            grid if i == 0 else grid.sibling(), config.dp, config.reduction_factor,
            policy_rng, CommandChannel(delivery_p, channel_rng),
        )
        log = MetricsLog(
            policy=run_config.policy,
            seed=config.seed,
            gap_percent=gap_pct,
            ap=config.ap,
            config_hash=run_config.config_hash(),
        )
        runs.append((run_config, state, log))

    for hour in range(config.horizon_hours):
        _refresh_draws(grid, draws_rng)
        demand_w = served_demand(grid)  # everyone is at L5
        capacity_w = supply.capacity_for(demand_w)
        sl = stress_level(demand_w, capacity_w) if demand_w > 0 else 0.0
        for run_config, state, log in runs:
            _play_hour(run_config, state, log, hour, demand_w, capacity_w, sl)
    return [log for _, _, log in runs]
