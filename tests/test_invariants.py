"""Invariants of the policy rounds that must hold for any small config."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from stressgrid import consumption, engine, policies, protocol
from stressgrid.engine import SimConfig
from stressgrid.homes import Fleet, set_hour_draws
from stressgrid.levels import PowerLevel, UtilityParams, utility
from stressgrid.policies import POLICIES, pass_rounds
from stressgrid.topology import SupplyModel, served_demand


@st.composite
def small_configs(draw) -> SimConfig:
    return SimConfig(
        horizon_hours=draw(st.integers(1, 3)),
        n_homes=draw(st.integers(1, 300)),
        n_feeders=draw(st.integers(1, 40)),
        group_size=draw(st.integers(1, 15)),
        homes_per_transformer=draw(st.integers(1, 8)),
        ap=draw(st.floats(0.0, 1.0)),
        supply=SupplyModel(gap_fraction=draw(st.floats(0.0, 0.9))),
        policy=draw(st.sampled_from(sorted(POLICIES))),
        protocol_emulation=draw(st.booleans()),
        # half of the draws from 40-60 m, where commands get lost
        protocol_distance_m=draw(st.one_of(st.floats(0.0, 60.0), st.floats(40.0, 60.0))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(config=small_configs())
def test_rounds_start_from_served_demand_and_never_raise_a_level(config):
    """Every round starts and ends with `state.served_w` exactly equal to a
    fresh sum of served demand, which the steps keep up to date in place of
    summing it again, and no round raises any home's level."""
    policy = POLICIES[config.policy]
    rounds = 0

    def checked_round(state, k):
        nonlocal rounds
        rounds += 1
        assert state.served_w == served_demand(state.fleet), k
        before = state.fleet.level.copy()
        policy.round(state, k)
        assert (state.fleet.level <= before).all(), k
        assert state.served_w == served_demand(state.fleet), k

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(POLICIES, config.policy, policy._replace(round=checked_round))
        log = engine.run(config)
    assert rounds == sum(rec.convergence_seconds for rec in log.hours)


@settings(max_examples=100, deadline=None)
@given(config=small_configs().map(lambda c: replace(c, horizon_hours=3)))
def test_hour_records_keep_criterion_6_invariants(config):
    """Acceptance criterion 6's per-hour state invariants, for any input;
    three hours, so that the last hour's exemptions are in play."""
    log = engine.run(config)
    for rec in log.hours:
        assert sum(rec.level_counts) == config.n_homes
        assert all(s <= c for s, c in zip(rec.smart_level_counts, rec.level_counts))
        assert rec.level_counts[1:4] == rec.smart_level_counts[1:4]  # only smart homes sit at L2-L4
        if rec.converged:
            assert rec.served_w <= rec.capacity_w
        if config.policy != "baseline" and not rec.emergency:
            assert rec.smart_level_counts[0] == 0, "smart home blacked out without emergency"
            assert rec.repeat_shed_homes == 0, "back-to-back shed without emergency"


@settings(max_examples=100, deadline=None)
@given(config=small_configs())
def test_emergency_starts_at_a_fixed_round(config):
    """An hour runs rounds exactly when demand exceeds capacity, and its
    emergency starts at a fixed round: never under baseline, after the
    first distributed pass, and after the first centralized round."""
    log = engine.run(config)
    n_groups = math.ceil(config.n_feeders / config.group_size)  # as build_topology groups feeders
    for rec in log.hours:
        assert (rec.convergence_seconds == 0) == (rec.demand_w <= rec.capacity_w)
        if config.policy == "baseline":
            assert not rec.emergency
        elif config.policy == "distributed":
            assert rec.emergency == (rec.convergence_seconds > pass_rounds(n_groups))
        else:
            assert rec.emergency == (rec.convergence_seconds >= 2)


# lossy links, emergency hours and feeder groups without homes under each
# policy: 12 transformers on 40 feeders in groups of 4 fill groups 0-2 and
# leave groups 3-9 empty, so a walk that stops in groups 0-2 starts the
# next one elsewhere if it miscounts the empty groups it passed
SHUT_OFF_EXAMPLES = [
    SimConfig(
        horizon_hours=3, n_homes=60, n_feeders=40, group_size=4, homes_per_transformer=5,
        ap=ap, supply=SupplyModel(gap_fraction=0.5), policy=policy, protocol_emulation=True,
        protocol_distance_m=55.0, seed=7,
    )
    for policy, ap in (("baseline", 0.5), ("distributed", 0.5), ("centralized", 0.9))
]


@settings(max_examples=100, deadline=None)
@given(config=small_configs(), lossy_m=st.one_of(st.none(), st.floats(40.0, 60.0)))
@example(config=SHUT_OFF_EXAMPLES[0], lossy_m=None)
@example(config=SHUT_OFF_EXAMPLES[1], lossy_m=None)
@example(config=SHUT_OFF_EXAMPLES[2], lossy_m=None)
def test_batched_commands_equal_per_command_reference(config, lossy_m):
    """The policies send commands in runs, walk the shut-off groups as one
    batch and the centralized pass in chunks of groups; a run with the
    one-command-at-a-time `_send`, the group-at-a-time shut-off walks and
    the home-by-home centralized pass of `helpers` gives the same hour
    records, the same commands sent and lost, and so the same channel
    stream. Half the examples move the link to `lossy_m` metres, where
    commands get lost. Every command of the reference run must pass through
    a reference, so that a step that reached the batched code by another
    name would fail here rather than compare the engine with itself."""
    if lossy_m is not None:
        config = replace(config, protocol_emulation=True, protocol_distance_m=lossy_m)
    log = engine.run(config)
    carried = []  # one entry per call of a reference: the commands it sent

    def counted(reference):
        def call(state, *args):
            before = state.channel.sent
            result = reference(state, *args)
            carried.append(state.channel.sent - before)
            return result

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policies, "_send", counted(helpers.send_reference))
        mp.setattr(policies, "baseline_step", counted(helpers.baseline_step_reference))
        mp.setattr(policies, "cut_nonsmart_groups", counted(helpers.cut_nonsmart_groups_reference))
        mp.setattr(policies, "alg2_step", counted(helpers.alg2_step_reference))
        reference = engine.run(config)
    assert sum(carried) == reference.commands_sent  # so no command went out uncounted
    assert helpers.hour_digest([log]) == helpers.hour_digest([reference])
    assert log.commands_sent == reference.commands_sent
    assert log.commands_lost == reference.commands_lost


@settings(max_examples=80, deadline=None)
@given(
    config=small_configs(),
    lossy_m=st.one_of(st.none(), st.floats(40.0, 60.0)),
    chunk_homes=st.integers(1, 400),
    block_rows=st.integers(1, 400),
    draw_block=st.integers(1, 2048),
    guide_buckets=st.integers(0, 16).map(lambda e: 2**e),
)
# a centralized walk that stops inside a chunk of several groups, then
# draws again an hour later: the chunk must give back the draws it skipped
@example(
    config=SimConfig(horizon_hours=2, n_homes=3, n_feeders=2, group_size=1, homes_per_transformer=1,
                     ap=1.0, supply=SupplyModel(gap_fraction=0.5), policy="centralized", seed=0),
    lossy_m=None, chunk_homes=1, block_rows=1, draw_block=1, guide_buckets=1,
)
@example(config=SHUT_OFF_EXAMPLES[2], lossy_m=None, chunk_homes=7, block_rows=3, draw_block=2, guide_buckets=2)
def test_tuning_constants_change_no_result(config, lossy_m, chunk_homes, block_rows, draw_block, guide_buckets):
    """`policies.CHUNK_HOMES` (the chunks of every feeder-group walk: the
    baseline and non-smart shut-off walks and the centralized pass),
    `engine.BLOCK_ROWS`, `protocol.DRAW_BLOCK` and
    `consumption.GUIDE_BUCKETS` set only how the work is cut up: a run
    with any of their values gives the hour records and command counts of
    a run at the defaults. Half the examples move the link to `lossy_m`
    metres, where commands get lost. The guide tables are built when the
    models load, so the patched run loads them afresh."""
    if lossy_m is not None:
        config = replace(config, protocol_emulation=True, protocol_distance_m=lossy_m)
    log = engine.run(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policies, "CHUNK_HOMES", chunk_homes)
        mp.setattr(engine, "BLOCK_ROWS", block_rows)
        mp.setattr(protocol, "DRAW_BLOCK", draw_block)
        mp.setattr(consumption, "GUIDE_BUCKETS", guide_buckets)
        mp.setattr(engine, "_MODEL_CACHE", {})
        tuned = engine.run(config)
    assert helpers.hour_digest([tuned]) == helpers.hour_digest([log])


def utility_optima(fleet: Fleet, capacity_w: float, params: UtilityParams) -> tuple[float, float]:
    """The best total utility of `fleet` under `capacity_w` by enumeration:
    over every assignment of levels (L1-L5 to a smart home, L1 or L5 to a
    non-smart one), and over the LP relaxation's vertices, where every home
    but one sits at one level and that one mixes two of its levels, as far
    as the capacity allows. Returns (integral optimum, LP optimum)."""
    watts = fleet.level_watts.astype(np.float64)
    choices = [range(1, 6) if smart else (1, 5) for smart in fleet.smart]
    gains = np.array([0.0] + [utility(lv, params) for lv in PowerLevel])
    assign = np.array(list(product(*choices)))
    rows = np.arange(len(choices))
    used = watts[rows, assign - 1].sum(axis=1)
    total = gains[assign].sum(axis=1)
    room = capacity_w - used
    integral = total[room >= 0].max(initial=-np.inf)
    lp = integral
    for i, levels in enumerate(choices):
        for b in levels:
            a = assign[:, i]
            mix = (a < b) & (room >= 0)
            extra = watts[i, b - 1] - watts[i, a - 1]
            share = np.where(extra <= room, 1.0, room / np.where(extra > 0, extra, 1.0))
            lp = max(lp, (total + share * (gains[b] - gains[a]))[mix].max(initial=-np.inf))
    return float(integral), float(lp)


@settings(max_examples=60, deadline=None)
@given(
    smart=st.lists(st.booleans(), min_size=1, max_size=6),
    classes=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    off_share=st.sampled_from([0.0, 0.5]),
    fraction=st.floats(0.0, 1.1),
    params=st.sampled_from([UtilityParams(), UtilityParams(1.0, 1.0, 0.0), UtilityParams(2.0, 0.3, 0.3)]),
)
def test_utility_ceiling_is_the_lp_optimum(class_models, smart, classes, seed, off_share, fraction, params):
    """`helpers.utility_ceiling` on a fleet of at most 6 homes equals the LP
    optimum found by enumerating the relaxation's vertices, and so bounds
    the best assignment of whole levels. Some appliances draw nothing, so
    that a home may gain utility at no cost in watts; the capacity is
    `fraction` of the fleet's draw at L5."""
    n = len(smart)
    fleet = Fleet(tuple(class_models[label] for label in "ABC"), np.array(classes[:n]), np.array(smart), [np.arange(n)])
    setup = np.random.default_rng(seed)
    for model, homes in zip(fleet.models, fleet.class_homes):
        if homes.size:
            draws = setup.uniform(0.0, 1.2, (homes.size, model.n_appliances)) * model.rated_draws
            draws[setup.random(draws.shape) < off_share] = 0.0
            set_hour_draws(fleet, homes, draws)
    capacity_w = fraction * float(fleet.level_watts[:, -1].sum(dtype=np.float64))
    integral, lp = utility_optima(fleet, capacity_w, params)
    ceiling = helpers.utility_ceiling(fleet, capacity_w, params)
    assert ceiling * n == pytest.approx(lp, rel=1e-12, abs=1e-12)
    assert integral <= lp


@settings(max_examples=60, deadline=None)
@given(config=small_configs(), lossy_m=st.one_of(st.none(), st.floats(40.0, 60.0)))
def test_converged_hours_stay_under_the_utility_ceiling(config, lossy_m):
    """No policy beats the LP bound: every converged hour's `mean_utility`,
    under each of the three policies run as one cell, is at most
    `helpers.utility_ceiling` of that hour's draws and capacity (up to
    rounding, 1e-9). Half the examples move the link to `lossy_m` metres."""
    if lossy_m is not None:
        config = replace(config, protocol_emulation=True, protocol_distance_m=lossy_m)
    ceilings = {}
    play_hour = engine._play_hour

    def play(run_config, state, log, hour, demand_w, capacity_w, sl):
        ceilings[run_config.policy, hour] = helpers.utility_ceiling(state.fleet, capacity_w, run_config.utility)
        play_hour(run_config, state, log, hour, demand_w, capacity_w, sl)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_play_hour", play)
        logs = engine.run_cell([replace(config, policy=policy) for policy in sorted(POLICIES)])
    for log in logs:
        for rec in log.hours:
            if rec.converged:
                assert rec.mean_utility <= ceilings[log.policy, rec.hour] + 1e-9, (log.policy, rec.hour)


supplies = st.one_of(
    st.floats(0.0, 0.9).map(lambda gap: SupplyModel(gap_fraction=gap)),
    st.floats(0.0, 1e5).map(lambda watts: SupplyModel(mode="fixed_capacity", capacity_w=watts)),
)


@settings(max_examples=100, deadline=None)
@given(
    config=small_configs(),
    lossy_m=st.one_of(st.none(), st.floats(40.0, 100.0)),
    cell=st.lists(st.tuples(st.sampled_from(sorted(POLICIES)), supplies), min_size=1, max_size=6),
)
def test_grouping_of_policies_and_gaps_changes_no_run(config, lossy_m, cell):
    """The runs of one (AP, run), in any mix and order of policies and
    supplies, share one grid and one hourly redraw; each still logs exactly
    what it logs alone, and every one of them sees the same demand each
    hour. Half the examples move the link to `lossy_m` metres."""
    if lossy_m is not None:
        config = replace(config, protocol_emulation=True, protocol_distance_m=lossy_m)
    configs = [replace(config, policy=policy, supply=supply) for policy, supply in cell]
    logs = engine.run_cell(configs)
    assert [repr(log) for log in logs] == [repr(engine.run(c)) for c in configs]
    assert len({tuple(rec.demand_w for rec in log.hours) for log in logs}) == 1
