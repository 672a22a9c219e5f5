"""Invariants of the policy rounds that must hold for any small config."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from stressgrid import engine, policies
from stressgrid.engine import SimConfig
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
