"""Policy tests: baseline rotation, distributed backoff, centralized pass.

Derived expectations are hand-traced from the branch arithmetic or brute
forced over the small construction, as noted inline.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import ScalarHome, alg1_home_decision, decide, demand, eligible_lower_levels
from stressgrid import policies
from stressgrid.homes import Fleet, set_hour_draws
from stressgrid.levels import PowerLevel
from stressgrid.policies import (
    LATE_ROUNDS_PER_PASS,
    MIN_STRESS,
    POLICIES,
    DistributionProfile,
    RoundState,
    _send,
    alg1_round,
    alg2_step,
    baseline_step,
    cut_nonsmart_groups,
    eligible_lower_runs,
    reset_hourly,
)
from stressgrid.protocol import CommandChannel, LinkModel
from stressgrid.topology import build_topology, served_demand

DP_THIRDS = DistributionProfile(1 / 3, 1 / 3, 1 / 3)


def fresh_home(model, smart=True, n=1):
    """A fleet of `n` homes at L5 drawing 80% of rated; home 0 is the one
    the decision tests drive."""
    fleet = helpers.make_fleet(model, n, smart)
    helpers.fill_draws(fleet, 0.8)
    return fleet


def equal_draw_topology(class_models, n_homes, n_feeders, ap, group_size, seed=0):
    """All class-A homes with identical draws, so group demands are equal."""
    topo = build_topology(
        class_models, n_homes=n_homes, n_feeders=n_feeders, ap=ap,
        rng=np.random.default_rng(seed), homes_per_transformer=5, group_size=group_size,
        class_mix=(1.0, 0.0, 0.0),
    )
    helpers.fill_draws(topo, 0.5)
    return topo


def round_state(topo, **fields) -> RoundState:
    """A RoundState on `topo` with `served_w` measured as the engine measures
    it before an hour's first round; `fields` override the defaults."""
    defaults = dict(
        dp=DP_THIRDS, reduction_factor=0.5, rng=np.random.default_rng(0),
        channel=CommandChannel(1.0, None), served_w=served_demand(topo),
    )
    return RoundState(topo, **(defaults | fields))


def blacked_out(topo) -> set[int]:
    """The groups that have homes, all of them off."""
    level = topo.level
    return {g for g, members in enumerate(topo.groups)
            if members.size and (level[members] == PowerLevel.L1).all()}


class TestDistributionProfile:
    def test_valid(self):
        dp = DistributionProfile(0.4, 0.3, 0.3)
        assert dp.alpha_l4 == 0.4

    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="must sum to 1"):
            DistributionProfile(0.5, 0.3, 0.3)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="lie in"):
            DistributionProfile(1.5, -0.5, 0.0)


class TestHomeDecision:
    def test_low_stress_clamped_to_floor(self, class_models):
        fleet = fresh_home(class_models["A"])
        got = decide(fleet, 0.0, DP_THIRDS, False, 50)
        assert got is None
        assert fleet.sl_init[0] == MIN_STRESS

    def test_backoff_below_floor_possible(self, class_models):
        # with the clamp in force, r in 1..4 still lands under sl=5
        fleet = fresh_home(class_models["A"])
        got = decide(fleet, 0.0, DP_THIRDS, False, 4)
        assert got is not None
        assert fleet.dlc_done[0]

    def test_l4_window(self, class_models):
        # dp=(1,0,0): threshold (1-1)*20 = 0, so r=10 > 0 lands in L4
        fleet = fresh_home(class_models["A"])
        got = decide(fleet, 20.0, DistributionProfile(1.0, 0.0, 0.0), False, 10)
        assert got is PowerLevel.L4

    def test_l3_window(self, class_models):
        # dp=(0,1,0): 0*20 < 10 < 1*20
        fleet = fresh_home(class_models["A"])
        got = decide(fleet, 20.0, DistributionProfile(0.0, 1.0, 0.0), False, 10)
        assert got is PowerLevel.L3

    def test_l2_else_branch(self, class_models):
        # dp=(0,0,1): L4 window needs r > 20, L3 window is empty
        fleet = fresh_home(class_models["A"])
        got = decide(fleet, 20.0, DistributionProfile(0.0, 0.0, 1.0), False, 10)
        assert got is PowerLevel.L2

    def test_no_backoff_at_or_above_sl(self, class_models):
        fleet = fresh_home(class_models["A"])
        assert decide(fleet, 20.0, DP_THIRDS, False, 20) is None
        assert not fleet.dlc_done[0]

    def test_shed_last_hour_exempt(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.ls_lh[0] = True
        for r in (1, 50, 99):
            assert decide(fleet, 90.0, DP_THIRDS, False, r) is None
        assert np.isnan(fleet.sl_init[0])

    def test_emergency_voids_exemption(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.ls_lh[0] = True
        got = decide(fleet, 90.0, DP_THIRDS, True, 10)
        assert got is not None

    def test_done_home_steps_down_one(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 50.0
        fleet.level[0] = PowerLevel.L3
        assert decide(fleet, 50.0, DP_THIRDS, False, 10) is PowerLevel.L2

    def test_done_home_holds_on_high_r(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 50.0
        fleet.level[0] = PowerLevel.L3
        assert decide(fleet, 50.0, DP_THIRDS, False, 60) is None

    def test_l2_floor_without_emergency(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 90.0
        fleet.level[0] = PowerLevel.L2
        assert decide(fleet, 90.0, DP_THIRDS, False, 5) is None

    def test_emergency_unlocks_l1(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 90.0
        fleet.level[0] = PowerLevel.L2
        assert decide(fleet, 90.0, DP_THIRDS, True, 99) is PowerLevel.L1

    def test_emergency_forces_step_regardless_of_r(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 10.0
        fleet.level[0] = PowerLevel.L4
        assert decide(fleet, 10.0, DP_THIRDS, True, 95) is PowerLevel.L3

    def test_done_home_at_l1_stays(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 90.0
        fleet.level[0] = PowerLevel.L1
        assert decide(fleet, 90.0, DP_THIRDS, True, 1) is None

    def test_clamp_applies_only_once_per_hour(self, class_models):
        fleet = fresh_home(class_models["A"])
        decide(fleet, 2.0, DP_THIRDS, False, 50)
        assert fleet.sl_init[0] == MIN_STRESS
        # second evaluation at sl=4: were the clamp re-applied, r=4 would
        # land under 5 and trigger a backoff
        got = decide(fleet, 4.0, DP_THIRDS, False, 4)
        assert got is None
        assert fleet.sl_init[0] == 4.0

    def test_non_smart_rejected(self, class_models):
        fleet = fresh_home(class_models["A"], smart=False)
        with pytest.raises(ValueError, match="smart"):
            decide(fleet, 50.0, DP_THIRDS, False, 10)

    def test_r_out_of_range_rejected(self, class_models):
        fleet = fresh_home(class_models["A"])
        for r in (0, 101):
            with pytest.raises(ValueError, match="r must"):
                decide(fleet, 50.0, DP_THIRDS, False, r)


def test_branch_partition_on_coarse_sl_grid(class_models):
    # full sl sweep lives in the acceptance suite; step 5 here for speed
    checked = helpers.check_branch_partition(class_models["A"], range(5, 101, 5))
    assert checked == 66 * 20 * 100


class TestBaselineStep:
    def test_no_gap_no_blackout(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        baseline_step(round_state(topo, capacity_w=1e12), 1)
        assert blacked_out(topo) == set()
        assert (topo.level == PowerLevel.L5).all()

    def test_zero_capacity_blacks_all(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        baseline_step(round_state(topo, capacity_w=0.0), 1)
        assert blacked_out(topo) == {0, 1, 2, 3, 4}
        assert (topo.level == PowerLevel.L1).all()

    def test_exactly_one_group_for_twenty_percent_gap(self, class_models):
        # Brute-force oracle: with five equal-demand groups, m blackouts
        # serve (1 - m/5) * D, so m = 1 is the least m with served <= 0.8 D.
        need = [m for m in range(6) if (1 - m / 5) <= 0.8]
        assert min(need) == 1

        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        D, _ = demand(topo)
        baseline_step(round_state(topo, capacity_w=0.8 * D), 1)
        assert blacked_out(topo) == {0}
        assert served_demand(topo) == pytest.approx(0.8 * D)

    def test_rotation_advances_one_group_per_hour(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        D, _ = demand(topo)
        state = round_state(topo, capacity_w=0.8 * D)
        baseline_step(state, 1)
        assert blacked_out(topo) == {0}
        assert state.next_group == 1
        reset_hourly(topo)
        state.served_w = served_demand(topo)
        baseline_step(state, 1)
        assert blacked_out(topo) == {1}

    def test_within_hour_restep_does_not_advance(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        D, _ = demand(topo)
        state = round_state(topo, capacity_w=0.8 * D)
        baseline_step(state, 1)
        assert state.next_group == 1
        assert state.served_w == served_demand(topo)
        baseline_step(state, 2)
        assert state.next_group == 1


@settings(max_examples=50, deadline=None)
@given(n_groups=st.integers(1, 12), group_size=st.integers(1, 6), gap=st.floats(0.0, 1.0))
def test_baseline_rotation_blacks_out_every_group_alike(class_models, n_groups, group_size, gap):
    """Over `n_groups` hours at a constant gap, with equal groups of homes
    that draw alike on a lossless link, each group is blacked out as often
    as every other, give or take one: the rotation spreads the burden."""
    n = n_groups * group_size
    fleet = Fleet((class_models["A"],), np.zeros(n, dtype=np.intp), np.zeros(n, dtype=bool),
                  np.split(np.arange(n), n_groups))
    helpers.fill_draws(fleet, 0.5)
    state = round_state(fleet, capacity_w=(1.0 - gap) * served_demand(fleet))
    policy = POLICIES["baseline"]
    blackouts = np.zeros(n_groups, dtype=int)
    for _ in range(n_groups):
        reset_hourly(fleet)
        state.served_w = served_demand(fleet)
        k = 0
        while state.served_w > state.capacity_w and k < policy.max_rounds(n_groups):
            k += 1
            policy.round(state, k)
        blackouts += [(fleet.level[members] == PowerLevel.L1).all() for members in fleet.groups]
    assert blackouts.max() - blackouts.min() <= 1, blackouts


class TestEmptyGroups:
    """20 homes on 4 transformers fill feeders 0-3 only, so with 12 feeders
    in groups of 4, groups 1 and 2 hold no home; they still take turns."""

    def topology(self, class_models):
        topo = equal_draw_topology(class_models, 20, 12, 0.0, 4)
        assert [len(m) for m in topo.groups] == [20, 0, 0]
        pass_rounds = 2 + 3 + LATE_ROUNDS_PER_PASS
        budgets = {name: p.max_rounds(len(topo.groups)) for name, p in POLICIES.items()}
        assert budgets == {"baseline": pass_rounds, "distributed": 2 * pass_rounds, "centralized": 3}
        return topo

    def test_baseline_walks_through_empty_groups(self, class_models):
        topo = self.topology(class_models)
        state = round_state(topo, capacity_w=0.0, next_group=1)
        baseline_step(state, 1)
        assert blacked_out(topo) == {0}
        assert state.next_group == 2
        reset_hourly(topo)
        state.served_w = served_demand(topo)
        baseline_step(state, 1)
        assert blacked_out(topo) == {0}
        assert state.next_group == 0

    def test_nonsmart_cut_walks_through_empty_groups(self, class_models):
        topo = self.topology(class_models)
        D, _ = demand(topo)
        state = round_state(topo, capacity_w=D)
        cut_nonsmart_groups(state)
        assert state.next_group == 0  # no gap, no group visited
        state.capacity_w = 0.5 * D
        cut_nonsmart_groups(state)
        assert blacked_out(topo) == {0}
        assert state.next_group == 1
        reset_hourly(topo)
        topo.ls_lh[:] = False
        state.served_w = served_demand(topo)
        cut_nonsmart_groups(state)
        assert blacked_out(topo) == {0}
        assert state.next_group == 1  # groups 1, 2 and 0 visited


class TestAlg1Round:
    def test_converged_round_changes_nothing(self, class_models):
        topo = equal_draw_topology(class_models, 40, 4, 1.0, 2)
        D, _ = demand(topo)
        before = topo.level.copy()
        channel = CommandChannel(1.0, None)
        alg1_round(round_state(topo, sl=0.0, capacity_w=D, channel=channel), 1)
        # sl=0 clamps to 5; only r in 1..4 backs off, so a handful may move
        moved = np.count_nonzero(topo.level != before)
        assert moved <= len(topo) * 0.15
        assert channel.sent == moved  # commands go only to homes that move

    def test_round_one_mass_backoff_to_l2(self, class_models):
        # dp=(0,0,1), sl=100: every home drawing r < 100 lands in L2
        topo = equal_draw_topology(class_models, 200, 10, 1.0, 10)
        D, _ = demand(topo)
        state = round_state(
            topo, dp=DistributionProfile(0.0, 0.0, 1.0), sl=100.0, rng=np.random.default_rng(1)
        )
        alg1_round(state, 1)
        fleet = topo
        assert set(fleet.level.tolist()) <= {PowerLevel.L2, PowerLevel.L5}
        stragglers = fleet.level == PowerLevel.L5
        # r == 100 has probability 1/100 per home
        assert stragglers.sum() <= 12
        straggler_draw = fleet.level_watts[stragglers, PowerLevel.L5 - 1].sum()
        _, served = demand(topo)
        assert served <= 0.25 * D + straggler_draw

    def test_no_smart_homes_round_one_is_inert(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        alg1_round(round_state(topo, sl=80.0, rng=np.random.default_rng(2)), 1)
        assert (topo.level == PowerLevel.L5).all()

    def test_round_two_matches_baseline_cutoffs(self, class_models):
        # with no smart homes the second round is the baseline group cut
        topo_a = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        topo_b = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        D, _ = demand(topo_a)
        capacity = 0.7 * D
        alg1_round(round_state(topo_a, sl=30.0, capacity_w=capacity, rng=np.random.default_rng(3)), 2)
        baseline_step(round_state(topo_b, capacity_w=capacity), 1)
        assert topo_a.level.tolist() == topo_b.level.tolist()

    def test_late_rounds_step_down_done_homes(self, class_models):
        # one group, so a pass is 2 + 1 + 5 rounds; the contract is
        # convergence within two passes, the second under emergency
        topo = equal_draw_topology(class_models, 100, 5, 1.0, 5)
        D, _ = demand(topo)
        capacity = 0.5 * D
        state = round_state(topo, sl=50.0, capacity_w=capacity, rng=np.random.default_rng(4))
        pass_rounds = 2 + 1 + 5
        assert POLICIES["distributed"].max_rounds(len(topo.groups)) == 2 * pass_rounds
        after_round_2 = None
        converged_at = None
        for k in range(1, 2 * pass_rounds + 1):
            alg1_round(state, k)
            assert state.served_w == served_demand(topo)
            assert state.emergency == (k > pass_rounds)
            if k == 2:
                after_round_2 = state.served_w
            if k > 2 and state.served_w <= capacity:
                converged_at = k
                break
        assert converged_at is not None
        assert served_demand(topo) < after_round_2  # late rounds made progress
        if converged_at <= pass_rounds:
            assert (topo.level[topo.smart] >= PowerLevel.L2).all()


STRESS = st.floats(0.0, 100.0)
FRESH_HOME = st.tuples(
    st.sampled_from(list(PowerLevel)), st.booleans(), st.just(False), st.none() | STRESS
)
BACKED_OFF_HOME = st.tuples(st.sampled_from(list(PowerLevel)), st.booleans(), st.just(True), STRESS)


# Fresh homes at L5 alternating unset and set sl_init (home i stores i + 1),
# every fourth one exempt as shed last hour. At sl = 4, below MIN_STRESS,
# seed 9 draws r that back off homes of both kinds, at MIN_STRESS and at sl.
MIXED_SL_INIT = [(PowerLevel.L5, i % 4 == 3, False, None if i % 2 else float(i + 1)) for i in range(40)]
# Set sl_init 0 on every fresh home and sl = 0: nobody backs off, while
# backed-off homes may still step down.
NO_BACKOFF = [
    (PowerLevel.L5, False, False, 0.0) if i % 2 else (PowerLevel(i % 5 + 1), False, True, 50.0)
    for i in range(12)
]
ALG1_EXAMPLE = dict(ap=1.0, dp=(0.2, 0.3, 0.5), round_index=1, reduction_factor=0.5, seed=9)


@settings(max_examples=200, deadline=None)
@given(
    homes=st.lists(FRESH_HOME | BACKED_OFF_HOME, min_size=1, max_size=40),
    ap=st.sampled_from([0.5, 1.0]),
    sl=STRESS,
    dp=st.sampled_from(helpers.alpha_grid()),
    emergency=st.booleans(),
    round_index=st.sampled_from([1, 3, 9]),
    reduction_factor=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(homes=MIXED_SL_INIT, sl=4.0, emergency=False, **ALG1_EXAMPLE)
@example(homes=MIXED_SL_INIT, sl=4.0, emergency=True, **ALG1_EXAMPLE)
@example(homes=MIXED_SL_INIT, sl=8.0, emergency=False, **{**ALG1_EXAMPLE, "round_index": 3})
@example(homes=MIXED_SL_INIT, sl=20.0, emergency=False, **ALG1_EXAMPLE)
@example(homes=NO_BACKOFF, sl=0.0, emergency=False, **ALG1_EXAMPLE)
@example(homes=NO_BACKOFF, sl=0.0, emergency=True, **ALG1_EXAMPLE)
def test_masked_round_matches_scalar_reference(
    class_models, homes, ap, sl, dp, emergency, round_index, reduction_factor, seed
):
    """alg1_round decides for every smart home at once; home by home it must
    agree with the scalar decision rule, state and commands alike. The
    examples take both ways of setting the stress each home uses (sl below
    MIN_STRESS, with unset and set sl_init, and sl at or above it) and a
    round where no home backs off."""
    topo = build_topology(
        class_models, n_homes=len(homes), n_feeders=2, ap=ap, rng=np.random.default_rng(0),
        homes_per_transformer=5, group_size=1, class_mix=(1 / 3, 1 / 3, 1 / 3),
    )
    fleet = topo
    for i, (level, ls_lh, dlc_done, sl_init) in enumerate(homes):
        fleet.level[i], fleet.ls_lh[i], fleet.dlc_done[i] = level, ls_lh, dlc_done
        fleet.sl_init[i] = np.nan if sl_init is None else sl_init
    dp = DistributionProfile(*dp)

    smart = np.flatnonzero(fleet.smart).tolist()
    ref = {
        i: ScalarHome(
            current_level=PowerLevel(int(fleet.level[i])), ls_lh=bool(fleet.ls_lh[i]),
            dlc_done=bool(fleet.dlc_done[i]),
            sl_init=None if np.isnan(fleet.sl_init[i]) else float(fleet.sl_init[i]),
        )
        for i in smart
    }
    rs = np.random.default_rng(seed).integers(1, 101, size=len(smart))
    commands = 0
    for i, r in zip(smart, rs.tolist()):
        home = ref[i]
        eff = reduction_factor * sl if round_index >= 3 and not home.dlc_done else sl
        new = alg1_home_decision(home, eff, dp, emergency, r)
        if new is not None:
            home.current_level = new
            commands += 1
    before = fleet.level.copy()

    channel = CommandChannel(1.0, None)
    # no draws are set, so served_w keeps its default; rounds 1, 3 and 9 of a
    # 9-round pass neither read it nor force the emergency
    state = RoundState(
        topo, dp, reduction_factor, np.random.default_rng(seed), channel,
        sl=sl, emergency=emergency,
    )
    alg1_round(state, round_index)
    for i, home in ref.items():
        assert fleet.level[i] == home.current_level, i
        assert fleet.dlc_done[i] == home.dlc_done, i
        want = np.nan if home.sl_init is None else home.sl_init
        assert fleet.sl_init[i] == want or np.isnan(fleet.sl_init[i]) and np.isnan(want), i
    assert (fleet.level[~fleet.smart] == before[~fleet.smart]).all()
    assert channel.sent == commands


class TestCutNonSmartGroups:
    def test_respects_last_hour_exemption(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        level, members = topo.level, topo.groups
        topo.ls_lh[members[0]] = True
        cut_nonsmart_groups(round_state(topo, capacity_w=0.0))
        assert (level[members[0]] == PowerLevel.L5).all()
        assert all((level[members[gi]] == PowerLevel.L1).all() for gi in (1, 2, 3, 4))

    def test_emergency_overrides_exemption(self, class_models):
        topo = equal_draw_topology(class_models, 50, 5, 0.0, 1)
        topo.ls_lh[:] = True
        cut_nonsmart_groups(round_state(topo, capacity_w=0.0, emergency=True))
        assert (topo.level == PowerLevel.L1).all()


class TestEligibleLowerLevels:
    def test_above_all_caps(self):
        assert eligible_lower_levels(0.80) == [PowerLevel.L4, PowerLevel.L3, PowerLevel.L2]

    def test_between_l2_and_l3_caps(self):
        assert eligible_lower_levels(0.30) == [PowerLevel.L2]

    def test_below_l2_cap(self):
        assert eligible_lower_levels(0.20) == []

    def test_emergency_adds_l1(self):
        assert PowerLevel.L1 in eligible_lower_levels(0.20, emergency=True)
        assert eligible_lower_levels(0.0, emergency=True) == []


# Consumption fractions at and beside every cap.
CAP_EDGES = [float(np.nextafter(c, t)) for c in (0.0, 0.25, 0.5, 0.75) for t in (0.0, 1.0)]


@settings(max_examples=300, deadline=None)
@given(
    homes=st.lists(
        st.tuples(
            st.sampled_from(list(PowerLevel)),
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, *CAP_EDGES])),
        ),
        min_size=1, max_size=30,
    ),
    emergency=st.booleans(),
)
def test_eligible_runs_match_scalar_reference(homes, emergency):
    level = np.array([lv for lv, _ in homes], dtype=np.int8)
    fraction = np.array([f for _, f in homes])
    top, count = eligible_lower_runs(level, fraction, emergency)
    for (lv, f), hi, k in zip(homes, top.tolist(), count.tolist()):
        want = [x for x in eligible_lower_levels(f, emergency) if x < lv]
        assert list(range(hi, hi - k, -1)) == want, (lv, f)


class TestAlg2Step:
    def one_home_topology(self, class_models):
        topo = build_topology(
            class_models, n_homes=1, n_feeders=1, ap=1.0,
            rng=np.random.default_rng(5), homes_per_transformer=5, group_size=10,
            class_mix=(1.0, 0.0, 0.0),
        )
        rated = class_models["A"].rated_draws
        set_hour_draws(topo, np.array([0]), rated[None].copy())  # ~87% of rating
        return topo, topo

    @staticmethod
    def step(topo, gap_w: float, seed: int, **fields) -> RoundState:
        """One alg2_step against a gap of gap_w watts over the served demand;
        returns the state it left."""
        state = round_state(topo, rng=np.random.default_rng(seed), **fields)
        state.capacity_w = state.served_w - gap_w
        alg2_step(state, 1)
        return state

    def test_nonpositive_gap_is_inert(self, class_models):
        topo, fleet = self.one_home_topology(class_models)
        state = self.step(topo, -1.0, 6)
        assert not state.emergency
        assert fleet.level[0] == PowerLevel.L5
        assert state.next_group == 0

    def test_non_smart_group_cut_first(self, class_models):
        topo = equal_draw_topology(class_models, 50, 10, 0.0, 5)  # 2 groups
        group0_demand = topo.level_watts[topo.groups[0], PowerLevel.L5 - 1].sum()
        state = self.step(topo, group0_demand / 2, 7)
        assert not state.emergency
        assert (topo.level[topo.groups[0]] == PowerLevel.L1).all()
        assert (topo.level[topo.groups[1]] == PowerLevel.L5).all()
        assert state.next_group == 1

    def test_uniform_choice_over_eligible_levels(self, class_models):
        # one smart home above 75% of rating: L4/L3/L2 equally likely
        topo, fleet = self.one_home_topology(class_models)
        counts = {PowerLevel.L4: 0, PowerLevel.L3: 0, PowerLevel.L2: 0}
        reps = 3000
        for k in range(reps):
            fleet.level[0] = PowerLevel.L5
            fleet.ls_lh[0] = False
            self.step(topo, 1.0, k)
            counts[PowerLevel(fleet.level[0])] += 1
        for level, n in counts.items():
            assert abs(n / reps - 1 / 3) < 0.034, (level, n)

    def test_descending_consumption_order(self, class_models):
        topo = build_topology(
            class_models, n_homes=3, n_feeders=1, ap=1.0,
            rng=np.random.default_rng(8), homes_per_transformer=5, group_size=10,
            class_mix=(1.0, 0.0, 0.0),
        )
        rated = class_models["A"].rated_draws
        # home 1 is the biggest consumer
        set_hour_draws(topo, np.arange(3), np.array([rated * 0.85, rated, rated * 0.80]))
        self.step(topo, 1.0, 9)
        level = topo.level
        assert level[1] < PowerLevel.L5
        assert level[0] == PowerLevel.L5
        assert level[2] == PowerLevel.L5

    def test_consumption_tie_breaks_to_lower_id(self, class_models):
        topo = build_topology(
            class_models, n_homes=2, n_feeders=1, ap=1.0,
            rng=np.random.default_rng(10), homes_per_transformer=5, group_size=10,
            class_mix=(1.0, 0.0, 0.0),
        )
        helpers.fill_draws(topo, 1.0)
        self.step(topo, 1.0, 11)
        assert topo.level[0] < PowerLevel.L5
        assert topo.level[1] == PowerLevel.L5

    def test_shed_last_hour_skipped_without_emergency(self, class_models):
        topo, fleet = self.one_home_topology(class_models)
        fleet.ls_lh[0] = True
        state = self.step(topo, 1.0, 12)
        assert state.emergency  # the gap stayed open
        assert fleet.level[0] == PowerLevel.L5

    def test_emergency_reaches_exempt_homes(self, class_models):
        topo, fleet = self.one_home_topology(class_models)
        fleet.ls_lh[0] = True
        state = self.step(topo, 1.0, 13, emergency=True)
        assert served_demand(topo) <= state.capacity_w  # the gap closed
        assert fleet.level[0] < PowerLevel.L5


@settings(max_examples=300, deadline=None)
@given(
    ks=st.lists(st.integers(1, 4), min_size=1, max_size=60),
    seed=st.integers(0, 2**64 - 1),
    odd_start=st.booleans(),
    m=st.integers(0, 60),
)
@example(ks=[1], seed=0, odd_start=False, m=0)
@example(ks=[1, 1, 1], seed=0, odd_start=True, m=2)
@example(ks=[3, 2, 4], seed=0, odd_start=True, m=1)
def test_array_bound_draw_equals_scalar_draws(ks, seed, odd_start, m):
    """The centralized pass draws the steps of a chunk of groups with one
    `rng.integers(0, counts)`, where the scalar reference makes one
    `rng.integers(0, k)` call per candidate. When the chunk's send ends
    early, the pass restores the generator's state from before that call
    and draws `rng.integers(0, counts[:m])`, the m draws the reference
    made. Each agrees with the scalar draws only while numpy gives the same
    values and leaves the generator in the same state, k = 1 (which draws
    nothing) and m = 0 included. A numpy that breaks this fails here."""
    batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    if odd_start:  # half of a 64-bit output left buffered
        batch.integers(0, 3)
        scalar.integers(0, 3)
    want, states = [], [scalar.bit_generator.state]
    for k in ks:
        want.append(int(scalar.integers(0, k)))
        states.append(scalar.bit_generator.state)
    counts, m = np.array(ks, dtype=np.intp), min(m, len(ks))
    saved = batch.bit_generator.state
    assert batch.integers(0, counts).tolist() == want
    assert batch.bit_generator.state == states[-1]
    batch.bit_generator.state = saved
    assert batch.integers(0, counts[:m]).tolist() == want[:m]
    assert batch.bit_generator.state == states[m]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 200), seed=st.integers(0, 2**64 - 1), odd_start=st.booleans())
def test_random_block_equals_scalar_draws(n, seed, odd_start):
    """One `rng.random(n)` gives the values of, and leaves the generator as,
    n scalar `rng.random()` calls. `CommandChannel` draws its delivery
    uniforms in blocks of at least `DRAW_BLOCK` and hands them out one per
    command; its decisions equal those of one scalar draw per command only
    while this holds. A numpy that breaks it fails here."""
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    if odd_start:  # half of a 64-bit output left buffered
        block.integers(0, 3)
        scalar.integers(0, 3)
    got = block.random(n)
    assert got.tolist() == [scalar.random() for _ in range(n)]
    assert block.bit_generator.state == scalar.bit_generator.state


LINKS = {
    "none": lambda rng: CommandChannel(1.0, rng),
    "perfect": lambda rng: CommandChannel(LinkModel().delivery_probability(10.0), rng),
    "lossy": lambda rng: CommandChannel(LinkModel().delivery_probability(50.0), rng),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_alg2_step_matches_scalar_reference(class_models, data):
    """alg2_step steps each group down in one batch, with or without a lossy
    link; it must agree with the scalar reference on levels, served watts,
    emergency flag, next group, commands sent and lost, and where it leaves
    both streams. The policy stream's end state counts its step draws; the
    channel draws its uniforms in blocks, so its stream's end state counts
    blocks, and `sent` pins the command count."""
    n_feeders = data.draw(st.integers(1, 30))
    topo = build_topology(
        class_models, n_homes=data.draw(st.integers(1, 300)), n_feeders=n_feeders,
        ap=data.draw(st.floats(0.0, 1.0)), rng=np.random.default_rng(0),
        homes_per_transformer=5, group_size=data.draw(st.integers(1, n_feeders)),
        class_mix=(1 / 3, 1 / 3, 1 / 3),
    )
    fleet = topo
    setup = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for c, model in enumerate(fleet.models):
        homes = np.flatnonzero(fleet.cls == c)
        if homes.size:
            draws = setup.uniform(0.0, 1.2, (homes.size, model.n_appliances)) * model.rated_draws
            set_hour_draws(fleet, homes, draws)
    fleet.level[:] = setup.integers(PowerLevel.L1, PowerLevel.L5 + 1, len(fleet))
    fleet.ls_lh[:] = setup.random(len(fleet)) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    served = served_demand(topo)
    gap = data.draw(st.floats(-0.1, 1.2)) * served
    emergency = data.draw(st.booleans())
    start = data.draw(st.integers(0, len(topo.groups) - 1))
    link = data.draw(st.sampled_from(sorted(LINKS)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    level = fleet.level.copy()

    outcomes = []
    for step in (helpers.alg2_step_reference, alg2_step):
        fleet.level[:] = level
        rng, channel_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        state = RoundState(
            topo, DP_THIRDS, 0.5, rng, LINKS[link](channel_rng), capacity_w=served - gap,
            served_w=served, emergency=emergency, next_group=start,
        )
        step(state, 1)
        outcomes.append((
            fleet.level.tolist(), state.served_w, state.emergency, state.next_group, state.channel.sent,
            state.channel.lost, rng.bit_generator.state, channel_rng.bit_generator.state,
        ))
    assert outcomes[1] == outcomes[0]
    assert state.served_w == served_demand(topo)


def reference_commands(state: RoundState, step=helpers.alg2_step_reference) -> tuple[list[int], list[float]]:
    """The commands of a scalar reference's walk on `state` (by default the
    centralized pass), with its capacity lowered so that nothing fits: each
    command's home and the served watts after it. Leaves the fleet's levels
    as they were."""
    level, channel = state.fleet.level.copy(), state.channel
    state.capacity_w = -1.0
    homes, served_before = [], []

    def apply(home, new):
        homes.append(home.id)
        served_before.append(state.served_w)
        return CommandChannel.apply(channel, home, new)

    channel.apply = apply
    step(state, 1)
    state.fleet.level[:] = level
    return homes, served_before[1:] + [state.served_w]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_alg2_step_chunks_match_scalar_reference(class_models, data):
    """alg2_step walks its groups in chunks of at most CHUNK_HOMES homes, one
    send and one draw call per chunk. With the bound cut so that a pass
    spans three to six chunks, it agrees with the scalar reference on
    levels, served watts, emergency flag, next group, commands sent and
    lost, and where it leaves both streams. The capacity makes the pass
    stop in the first, a middle or the last chunk, at a non-smart cut or a
    smart step-down, or nowhere, on any link: it sits at or just above the
    served watts after one such command of the reference's whole pass."""
    per_chunk, size = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 10))
    bound = per_chunk * size + data.draw(st.integers(0, size - 1))
    n_chunks = data.draw(st.integers(3, 6))
    n_groups = per_chunk * (n_chunks - 1) + data.draw(st.integers(1, per_chunk))
    n = n_groups * size
    setup = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    smart = setup.random(n) < data.draw(st.sampled_from([0.3, 0.6, 0.9]))
    groups = [np.sort(members) for members in np.split(setup.permutation(n), n_groups)]
    fleet = Fleet(tuple(class_models[label] for label in "ABC"), setup.integers(0, 3, n), smart, groups)
    for model, homes in zip(fleet.models, fleet.class_homes):
        if homes.size:
            set_hour_draws(fleet, homes, setup.uniform(0.0, 1.2, (homes.size, model.n_appliances)) * model.rated_draws)
    fleet.level[:] = setup.integers(PowerLevel.L1, PowerLevel.L5 + 1, n)
    fleet.ls_lh[:] = setup.random(n) < data.draw(st.sampled_from([0.0, 0.3]))
    served = served_demand(fleet)
    start = data.draw(st.integers(0, n_groups - 1))
    link = data.draw(st.sampled_from(sorted(LINKS)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    emergency = data.draw(st.booleans())

    def fresh_state():
        rng, channel_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        state = RoundState(
            fleet, DP_THIRDS, 0.5, rng, LINKS[link](channel_rng), served_w=served,
            emergency=emergency, next_group=start,
        )
        return state, channel_rng

    homes, after = reference_commands(fresh_state()[0])
    before = [served] + after[:-1]
    walk_chunk = {int(i): (g - start) % n_groups // per_chunk for g, members in enumerate(groups) for i in members}
    where = data.draw(st.sampled_from([0, n_chunks // 2, n_chunks - 1, None]))  # the chunk to stop in, if any
    kind = data.draw(st.booleans())  # stop at a smart step-down, or at a non-smart cut
    shedding = [j for j in range(len(homes)) if after[j] < before[j]]
    stops = [j for j in shedding if walk_chunk[homes[j]] == where and smart[homes[j]] == kind]
    capacity_w = -1.0
    if shedding and where is not None:
        j = data.draw(st.sampled_from(stops or shedding))
        capacity_w = after[j] + data.draw(st.sampled_from([0.0, 0.5])) * (before[j] - after[j])
    level = fleet.level.copy()

    outcomes = []
    for step in (helpers.alg2_step_reference, alg2_step):
        fleet.level[:] = level
        state, channel_rng = fresh_state()
        state.capacity_w = capacity_w
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policies, "CHUNK_HOMES", bound)
            step(state, 1)
        outcomes.append((
            fleet.level.tolist(), state.served_w, state.emergency, state.next_group, state.channel.sent,
            state.channel.lost, state.rng.bit_generator.state, channel_rng.bit_generator.state,
        ))
    assert outcomes[1] == outcomes[0]
    assert state.served_w == served_demand(fleet)


SHUT_OFF_WALKS = {  # the shut-off walk and its group-at-a-time reference, as steps of round k
    "baseline": (baseline_step, helpers.baseline_step_reference),
    "nonsmart": (lambda state, k: cut_nonsmart_groups(state), lambda state, k: helpers.cut_nonsmart_groups_reference(state)),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shut_off_walks_chunk_edges_match_scalar_reference(class_models, data):
    """The baseline rotation and the non-smart cut walk their groups in the
    chunks of `_walk_chunks`, one send per chunk. With CHUNK_HOMES cut to
    hold one to three non-empty groups of unequal sizes, empty groups among
    them, and one group larger than a chunk, each agrees with its
    group-at-a-time reference on levels, served watts, next group, commands
    sent and lost, and the channel's next 64 landings. The capacity makes
    the walk stop in the first, a middle or the last chunk, or nowhere, on
    any link: it sits at or just above the served watts after one command
    of the reference's whole walk."""
    walk, reference = SHUT_OFF_WALKS[data.draw(st.sampled_from(sorted(SHUT_OFF_WALKS)))]
    bound = data.draw(st.integers(3, 12))
    sizes = data.draw(st.lists(st.sampled_from([0, bound // 3, bound // 2, bound]), min_size=3, max_size=9))
    sizes.insert(data.draw(st.integers(0, len(sizes))), bound + data.draw(st.integers(1, 5)))
    n, n_groups = sum(sizes), len(sizes)
    setup = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    smart = setup.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.6]))
    groups = [np.sort(members) for members in np.split(setup.permutation(n), np.cumsum(sizes)[:-1])]
    fleet = Fleet(tuple(class_models[label] for label in "ABC"), setup.integers(0, 3, n), smart, groups)
    for model, homes in zip(fleet.models, fleet.class_homes):
        if homes.size:
            set_hour_draws(fleet, homes, setup.uniform(0.0, 1.2, (homes.size, model.n_appliances)) * model.rated_draws)
    fleet.level[:] = setup.integers(PowerLevel.L1, PowerLevel.L5 + 1, n)
    fleet.ls_lh[:] = setup.random(n) < data.draw(st.sampled_from([0.0, 0.3]))
    served = served_demand(fleet)
    start = data.draw(st.integers(0, n_groups - 1))
    link = data.draw(st.sampled_from(sorted(LINKS)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    emergency = data.draw(st.booleans())

    def fresh_state():
        channel_rng = np.random.default_rng(seed)
        return RoundState(
            fleet, DP_THIRDS, 0.5, np.random.default_rng(0), LINKS[link](channel_rng), served_w=served,
            emergency=emergency, next_group=start,
        )

    walk_chunk, chunk, held = {}, 0, 0  # each home's chunk of the walk, by the chunk rule
    for g in range(n_groups):
        members = groups[(start + g) % n_groups]
        if held and held + members.size > bound:
            chunk, held = chunk + 1, 0
        held += members.size
        walk_chunk.update(dict.fromkeys(members.tolist(), chunk))
    homes, after = reference_commands(fresh_state(), reference)
    before = [served] + after[:-1]
    where = data.draw(st.sampled_from([0, chunk // 2, chunk, None]))  # the chunk to stop in, if any
    shedding = [j for j in range(len(homes)) if after[j] < before[j]]
    stops = [j for j in shedding if walk_chunk[homes[j]] == where]
    capacity_w = -1.0
    if shedding and where is not None:
        j = data.draw(st.sampled_from(stops or shedding))
        capacity_w = after[j] + data.draw(st.sampled_from([0.0, 0.5])) * (before[j] - after[j])
    level = fleet.level.copy()

    outcomes = []
    for step in (reference, walk):
        fleet.level[:] = level
        state = fresh_state()
        state.capacity_w = capacity_w
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policies, "CHUNK_HOMES", bound)
            step(state, 1)
        landing = state.channel.landing(64)  # None on a link that always delivers
        outcomes.append((
            fleet.level.tolist(), state.served_w, state.next_group, state.channel.sent, state.channel.lost,
            None if landing is None else landing.tolist(),
        ))
    assert outcomes[1] == outcomes[0]
    assert state.served_w == served_demand(fleet)


@pytest.fixture(scope="module")
def city_fleet(class_models):
    """60k homes in 300 groups of 200, 90 % smart, drawing 80 % of rated."""
    fleet = build_topology(
        class_models, n_homes=60_000, n_feeders=3000, ap=0.9, rng=np.random.default_rng(5),
        homes_per_transformer=10, group_size=10, class_mix=(1 / 3, 1 / 3, 1 / 3),
    )
    helpers.fill_draws(fleet, 0.8)
    return fleet


@pytest.mark.parametrize("distance_m", [None, 50.0])
@pytest.mark.parametrize("walk", ["baseline", "nonsmart", "centralized"])
def test_group_walks_allocate_under_one_float_per_home(city_fleet, walk, distance_m):
    """A group walk's temporaries are bounded by its chunk, not the fleet:
    at a 20 % gap, the peak that `baseline_step`, `cut_nonsmart_groups` and
    `alg2_step` each allocate above what was held before the call
    (`tracemalloc`, to which NumPy reports its buffers) stays under one
    float64 per home, on a lossless link and on a 50 m one. A walk batched
    over every group builds fleet-sized arrays, and on the 50 m link also
    grows the channel's buffer to one Python float per home."""
    fleet = city_fleet
    fleet.level[:] = PowerLevel.L5
    served = served_demand(fleet)
    delivery_p = 1.0 if distance_m is None else LinkModel().delivery_probability(distance_m)
    state = round_state(
        fleet, capacity_w=0.8 * served, channel=CommandChannel(delivery_p, np.random.default_rng(1))
    )
    step = alg2_step if walk == "centralized" else SHUT_OFF_WALKS[walk][0]
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        step(state, 1)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert state.channel.sent > 0
    assert peak < 8 * len(fleet), peak


def seed_delivering(pattern, p: float) -> int:
    """The first seed on which a channel with delivery chance p lands
    command j exactly when pattern[j] is true."""
    return next(s for s in range(10_000) if ((np.random.default_rng(s).random(len(pattern)) < p) == pattern).all())


@pytest.mark.parametrize(
    "n_sent, capacity_homes, pattern",
    [
        (5, 3, [True, False, True]),  # lost where two landed would fit: on to the next that fits
        (0, 3, []),  # no homes: nothing sent, no uniform drawn
        (5, 5, [False]),  # fitting already: the first unit ends the send, landed or not
    ],
)
def test_send_until_fits_on_a_lossy_link(class_models, n_sent, capacity_homes, pattern):
    """`_send` with one unit per command cuts the first `n_sent` of five
    equal homes, each shedding w, from a served 5w against a capacity of
    `capacity_homes` * w, on a link that lands commands as `pattern` says.
    It sends what the one-command-at-a-time reference sends, returns the
    units it sent, and leaves the channel where the reference leaves it:
    its next 64 landings are those of the stream's values after the last
    command's."""
    p = 0.5
    seed = seed_delivering(pattern, p)
    outcomes = []
    for send in (helpers.send_reference, _send):
        fleet = fresh_home(class_models["A"], n=5)
        w = float(fleet.watts(0))
        state = round_state(
            fleet, capacity_w=capacity_homes * w, channel=CommandChannel(p, np.random.default_rng(seed))
        )
        units = send(state, np.arange(n_sent), PowerLevel.L1, np.arange(1, n_sent + 1))
        channel = state.channel
        outcomes.append((units, fleet.level.tolist(), state.served_w, channel.sent, channel.lost, channel.landing(64).tolist()))
    assert outcomes[1] == outcomes[0]
    units, levels, served_w, sent, lost, next_landing = outcomes[1]
    assert (units, sent, lost) == (len(pattern), len(pattern), pattern.count(False))
    assert served_w == 5 * w - (sent - lost) * w
    assert levels == [PowerLevel.L1 if landed else PowerLevel.L5 for landed in pattern] + [PowerLevel.L5] * (5 - sent)
    assert next_landing == (np.random.default_rng(seed).random(sent + 64)[sent:] < p).tolist()


@st.composite
def unit_ends(draw, n: int):
    """Ends of units over n commands: none given (one unit), one unit per
    command, or any cut points, so units may be empty or span many."""
    kind = draw(st.sampled_from(["none", "commands", "cuts"]))
    if kind == "none":
        return None
    if kind == "commands":
        return np.arange(1, n + 1)
    return np.array(sorted(draw(st.lists(st.integers(0, n), max_size=12))) + [n])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_send_matches_reference_on_any_units(class_models, data):
    """`_send` sends in one pass what the reference sends one
    command at a time, checking capacity after each unit, for any split of
    the commands into units, on a perfect link and on a 40-60 m lossy one.
    Both leave the same levels and served watts, return the same units
    sent, count the same commands sent and lost, and leave a lossy channel
    where its next 64 landings are those of the stream's values after the
    last command's."""
    n_homes, model = 40, class_models["C"]
    fleet = helpers.make_fleet(model, n_homes)
    setup = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    draws = setup.uniform(0.0, 1.2, (n_homes, model.n_appliances)) * model.rated_draws
    set_hour_draws(fleet, np.arange(n_homes), draws)
    fleet.level[:] = setup.integers(PowerLevel.L1, PowerLevel.L5 + 1, n_homes)
    homes = setup.permutation(n_homes)[: data.draw(st.integers(0, n_homes))]
    if data.draw(st.booleans()):
        levels = PowerLevel.L1
    else:  # never above a home's current level, as no policy raises one
        levels = setup.integers(PowerLevel.L1, fleet.level[homes].astype(int) + 1)
    ends = data.draw(unit_ends(homes.size))
    served = served_demand(fleet)
    shed_w = fleet.watts(homes) - fleet.level_watts[homes, np.broadcast_to(levels, homes.shape) - 1]
    capacity_w = data.draw(st.one_of(
        st.floats(-0.1, 1.2).map(lambda gap: (1.0 - gap) * served),
        st.integers(0, homes.size).map(lambda m: served - float(shed_w[:m].sum())),  # fits exactly
    ))
    distance_m = data.draw(st.one_of(st.none(), st.floats(40.0, 60.0)))
    delivery_p = 1.0 if distance_m is None else LinkModel().delivery_probability(distance_m)
    seed = data.draw(st.integers(0, 2**32 - 1))
    level = fleet.level.copy()

    outcomes = []
    for send in (helpers.send_reference, _send):
        fleet.level[:] = level
        channel = CommandChannel(delivery_p, np.random.default_rng(seed))
        state = round_state(fleet, capacity_w=capacity_w, channel=channel)
        units = send(state, homes, levels, ends)
        landing = channel.landing(64)  # None on a perfect link
        outcomes.append((
            units, fleet.level.tolist(), state.served_w, channel.sent, channel.lost,
            None if landing is None else landing.tolist(),
        ))
    assert outcomes[1] == outcomes[0]
    assert state.served_w == served_demand(fleet)
    if distance_m is not None:  # the stream is just past the last command's uniform
        window = np.random.default_rng(seed).random(channel.sent + 64)[channel.sent :] < delivery_p
        assert outcomes[1][-1] == window.tolist()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_send_one_level_as_enum_or_plain_int(class_models, data):
    """One level for all may be `PowerLevel.L1` or the plain int 1: `_send`
    keeps it a scalar either way, and both leave the same levels and served
    watts, return the same units sent, count the same commands sent and
    lost, and leave the same next 64 landings, on a perfect link and on a
    40-60 m lossy one."""
    n_homes, model = 40, class_models["B"]
    fleet = helpers.make_fleet(model, n_homes)
    setup = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    draws = setup.uniform(0.0, 1.2, (n_homes, model.n_appliances)) * model.rated_draws
    set_hour_draws(fleet, np.arange(n_homes), draws)
    fleet.level[:] = setup.integers(PowerLevel.L1, PowerLevel.L5 + 1, n_homes)
    homes = setup.permutation(n_homes)[: data.draw(st.integers(0, n_homes))]
    ends = data.draw(unit_ends(homes.size))
    served = served_demand(fleet)
    capacity_w = (1.0 - data.draw(st.floats(-0.1, 1.2))) * served
    distance_m = data.draw(st.one_of(st.none(), st.floats(40.0, 60.0)))
    delivery_p = 1.0 if distance_m is None else LinkModel().delivery_probability(distance_m)
    seed = data.draw(st.integers(0, 2**32 - 1))
    level = fleet.level.copy()

    outcomes = []
    for one_level in (PowerLevel.L1, 1):
        fleet.level[:] = level
        channel = CommandChannel(delivery_p, np.random.default_rng(seed))
        state = round_state(fleet, capacity_w=capacity_w, channel=channel)
        units = _send(state, homes, one_level, ends)
        landing = channel.landing(64)  # None on a perfect link
        outcomes.append((
            units, fleet.level.tolist(), state.served_w, channel.sent, channel.lost,
            None if landing is None else landing.tolist(),
        ))
    assert outcomes[1] == outcomes[0]
    assert state.served_w == served_demand(fleet)


class TestResetHourly:
    def test_restores_and_marks(self, class_models):
        fleet = fresh_home(class_models["A"], n=2)  # home 0 shed, home 1 untouched
        fleet.level[0] = PowerLevel.L3
        fleet.dlc_done[0] = True
        fleet.sl_init[0] = 44.0
        reset_hourly(fleet)
        assert (fleet.level == PowerLevel.L5).all()
        assert fleet.ls_lh.tolist() == [True, False]
        assert not fleet.dlc_done.any()
        assert np.isnan(fleet.sl_init).all()

    def test_exemption_expires_after_one_hour(self, class_models):
        fleet = fresh_home(class_models["A"])
        fleet.level[0] = PowerLevel.L2
        reset_hourly(fleet)
        assert fleet.ls_lh[0]
        reset_hourly(fleet)  # ended the second hour unshed
        assert not fleet.ls_lh[0]
