"""Home model tests: disconnectivity matrices and per-state consumption."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import demand, make_fleet, set_hour_draws_reference
from stressgrid.homes import (
    HOME_CLASSES,
    QUANTUM_W,
    ClassModel,
    Home,
    HomeClass,
    build_class_model,
    build_dm,
    set_hour_draws,
)
from stressgrid.levels import CAP_FRACTION, PowerLevel, UtilityParams, utility
from stressgrid.protocol import decode, encode
from stressgrid.topology import build_topology, served_demand


class TestBuildDm:
    def test_five_equal_appliances_at_half_cap(self):
        # Oracle: exhaustive subset check. With five 100 W appliances and a
        # 250 W cap, any kept set of two fits (200 <= 250) and any kept set
        # of three exceeds it, so the greedy must disconnect exactly three.
        ratings = [100.0] * 5
        cap = 0.5 * 500.0
        fits = {k: [] for k in range(6)}
        for k in range(6):
            for kept in combinations(range(5), k):
                if sum(ratings[i] for i in kept) <= cap:
                    fits[k].append(kept)
        assert fits[2] and not fits[3]

        cls = HomeClass("A", 500.0, 5)
        dm = build_dm(cls, ratings)
        cut = set(np.flatnonzero(~dm[:, PowerLevel.L3 - 1]).tolist())
        assert len(cut) == 3
        # ties break toward keeping the lower index
        assert cut == {2, 3, 4}

    def test_single_oversized_appliance(self):
        cls = HomeClass("A", 500.0, 1)
        dm = build_dm(cls, [500.0])
        assert np.flatnonzero(~dm[:, PowerLevel.L2 - 1]).tolist() == [0]
        mask = dm[:, PowerLevel.L2 - 1]
        assert not mask.any()

    def test_l5_and_l1_masks(self):
        cls = HomeClass("B", 750.0, 3)
        dm = build_dm(cls, [100.0, 200.0, 300.0])
        assert dm[:, PowerLevel.L5 - 1].all()
        assert not dm[:, PowerLevel.L1 - 1].any()

    def test_largest_first_order(self):
        cls = HomeClass("A", 500.0, 4)
        dm = build_dm(cls, [50.0, 400.0, 100.0, 30.0])
        # L4 cap 375: dropping the 400 W appliance suffices
        assert np.flatnonzero(~dm[:, PowerLevel.L4 - 1]).tolist() == [1]

    def test_caps_hold_for_every_level(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 14))
            ratings = rng.uniform(5, 300, n)
            cls = HomeClass("C", 1000.0, n)
            dm = build_dm(cls, ratings)
            for level in (PowerLevel.L2, PowerLevel.L3, PowerLevel.L4):
                mask = dm[:, level - 1]
                assert ratings[mask].sum() <= CAP_FRACTION[level] * 1000.0 + 1e-9

    def test_deterministic(self):
        cls = HomeClass("A", 500.0, 6)
        ratings = [120.0, 80.0, 80.0, 200.0, 40.0, 60.0]
        assert np.array_equal(build_dm(cls, ratings), build_dm(cls, ratings))

    def test_rows_round_trip_through_frames(self, class_models):
        # row a is the relay pattern that appliance a's device receives
        rng = np.random.default_rng(15)
        dms = [m.dm for m in class_models.values()]
        dms += [build_dm(HomeClass("C", 1000.0, 13), rng.uniform(5, 300, 13)) for _ in range(20)]
        for dm in dms:
            assert dm.shape == (len(dm), len(PowerLevel)) and dm.dtype == bool
            frame = encode(dm.tolist())
            assert len(frame) == len(dm)
            for a, row in enumerate(dm.tolist()):
                assert decode(frame, a + 1) == tuple(row)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expects"):
            build_dm(HOME_CLASSES["A"], [100.0] * 3)

    def test_negative_rating_rejected(self):
        with pytest.raises(ValueError, match="negative appliance rating"):
            build_dm(HOME_CLASSES["A"], [100.0] * 6 + [-1.0])


def install(model, draws):
    """A fleet of one home per row of `draws`, with those draws installed;
    returns the fleet and the draws as installed. `draws` is copied, as
    set_hour_draws clamps in place and callers pass model arrays."""
    draws = np.array(draws, dtype=float, ndmin=2)
    fleet = make_fleet(model, len(draws))
    return fleet, set_hour_draws(fleet, np.arange(len(draws)), draws)


class TestConsumption:
    def test_l1_is_zero_and_l5_is_total(self, class_models):
        fleet, installed = install(class_models["A"], class_models["A"].rated_draws * 0.5)
        assert fleet.level_watts[0, PowerLevel.L1 - 1] == 0.0
        assert fleet.level_watts[0, PowerLevel.L5 - 1] == installed.sum()

    def test_class_a_l3_under_half_rating(self, class_models):
        fleet, _ = install(class_models["A"], class_models["A"].rated_draws)
        assert fleet.level_watts[0, PowerLevel.L3 - 1] <= 0.5 * 500.0 + 1e-9

    def test_caps_hold_under_random_draws(self, class_models):
        rng = np.random.default_rng(12)
        for label, model in class_models.items():
            fleet, _ = install(model, rng.uniform(0, 200, (20, model.n_appliances)))
            for level in PowerLevel:
                cap = CAP_FRACTION[level] * model.home_class.rating_w
                assert (fleet.level_watts[:, level - 1] <= cap + 1e-9).all()

    def test_unset_draws_rejected(self, class_models):
        topo = build_topology(
            class_models, n_homes=10, n_feeders=2, ap=0.5, rng=np.random.default_rng(3),
            homes_per_transformer=5, group_size=10, class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        with pytest.raises(RuntimeError, match="hour draws not set"):
            served_demand(topo)
        with pytest.raises(RuntimeError, match="hour draws not set"):
            demand(topo)

    def test_current_level_reads_and_writes_the_fleet(self, class_models):
        fleet = make_fleet(class_models["A"], 2)
        home = Home(fleet, 1)
        assert home.current_level is PowerLevel.L5
        fleet.level[1] = PowerLevel.L2
        assert fleet.level.tolist() == [PowerLevel.L5, PowerLevel.L2]
        assert home.current_level is PowerLevel.L2


class TestSetHourDraws:
    def test_clamped_at_rated(self, class_models):
        model = class_models["A"]
        _, draws = install(model, model.rated_draws * 10)
        assert np.all(draws <= model.rated_draws + 1e-12)

    def test_clamps_in_place(self, class_models):
        model = class_models["A"]
        draws = np.tile(model.rated_draws * 10, (2, 1))
        assert set_hour_draws(make_fleet(model, 2), np.arange(2), draws) is draws
        assert np.all(draws <= model.rated_draws)

    def test_total_never_exceeds_rating(self, class_models):
        for model in class_models.values():
            _, draws = install(model, model.rated_draws)
            assert draws.sum() <= model.home_class.rating_w + 1e-9

    def test_level_watts_match_masks(self, class_models):
        model = class_models["B"]
        rng = np.random.default_rng(13)
        fleet, draws = install(model, rng.uniform(0, 100, (5, model.n_appliances)))
        for level in PowerLevel:
            mask = model.dm[:, level - 1]
            want = np.zeros(len(draws))
            for column, connected in zip(draws.T, mask):
                want += column * connected
            assert (fleet.level_watts[:, level - 1] == want).all()

    def test_rows_match_one_home_at_a_time(self, class_models):
        model = class_models["C"]
        rng = np.random.default_rng(14)
        raw = rng.uniform(0, 300, (50, model.n_appliances))
        batch, _ = install(model, raw)
        for i, row in enumerate(raw):
            single, installed = install(model, row)
            assert (batch.level_watts[i] == installed[0] @ model.dm).all()
            assert (batch.level_watts[i] == single.level_watts[0]).all()


class TestSibling:
    """The fleets of one grid's policies share the grid and this hour's
    draws, and each keeps its own states and backoff state."""

    SHARED = ("models", "cls", "smart", "groups", "level_watts", "smart_homes", "class_homes", "rating_w")
    STATES = {"level": PowerLevel.L1, "ls_lh": True, "dlc_done": True, "sl_init": 7.0}

    def test_shares_the_grid(self, small_topology):
        fleet = small_topology()
        other = fleet.sibling()
        for name in self.SHARED:
            assert getattr(other, name) is getattr(fleet, name), name

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_writes_to_one_fleet_leave_the_other(self, small_topology, name):
        fleet = small_topology()
        other = fleet.sibling()
        for written, kept in ((fleet, other), (other, fleet)):
            before = getattr(kept, name).copy()
            getattr(written, name)[::3] = self.STATES[name]
            assert np.array_equal(getattr(kept, name), before, equal_nan=True), name

    def test_starts_at_l5_with_backoff_unset(self, small_topology):
        fleet = small_topology()
        for name, value in self.STATES.items():
            getattr(fleet, name)[:] = value
        other = fleet.sibling()
        assert (other.level == PowerLevel.L5).all()
        assert not other.ls_lh.any() and not other.dlc_done.any()
        assert np.isnan(other.sl_init).all()


@settings(max_examples=100, deadline=None)
@given(
    label=st.sampled_from(sorted(HOME_CLASSES)),
    n_homes=st.integers(1, 300),
    overload=st.floats(1.01, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_installed_watts_are_exact(label, n_homes, overload, seed):
    """Installed draws and level watts are whole multiples of QUANTUM_W that
    keep every cap, so served demand is the exact sum in any order. The
    class's rated draws sum to `overload` times its meter rating, so rows
    over the rating are scaled down; row 0 is always one of them."""
    home_class = HOME_CLASSES[label]
    rng = np.random.default_rng(seed)
    rated = rng.uniform(0.1, 1.0, home_class.appliance_count)
    rated *= overload * home_class.rating_w / rated.sum()
    model = ClassModel(home_class, [], None, rated, build_dm(home_class, rated))
    raw = rng.uniform(0.0, 1.5, (n_homes, home_class.appliance_count)) * rated
    raw[0] = 2.0 * rated
    fleet, installed = install(model, raw)

    for watts in (installed, fleet.level_watts):
        assert (np.floor(watts / QUANTUM_W) == watts / QUANTUM_W).all()
    assert (installed <= rated).all()
    assert (installed.sum(axis=1) <= home_class.rating_w).all()
    for level in PowerLevel:
        assert (fleet.level_watts[:, level - 1] <= CAP_FRACTION[level] * home_class.rating_w).all()

    fleet.level[:] = rng.integers(PowerLevel.L1, PowerLevel.L5 + 1, n_homes)
    watts = fleet.watts(np.arange(n_homes)).tolist()
    served = served_demand(fleet)
    assert served == math.fsum(watts) == sum(reversed(watts))
    rng.shuffle(watts)
    assert served == sum(watts)


@settings(max_examples=100, deadline=None)
@given(
    label=st.sampled_from(sorted(HOME_CLASSES)),
    n_homes=st.integers(1, 300),
    fraction=st.floats(0.5, 1.0),
    n_full=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(label="A", n_homes=20, fraction=1.0, n_full=20, seed=0)
def test_meter_cap_pass_skipped_only_when_it_is_a_no_op(label, n_homes, fraction, n_full, seed):
    """For a class whose rated draws sum to at most its meter rating, the
    installed draws and level watts are those of the reference that takes
    every row's total and rescales the rows over the rating. The rated
    draws are multiples of QUANTUM_W that sum to `fraction` times the
    rating, floored to QUANTUM_W; the first `n_full` rows ask for twice the
    rated draws, so at fraction 1.0 they sum to the rating exactly once
    clamped."""
    home_class = HOME_CLASSES[label]
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, home_class.appliance_count)
    target = math.floor(fraction * home_class.rating_w / QUANTUM_W)
    units = np.floor(weights / weights.sum() * target)
    units[-1] += target - units.sum()
    rated = units * QUANTUM_W
    assert rated[None].sum(axis=1)[0] <= home_class.rating_w
    model = ClassModel(home_class, [], None, rated, build_dm(home_class, rated))
    raw = rng.uniform(0.0, 1.5, (n_homes, home_class.appliance_count)) * rated
    raw[:n_full] = 2.0 * rated

    fleet, installed = install(model, raw)
    reference = make_fleet(model, n_homes)
    want = set_hour_draws_reference(reference, np.arange(n_homes), raw.copy())
    assert (installed.view(np.uint64) == want.view(np.uint64)).all()
    assert (fleet.level_watts.view(np.uint32) == reference.level_watts.view(np.uint32)).all()


def test_every_rating_is_below_float32_exactness():
    """A home's level watts are multiples of QUANTUM_W no larger than its
    meter rating; below 2**24 quanta (16384 W) float32 holds each exactly."""
    for home_class in HOME_CLASSES.values():
        assert home_class.rating_w < 2**24 * QUANTUM_W


@settings(max_examples=100, deadline=None)
@given(
    label=st.sampled_from(sorted(HOME_CLASSES)),
    n_homes=st.integers(1, 300),
    overload=st.floats(0.5, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(label="C", n_homes=50, overload=3.0, seed=0)
def test_stored_level_watts_are_the_float64_level_sums(label, n_homes, overload, seed):
    """The float32 level watts, upcast, are bit for bit the float64
    `draws @ dm` of the reference's installed draws. Raw draws reach 1.5
    times the rated ones, row 0 twice; the rated draws sum to `overload`
    times the meter rating, so above 1 the meter-cap pass runs."""
    home_class = HOME_CLASSES[label]
    rng = np.random.default_rng(seed)
    rated = rng.uniform(0.1, 1.0, home_class.appliance_count)
    rated *= overload * home_class.rating_w / rated.sum()
    model = ClassModel(home_class, [], None, rated, build_dm(home_class, rated))
    raw = rng.uniform(0.0, 1.5, (n_homes, home_class.appliance_count)) * rated
    raw[0] = 2.0 * rated
    fleet, _ = install(model, raw)
    want = set_hour_draws_reference(make_fleet(model, n_homes), np.arange(n_homes), raw.copy()) @ model.dm
    assert fleet.level_watts.dtype == np.float32
    assert (fleet.level_watts.astype(np.float64).view(np.uint64) == want.view(np.uint64)).all()


def test_served_demand_sums_in_float64(class_models):
    """Served demand of an odd number of quanta above 2**24 of them, which
    no float32 holds, is the exact sum of the float32 level watts."""
    model = class_models["C"]
    draws = np.tile(np.floor(0.9 * model.rated_draws / QUANTUM_W) * QUANTUM_W, (40, 1))
    draws[0, 0] -= QUANTUM_W * (1 - draws.sum() / QUANTUM_W % 2)
    fleet, _ = install(model, draws)
    total = math.fsum(fleet.watts(np.arange(len(fleet))).astype(np.float64).tolist())
    assert total > 2**24 * QUANTUM_W and total / QUANTUM_W % 2 == 1
    assert served_demand(fleet) == total


class TestClassModels:
    def test_builtin_rated_draws_sum_below_rating(self, class_models):
        """No builtin home's clamped draws can sum above its meter rating,
        so the hourly redraw never takes the meter-cap pass."""
        for model in class_models.values():
            assert model.rated_draws[None].sum(axis=1)[0] < model.home_class.rating_w

    def test_counts_and_ratings(self, class_models):
        assert set(class_models) == {"A", "B", "C"}
        expected = {"A": (500.0, 7), "B": (750.0, 10), "C": (1000.0, 13)}
        for label, (rating, count) in expected.items():
            model = class_models[label]
            assert model.home_class.rating_w == rating
            assert model.n_appliances == count
            assert len(model.cdfs) == count
            assert model.rated_draws.shape == (count,)

    def test_rated_draw_is_high_quantile(self, class_models):
        for model in class_models.values():
            for cdf, rated in zip(model.cdfs, model.rated_draws):
                assert np.interp(rated, cdf.grid_x, cdf.grid_f) == pytest.approx(0.95, abs=0.01)

    def test_wrong_appliance_count_rejected(self, class_models):
        samples = []
        with pytest.raises(ValueError, match="expected"):
            build_class_model("A", samples)


class TestUtility:
    def test_mapping_points(self):
        p = UtilityParams(1.0, 0.6, 0.4)
        assert utility(PowerLevel.L5, p) == 1.0
        assert utility(PowerLevel.L4, p) == 0.6
        assert utility(PowerLevel.L3, p) == pytest.approx(0.5)
        assert utility(PowerLevel.L2, p) == 0.4
        assert utility(PowerLevel.L1, p) == 0.0

    def test_plain_and_numpy_integer_levels(self):
        p = UtilityParams(1.0, 0.6, 0.4)
        want = [utility(lv, p) for lv in PowerLevel]
        assert [utility(int(lv), p) for lv in PowerLevel] == want
        assert [utility(np.int8(lv), p) for lv in PowerLevel] == want
        with pytest.raises(ValueError):
            utility(0, p)

    def test_nonincreasing_down_the_levels(self):
        p = UtilityParams(2.0, 1.5, 0.25)
        values = [utility(lv, p) for lv in sorted(PowerLevel, reverse=True)]
        assert values == sorted(values, reverse=True)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            UtilityParams(1.0, 0.4, 0.6)


def test_cap_fractions_strictly_increasing():
    fracs = [CAP_FRACTION[lv] for lv in sorted(PowerLevel)]
    assert fracs == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
