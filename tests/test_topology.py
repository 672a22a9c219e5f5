"""Topology construction, demand accounting and the supply model."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from stressgrid.engine import SimConfig
from stressgrid.levels import PowerLevel
from stressgrid.topology import (
    SupplyModel,
    _class_stream,
    build_topology,
    served_demand,
    stress_level,
)


def home_groups(topo) -> np.ndarray:
    """Each home's feeder group, read off `groups` (-1 for none)."""
    group = np.full(len(topo), -1)
    for gi, homes in enumerate(topo.groups):
        group[homes] = gi
    return group


class TestBuild:
    def test_single_group(self, class_models):
        topo = build_topology(
            class_models, n_homes=100, n_feeders=10, ap=0.5,
            rng=np.random.default_rng(0), homes_per_transformer=5, group_size=10,
            class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        assert len(topo.groups) == 1
        assert topo.groups[0].tolist() == list(range(100))

    def test_desk_scale_grouping(self, class_models):
        topo = build_topology(
            class_models, n_homes=1000, n_feeders=50, ap=0.9,
            rng=np.random.default_rng(0), homes_per_transformer=5, group_size=10,
            class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        assert len(topo.groups) == 5
        assert all(len(m) == 200 for m in topo.groups)

    def test_smart_quota_exact(self, class_models):
        topo = build_topology(
            class_models, n_homes=1000, n_feeders=50, ap=0.9,
            rng=np.random.default_rng(123), homes_per_transformer=5, group_size=10,
            class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        assert topo.smart.sum() == 900

    def test_group_partition(self, class_models):
        topo = build_topology(
            class_models, n_homes=120, n_feeders=12, ap=0.5,
            rng=np.random.default_rng(1), homes_per_transformer=5, group_size=5,
            class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        # 24 transformers on 12 feeders; feeders 0-4, 5-9 and 10-11 form groups
        assert len(topo.groups) == 3
        members = np.concatenate(topo.groups)
        assert sorted(members) == list(range(120))
        group = home_groups(topo)
        assert group.tolist() == [i % 24 % 12 // 5 for i in range(120)]
        for gi, homes in enumerate(topo.groups):
            assert (group[homes] == gi).all()
            assert list(homes) == sorted(homes)

    def test_uneven_last_group(self, class_models):
        topo = build_topology(
            class_models, n_homes=50, n_feeders=7, ap=0.0,
            rng=np.random.default_rng(2), homes_per_transformer=5, group_size=3,
            class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        # 10 transformers of 5 homes on feeders 0-6, 0-2: feeders 0-2 carry
        # 10 homes each, feeders 3-6 carry 5; groups are feeders 0-2, 3-5, 6
        sizes = [len(m) for m in topo.groups]
        assert sizes == [30, 15, 5]

    def test_class_mix_quotas(self, class_models):
        topo = build_topology(
            class_models, n_homes=300, n_feeders=10, ap=0.5,
            rng=np.random.default_rng(3), homes_per_transformer=5, group_size=10,
            class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        assert np.bincount(topo.cls).tolist() == [100, 100, 100]

    def test_single_class_mix(self, class_models):
        topo = build_topology(
            class_models, n_homes=30, n_feeders=3, ap=1.0,
            rng=np.random.default_rng(4), homes_per_transformer=5, group_size=10,
            class_mix=(1.0, 0.0, 0.0),
        )
        assert all(topo.models[c].home_class.label == "A" for c in topo.cls)

    def test_deterministic_given_seed(self, class_models):
        kwargs = dict(
            n_homes=200, n_feeders=10, ap=0.6,
            homes_per_transformer=5, group_size=10, class_mix=(1 / 3, 1 / 3, 1 / 3),
        )
        a = build_topology(class_models, rng=np.random.default_rng(9), **kwargs)
        b = build_topology(class_models, rng=np.random.default_rng(9), **kwargs)
        assert (a.smart == b.smart).all()
        assert (a.cls == b.cls).all()
        assert (home_groups(a) == home_groups(b)).all()

    def test_class_stream_matches_sorted_deficits(self):
        labels = "ABC"
        for mix in [
            (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.5, 0.3, 0.2),
            (0.2, 0.2, 0.6), (0.1, 0.45, 0.45), (0.25, 0.5, 0.25),
        ]:
            got = [labels[c] for c in _class_stream(3000, mix)]
            assert got == helpers.class_stream_reference(3000, mix), mix

    def test_invalid_inputs(self):
        # build_topology takes its inputs as checked: SimConfig checks them
        with pytest.raises(ValueError, match="home"):
            SimConfig(n_homes=0)
        with pytest.raises(ValueError, match="feeder"):
            SimConfig(n_feeders=0)
        with pytest.raises(ValueError, match="ap"):
            SimConfig(ap=1.5)
        with pytest.raises(ValueError, match="mix"):
            SimConfig(class_mix=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="group_size"):
            SimConfig(group_size=0)
        with pytest.raises(ValueError, match="homes_per_transformer"):
            SimConfig(homes_per_transformer=0)


class TestDemand:
    def test_extremes_and_linearity(self, class_models):
        topo = build_topology(
            class_models, n_homes=40, n_feeders=4, ap=1.0,
            rng=np.random.default_rng(5), homes_per_transformer=5, group_size=10,
            class_mix=(1.0, 0.0, 0.0),
        )
        helpers.fill_draws(topo, 0.5)
        level = topo.level

        level[:] = PowerLevel.L1
        unconstrained, served = helpers.demand(topo)
        assert served == 0.0

        level[:] = PowerLevel.L5
        _, served = helpers.demand(topo)
        assert served == pytest.approx(unconstrained)

        level[:20] = PowerLevel.L1
        _, served = helpers.demand(topo)
        assert served == pytest.approx(unconstrained / 2)

    def test_served_tracks_current_levels(self, small_topology):
        topo = small_topology()
        _, served_before = helpers.demand(topo)
        assert served_demand(topo) == pytest.approx(served_before)
        topo.level[0] = PowerLevel.L1
        drop = helpers.demand(topo)[1]
        assert drop < served_before

    def test_served_never_exceeds_unconstrained(self, small_topology):
        topo = small_topology()
        rng = np.random.default_rng(6)
        topo.level[:] = rng.integers(1, 6, len(topo))
        unconstrained, served = helpers.demand(topo)
        assert served <= unconstrained + 1e-9


class TestStressLevel:
    def test_formula_points(self):
        assert stress_level(100.0, 80.0) == 20.0
        assert stress_level(100.0, 100.0) == 0.0
        assert stress_level(100.0, 120.0) == 0.0

    def test_exact_gap_not_moved_by_rounding_noise(self):
        # 100 * (d - 0.6 d) / d evaluates to 39.99999999999999 for this d
        d = 471352.968650048
        assert stress_level(d, 0.6 * d) == 40.0

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError, match="demand must be positive"):
            stress_level(0.0, 10.0)


class TestSupplyModel:
    def test_fixed_capacity(self):
        s = SupplyModel(mode="fixed_capacity", capacity_w=5000.0)
        assert s.capacity_for(123456.0) == 5000.0
        assert s.capacity_for(1.0) == 5000.0

    def test_fractional_gap(self):
        s = SupplyModel(mode="fractional_gap", gap_fraction=0.3)
        assert s.capacity_for(1000.0) == pytest.approx(700.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SupplyModel(mode="auction")
        with pytest.raises(ValueError, match="gap_fraction"):
            SupplyModel(mode="fractional_gap", gap_fraction=1.0)
        with pytest.raises(ValueError, match="capacity_w"):
            SupplyModel(mode="fixed_capacity", capacity_w=-1.0)
