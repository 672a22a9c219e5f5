"""Engine tests: hourly cycle, convergence, determinism, accounting."""

from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helpers
import stressgrid
from stressgrid import engine
from stressgrid.cli import ExperimentSpec, cell_config
from stressgrid.consumption import fit_cdf, sample_inverse
from stressgrid.corpus import write_synthetic_corpus
from stressgrid.engine import BLOCK_ROWS, BUILTIN_CDFS, SimConfig, load_models, run, run_cell
from stressgrid.homes import build_class_model, set_hour_draws
from stressgrid.levels import PowerLevel
from stressgrid.metrics import write_run_csv
from stressgrid.policies import POLICIES
from stressgrid.topology import SupplyModel, build_topology

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def cfg(**overrides):
    base = dict(
        horizon_hours=3,
        n_homes=100,
        n_feeders=10,
        group_size=5,
        ap=0.9,
        supply=SupplyModel(mode="fractional_gap", gap_fraction=0.2),
        policy="distributed",
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestBuiltinModels:
    STALE = "the bundled table is stale; rewrite it with write_builtin_cdfs() in tests/helpers.py"

    def test_table_equals_a_fresh_fit(self, class_models):
        fresh = helpers.fit_builtin_cdfs()
        with np.load(BUILTIN_CDFS, allow_pickle=False) as table:
            bundled = dict(table)
        expected = helpers.builtin_cdf_arrays(fresh)
        assert bundled.keys() == expected.keys(), self.STALE
        for key, want in expected.items():
            got = bundled[key]
            assert got.dtype == want.dtype and np.array_equal(got, want), f"{key}: {self.STALE}"
        for label, cdfs in fresh.items():
            want, got = build_class_model(label, cdfs), class_models[label]
            for name, a, b in (
                ("guide", want.table.guide, got.table.guide),
                ("rated_draws", want.rated_draws, got.rated_draws),
                ("dm", want.dm, got.dm),
            ):
                assert a.dtype == b.dtype and np.array_equal(a, b), f"{label} {name}: {self.STALE}"

    def test_builtin_models_import_no_scipy(self, tmp_path):
        """The builtin models load without importing scipy, and a corpus
        fits and runs with scipy made unimportable."""
        src = str(Path(stressgrid.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, stressgrid.cli\n"
            "from stressgrid.engine import load_models\n"
            "load_models('builtin')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

        corpus = write_synthetic_corpus(tmp_path / "corpus")
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from stressgrid.engine import SimConfig, load_models, run\n"
            f"load_models({str(corpus)!r})\n"
            f"log = run(SimConfig(horizon_hours=1, n_homes=100, n_feeders=10, data_dir={str(corpus)!r}))\n"
            "print(len(log.hours))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "1"

    def test_package_root_imports_no_submodule(self):
        src = str(Path(stressgrid.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, stressgrid\n"
            "print(sorted(m for m in sys.modules if m.startswith('stressgrid.')))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


def test_wrong_appliance_count_rejected_before_any_fit(tmp_path, monkeypatch):
    """A manifest that lists one file too many is rejected on its count,
    before `load_models` fits a single appliance of any class."""
    corpus = write_synthetic_corpus(tmp_path / "corpus")
    manifest = corpus / "class_b" / "manifest.txt"
    manifest.write_text(manifest.read_text() + "refrigerator.txt\n")
    fits = []
    monkeypatch.setattr(engine, "fit_cdf", lambda samples: fits.append(samples) or fit_cdf(samples))
    monkeypatch.setattr(engine, "_MODEL_CACHE", {})
    with pytest.raises(ValueError, match="class B manifest lists 11 appliances, expected 10"):
        load_models(str(corpus))
    assert fits == []


class TestDeterminism:
    def test_same_seed_same_log(self):
        a = run(cfg())
        b = run(cfg())
        assert a == b

    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(run(cfg()), p1)
        write_run_csv(run(cfg()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_flags_are_numeric(self, tmp_path):
        # numpy bools must not leak into the report as "True"/"False"
        p = tmp_path / "a.csv"
        write_run_csv(run(cfg()), p)
        body = p.read_text().splitlines()[1:]
        assert body and all("True" not in row and "False" not in row for row in body)
        assert all(row.split(",")[-2] in ("0", "1") for row in body)

    def test_different_seed_differs(self):
        assert run(cfg()) != run(cfg(seed=12))

    def test_model_cache_reused(self):
        assert load_models("builtin") is load_models("builtin")


class TestHourlyCycle:
    def test_zero_gap_never_fires(self):
        log = run(cfg(supply=SupplyModel(mode="fractional_gap", gap_fraction=0.0)))
        for rec in log.hours:
            assert rec.convergence_seconds == 0
            assert rec.level_counts[4] == 100  # everyone at L5
            assert rec.converged and not rec.emergency
            assert rec.ulw_w == 0.0

    def test_demand_varies_by_hour(self):
        log = run(cfg())
        demands = [rec.demand_w for rec in log.hours]
        assert len(set(demands)) == len(demands)

    def test_served_within_capacity_when_converged(self):
        for policy in ("baseline", "distributed", "centralized"):
            log = run(cfg(policy=policy))
            for rec in log.hours:
                assert rec.converged
                assert rec.served_w <= rec.capacity_w + 1e-6

    def test_day_energy_within_capacity(self):
        for policy in ("baseline", "distributed", "centralized"):
            log = run(cfg(policy=policy))
            assert sum(r.served_w for r in log.hours) <= sum(
                r.capacity_w for r in log.hours
            ) + 1e-6

    def test_convergence_bound_respected(self):
        bounds = {"baseline": 2 + 2 + 5, "distributed": 2 * (2 + 2 + 5), "centralized": 3}
        for policy, bound in bounds.items():
            log = run(cfg(policy=policy, supply=SupplyModel(mode="fractional_gap", gap_fraction=0.3)))
            for rec in log.hours:
                assert rec.convergence_seconds <= bound


class TestNoSmartHomes:
    def test_only_edge_levels_any_policy(self):
        for policy in ("baseline", "distributed", "centralized"):
            log = run(cfg(policy=policy, ap=0.0))
            for rec in log.hours:
                assert rec.converged
                assert rec.level_counts[1] == 0
                assert rec.level_counts[2] == 0
                assert rec.level_counts[3] == 0
                assert sum(rec.smart_level_counts) == 0


class TestStressExtremes:
    def test_deep_gap_converges_within_capacity(self):
        # A 70% gap can undershoot even the all-L2 floor (masks are cut
        # against rated draws, not the hour's), so the emergency signal is
        # fair game here; the hard guarantees are convergence and the cap.
        for policy in ("distributed", "centralized"):
            log = run(cfg(
                policy=policy, ap=1.0, horizon_hours=1, n_homes=200,
                supply=SupplyModel(mode="fractional_gap", gap_fraction=0.7),
            ))
            rec = log.hours[0]
            assert rec.converged
            assert rec.served_w <= rec.capacity_w + 1e-6
            if not rec.emergency:
                assert rec.smart_level_counts[0] == 0

    def test_zero_capacity_baseline(self):
        log = run(cfg(policy="baseline", supply=SupplyModel(mode="fixed_capacity", capacity_w=0.0)))
        for rec in log.hours:
            assert rec.converged
            assert rec.served_w == 0.0
            assert rec.level_counts[0] == 100

    def test_zero_capacity_needs_emergency_for_dlc(self):
        for policy in ("distributed", "centralized"):
            log = run(cfg(
                policy=policy, horizon_hours=1,
                supply=SupplyModel(mode="fixed_capacity", capacity_w=0.0),
            ))
            rec = log.hours[0]
            assert rec.emergency
            assert rec.converged
            assert rec.served_w == 0.0

    def test_fixed_capacity_gap_is_nan_in_log(self):
        log = run(cfg(supply=SupplyModel(mode="fixed_capacity", capacity_w=1e9), horizon_hours=1))
        assert math.isnan(log.gap_percent)

    def test_log_gap_is_the_configured_gap(self):
        # cell_config divides the gap by 100; the log's gap must not be an
        # ulp off it, as 100 * (7 / 100) is
        spec = ExperimentSpec(base=cfg(horizon_hours=1, n_homes=5, n_feeders=1, group_size=1))
        for gap in [q / 4 for q in range(400)]:
            assert run(cell_config(spec, "baseline", gap, 0.9, 0)).gap_percent == gap


class TestSmartHomeGuarantees:
    def test_no_smart_home_below_l2_without_emergency(self):
        for policy in ("distributed", "centralized"):
            log = run(cfg(policy=policy, horizon_hours=4))
            for rec in log.hours:
                if not rec.emergency:
                    assert rec.smart_level_counts[0] == 0

    def test_no_repeat_shedding_without_emergency(self):
        for policy in ("distributed", "centralized"):
            log = run(cfg(policy=policy, horizon_hours=4))
            for rec in log.hours:
                if not rec.emergency:
                    assert rec.repeat_shed_homes == 0


class TestProtocolIntegration:
    def test_lossless_link_converges(self):
        log = run(cfg(protocol_emulation=True, protocol_distance_m=10.0, horizon_hours=2))
        assert log.commands_sent > 0
        assert log.commands_lost == 0
        assert all(rec.converged for rec in log.hours)

    def test_perfect_link_matches_no_emulation(self):
        for policy in ("distributed", "centralized"):
            linked = run(cfg(policy=policy, protocol_emulation=True, protocol_distance_m=10.0))
            assert linked.commands_sent > 0
            assert linked.hours == run(cfg(policy=policy)).hours

    def test_lossy_link_loses_commands(self):
        log = run(cfg(protocol_emulation=True, protocol_distance_m=50.0, horizon_hours=2))
        assert log.commands_lost > 0
        lost_rate = log.commands_lost / log.commands_sent
        assert 0.2 < lost_rate < 0.45  # delivery probability 0.684

    def test_perfect_channel_has_no_losses(self):
        log = run(cfg(horizon_hours=2))
        assert log.commands_lost == 0



class TestRandomStreams:
    """Each random stream of a run has one purpose, so draws made for one
    purpose move no value of another."""

    def test_policies_of_a_cell_see_one_demand_path(self):
        spec = ExperimentSpec(base=cfg(horizon_hours=6), gaps_percent=[40.0], aps=[0.9], runs=2)
        for j in range(spec.runs):
            demand = {
                policy: [rec.demand_w for rec in run(cell_config(spec, policy, 40.0, 0.9, j)).hours]
                for policy in POLICIES
            }
            assert demand["distributed"] == demand["baseline"]
            assert demand["centralized"] == demand["baseline"]

    def test_a_lossy_link_moves_no_home_or_demand(self, monkeypatch):
        smart = []

        def recording_build_topology(*args, **kwargs):
            topo = build_topology(*args, **kwargs)
            smart.append(topo.smart.copy())
            return topo

        monkeypatch.setattr(engine, "build_topology", recording_build_topology)
        for policy in ("distributed", "centralized"):
            smart.clear()
            plain = run(cfg(policy=policy, horizon_hours=6))
            lossy = run(cfg(policy=policy, horizon_hours=6, protocol_emulation=True, protocol_distance_m=50.0))
            assert lossy.commands_lost > 0
            assert [rec.demand_w for rec in lossy.hours] == [rec.demand_w for rec in plain.hours]
            assert np.array_equal(smart[0], smart[1])


class TestRunCell:
    """The runs of one cell share a grid and its hourly draws; each must
    still log exactly what it logs when run alone."""

    SUPPLIES = {
        "gap10": SupplyModel(gap_fraction=0.1),
        "gap40": SupplyModel(gap_fraction=0.4),
        "gap60": SupplyModel(gap_fraction=0.6),
        "fixed": SupplyModel(mode="fixed_capacity", capacity_w=200_000.0),
    }

    @staticmethod
    def cell(supply, distance_m, seed, policies=tuple(POLICIES)):
        return [
            SimConfig(
                horizon_hours=12, n_homes=600, n_feeders=30, group_size=4, ap=0.7,
                supply=supply, policy=policy, seed=seed,
                protocol_emulation=distance_m is not None,
                protocol_distance_m=10.0 if distance_m is None else distance_m,
            )
            for policy in policies
        ]

    @pytest.mark.parametrize("seed", [5, 99])
    @pytest.mark.parametrize("distance_m", [None, 50.0], ids=["no-link", "50m"])
    @pytest.mark.parametrize("supply", sorted(SUPPLIES))
    def test_grouped_runs_equal_solo_runs(self, supply, distance_m, seed):
        configs = self.cell(self.SUPPLIES[supply], distance_m, seed)
        grouped = run_cell(configs)
        solo = [run(config) for config in configs]
        assert helpers.hour_digest(grouped) == helpers.hour_digest(solo)
        # repr compares every field exactly, the NaN gap of fixed capacity too
        assert [repr(log) for log in grouped] == [repr(log) for log in solo]
        assert [log.config_hash for log in grouped] == [c.config_hash() for c in configs]
        if distance_m is not None:
            assert all(log.commands_lost > 0 for log in grouped if log.policy != "baseline")

    def test_hour_digest_is_the_benchmark_digest(self):
        """The digest these tests compare is the one the benchmark compares."""
        spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        logs = run_cell(self.cell(self.SUPPLIES["gap40"], 50.0, 5))
        assert helpers.hour_digest(logs) == checks.log_digest(logs)
        assert helpers.hour_digest(logs[1:]) == checks.log_digest(logs[1:]) != checks.log_digest(logs)

    def test_a_policy_may_repeat(self):
        configs = self.cell(self.SUPPLIES["gap40"], 50.0, 5, ("distributed", "centralized", "distributed"))
        logs = run_cell(configs)
        assert repr(logs[0]) == repr(logs[2]) == repr(run(configs[0]))
        assert repr(logs[1]) == repr(run(configs[1]))

    def test_configs_must_differ_in_policy_and_supply_only(self):
        configs = self.cell(self.SUPPLIES["gap40"], None, 5, ("baseline", "centralized"))
        for other in (replace(configs[1], seed=6), replace(configs[1], ap=0.5),
                      replace(configs[1], horizon_hours=3)):
            with pytest.raises(ValueError, match="policy and supply only"):
                run_cell([configs[0], other])
        with pytest.raises(ValueError, match="at least one"):
            run_cell([])

    def test_blocked_redraws_equal_one_block_per_class(self, class_models):
        config = cfg(n_homes=3 * BLOCK_ROWS + 500, n_feeders=50)
        fleets, rngs = [], []
        for _ in range(2):
            topo = build_topology(
                class_models, n_homes=config.n_homes, n_feeders=config.n_feeders, ap=config.ap,
                rng=np.random.default_rng(1), homes_per_transformer=config.homes_per_transformer,
                group_size=config.group_size, class_mix=config.class_mix,
            )
            fleets.append(topo)
            rngs.append(np.random.default_rng(2))
        blocked, whole = fleets
        class_homes = [np.flatnonzero(blocked.cls == c) for c in range(len(blocked.models))]
        assert min(homes.size for homes in class_homes) > BLOCK_ROWS
        for _ in range(2):  # two hours
            engine._refresh_draws(blocked, rngs[0])
            for model, homes in zip(whole.models, class_homes):
                u = rngs[1].random((homes.size, model.n_appliances))
                set_hour_draws(whole, homes, sample_inverse(model.table, u))
            assert np.array_equal(blocked.level_watts, whole.level_watts)
            assert not np.isnan(blocked.level_watts).any()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            cfg(horizon_hours=0)
        with pytest.raises(ValueError, match="policy"):
            cfg(policy="mystery")
        with pytest.raises(ValueError, match="ap"):
            cfg(ap=1.2)
        with pytest.raises(ValueError, match="reduction_factor"):
            cfg(reduction_factor=0.0)
        with pytest.raises(ValueError, match="seed"):
            cfg(seed=-1)
        for mix in ((float("nan"), 0.5, 0.5), (-0.5, 1.0, 0.5)):
            with pytest.raises(ValueError, match="class mix"):
                cfg(class_mix=mix)
        # a NaN distance would give a NaN delivery probability, which the
        # channel runs as a perfect link
        with pytest.raises(ValueError, match="protocol_distance_m"):
            cfg(protocol_distance_m=float("nan"))

    def test_hash_tracks_fields(self):
        assert cfg().config_hash() == cfg().config_hash()
        assert cfg().config_hash() != cfg(seed=99).config_hash()

    def test_level_counts_cover_all_homes(self):
        log = run(cfg())
        for rec in log.hours:
            assert sum(rec.level_counts) == 100
