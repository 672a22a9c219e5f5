"""Metric formulas and report files, on hand-built logs and small runs."""

from __future__ import annotations

import csv
import math

import pytest

from stressgrid.cli import ExperimentSpec, run_sweep
from stressgrid.engine import SimConfig, run
from stressgrid.levels import PowerLevel, UtilityParams, utility
from stressgrid.metrics import (
    EdgeFractions,
    HourRecord,
    MetricsLog,
    day_fractions,
    day_mean_utility,
    day_ulw_wh,
    fractional_decrease,
    sci,
    ap_token,
    gap_token,
    ulw,
    write_report,
    write_run_csv,
)
from stressgrid.topology import SupplyModel


def hour(h, counts, *, ulw_w=0.0, util=1.0, emergency=False):
    n = sum(counts)
    return HourRecord(
        hour=h, demand_w=1000.0, capacity_w=800.0, served_w=750.0, ulw_w=ulw_w,
        level_counts=counts, smart_level_counts=counts, mean_utility=util,
        convergence_seconds=3, converged=True, emergency=emergency,
        repeat_shed_homes=0,
    )


def make_log(policy="distributed", seed=0, gap=20.0, ap=0.9, hours=None):
    log = MetricsLog(policy=policy, seed=seed, gap_percent=gap, ap=ap, config_hash="x")
    log.hours = hours or [
        hour(0, (1, 0, 0, 0, 3), ulw_w=5.0, util=0.7),
        hour(1, (0, 0, 0, 0, 4), ulw_w=7.0, util=0.9),
    ]
    return log


class TestFormulas:
    def test_ulw_points(self):
        assert ulw(100.0, 100.0) == 0.0
        assert ulw(1_120_000.0, 0.0) == 1_120_000.0
        assert ulw(100.0, 120.0) == 0.0  # pre-convergence floor

    def test_level_distribution(self):
        all_l5 = day_fractions(make_log(hours=[hour(0, (0, 0, 0, 0, 4))]))
        assert all_l5[PowerLevel.L5] == 1.0
        half = day_fractions(make_log(hours=[hour(0, (1, 0, 0, 0, 1))]))
        assert half[PowerLevel.L1] == 0.5
        assert half[PowerLevel.L5] == 0.5
        assert sum(half.values()) == pytest.approx(1.0)

    def test_level_distribution_permutation_invariant(self):
        hours = [hour(0, (1, 0, 2, 0, 1)), hour(1, (0, 1, 0, 3, 0)), hour(2, (2, 0, 0, 0, 2))]
        assert day_fractions(make_log(hours=hours)) == day_fractions(make_log(hours=hours[::-1]))

    def test_mean_utility_points(self):
        # an hour's mean utility is its utility-weighted level counts per home
        p = UtilityParams(1.0, 0.6, 0.4)
        shared = dict(horizon_hours=2, n_homes=40, n_feeders=4, group_size=2, utility=p, seed=3)

        def hourly(policy, supply):
            log = run(SimConfig(policy=policy, supply=supply, **shared))
            return [(rec.mean_utility, rec.level_counts) for rec in log.hours]

        calm = hourly("baseline", SupplyModel(mode="fractional_gap", gap_fraction=0.0))
        assert [u for u, _ in calm] == [1.0, 1.0]
        dark = hourly("baseline", SupplyModel(mode="fixed_capacity", capacity_w=0.0))
        assert [u for u, _ in dark] == [0.0, 0.0]
        # baseline only cuts homes to L1, so utility is the L5 share
        for u, counts in hourly("baseline", SupplyModel(mode="fractional_gap", gap_fraction=0.3)):
            assert 0 < counts[0] < 40
            assert u == pytest.approx(counts[4] / 40)
        # bit for bit: the same products, summed from L1 up
        for u, counts in hourly("distributed", SupplyModel(mode="fractional_gap", gap_fraction=0.3)):
            weighted = sum(utility(lv, p) * counts[lv - 1] for lv in PowerLevel)
            assert u == weighted / 40

    def test_fractional_decrease(self):
        assert fractional_decrease(0.2, 0.03) == pytest.approx(85.0)
        assert fractional_decrease(0.0, 0.5) == 0.0  # zero baseline convention
        assert fractional_decrease(0.5, 0.53) == pytest.approx(-6.0)

    def test_sci_identity(self):
        frac = EdgeFractions(l1=0.3, l5=0.5)
        assert sci(frac, frac) == 0.0

    def test_sci_decrease_example(self):
        base = EdgeFractions(l1=0.20, l5=0.40)
        algo = EdgeFractions(l1=0.03, l5=0.38)  # dec 85 and dec 5
        assert sci(base, algo) == pytest.approx(80.0)

    def test_sci_with_l5_increase(self):
        base = EdgeFractions(l1=0.20, l5=0.50)
        algo = EdgeFractions(l1=0.04, l5=0.53)  # dec 80 and dec -6
        assert sci(base, algo) == pytest.approx(86.0)


class TestDayAggregates:
    def test_day_fractions(self):
        fracs = day_fractions(make_log())
        assert fracs[PowerLevel.L1] == pytest.approx(0.125)
        assert fracs[PowerLevel.L5] == pytest.approx(0.875)
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_day_ulw(self):
        assert day_ulw_wh(make_log()) == pytest.approx(12.0)

    def test_day_mean_utility(self):
        assert day_mean_utility(make_log()) == pytest.approx(0.8)

    def test_empty_log_rejected(self):
        log = MetricsLog(policy="baseline", seed=0, gap_percent=20.0, ap=0.9, config_hash="x")
        with pytest.raises(ValueError, match="empty"):
            day_fractions(log)


class TestReportFiles:
    def sample_logs(self):
        logs = []
        for policy in ("baseline", "distributed"):
            for seed in (0, 1):
                base_counts = (2, 0, 0, 0, 2) if policy == "baseline" else (1, 1, 0, 0, 2)
                logs.append(make_log(policy=policy, seed=seed, hours=[
                    hour(0, base_counts, ulw_w=10.0 + seed, util=0.6),
                    hour(1, base_counts, ulw_w=20.0, util=0.7),
                ]))
        return logs

    def test_run_csv_layout(self, tmp_path):
        p = tmp_path / "run.csv"
        write_run_csv(make_log(), p)
        rows = list(csv.reader(p.open()))
        assert rows[0][:5] == ["hour", "demand_w", "capacity_w", "served_w", "ulw_w"]
        assert len(rows) == 3
        assert rows[1][0] == "0"

    def test_report_file_set(self, tmp_path):
        written = write_report(self.sample_logs(), tmp_path)
        names = sorted(p.name for p in written)
        assert "run_baseline_20_90_s0.csv" in names
        assert "run_distributed_20_90_s1.csv" in names
        assert "summary_baseline_20_90.csv" in names
        assert "summary_distributed_20_90.csv" in names
        for metric in ("dec_l1", "dec_l5", "sci", "ulw_day_wh"):
            assert f"matrix_distributed_{metric}.csv" in names
        assert not any("matrix_baseline" in n for n in names)

    def test_summary_aggregates_all_runs(self, tmp_path):
        write_report(self.sample_logs(), tmp_path)
        rows = list(csv.reader((tmp_path / "summary_distributed_20_90.csv").open()))
        assert rows[0] == ["metric", "mean", "std", "runs"]
        by_name = {r[0]: r for r in rows[1:]}
        assert by_name["ulw_day_wh"][3] == "2"
        # seeds 0 and 1 give day ULW 30 and 31
        assert float(by_name["ulw_day_wh"][1]) == pytest.approx(30.5)

    def test_matrix_values(self, tmp_path):
        write_report(self.sample_logs(), tmp_path)
        rows = list(csv.reader((tmp_path / "matrix_distributed_dec_l1.csv").open()))
        assert rows[0] == ["gap_percent", "90"]
        assert rows[1][0] == "20"
        # baseline L1 fraction 0.5, distributed 0.25
        assert float(rows[1][1]) == pytest.approx(50.0)

    def test_matrix_nan_without_baseline(self, tmp_path):
        logs = [lg for lg in self.sample_logs() if lg.policy == "distributed"]
        write_report(logs, tmp_path)
        rows = list(csv.reader((tmp_path / "matrix_distributed_sci.csv").open()))
        assert rows[1][1] == "nan"

    def test_matrix_nan_where_a_policy_lacks_a_cell(self, tmp_path):
        """Centralized has the AP 0.9 cell alone, the other policies AP 0.6
        too: each centralized matrix is nan at AP 0.6 and a value at 0.9."""
        logs = self.sample_logs() + [make_log(policy="centralized")] + [
            make_log(policy=policy, ap=0.6) for policy in ("baseline", "distributed")
        ]
        write_report(logs, tmp_path)
        for metric in ("dec_l1", "dec_l5", "sci", "ulw_day_wh"):
            rows = list(csv.reader((tmp_path / f"matrix_centralized_{metric}.csv").open()))
            assert rows[0] == ["gap_percent", "60", "90"]
            assert rows[1][1] == "nan" and not math.isnan(float(rows[1][2])), metric

    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        w1 = write_report(self.sample_logs(), d1)
        w2 = write_report(self.sample_logs(), d2)
        for p1, p2 in zip(w1, w2):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("policies", [
        pytest.param(["baseline", "distributed", "centralized"], id="with-baseline"),
        pytest.param(["distributed", "centralized"], id="without-baseline"),
    ])
    def test_every_matrix_entry(self, tmp_path, policies):
        """Each entry of the four matrices, recomputed from the sweep's logs;
        dec and SCI entries are nan where the baseline cell is missing."""
        base = SimConfig(horizon_hours=3, n_homes=60, n_feeders=6, group_size=2, seed=5)
        spec = ExperimentSpec(base=base, policies=policies, gaps_percent=[20.0, 40.0],
                              aps=[0.3, 0.9], runs=2)
        logs = run_sweep(spec, quiet=True)
        write_report(logs, tmp_path)

        def means(policy, gap, ap):
            cell = sorted((lg for lg in logs if (lg.policy, lg.gap_percent, lg.ap) == (policy, gap, ap)),
                          key=lambda lg: lg.seed)
            assert len(cell) == spec.runs
            fractions = [day_fractions(lg) for lg in cell]
            return (
                EdgeFractions(sum(f[PowerLevel.L1] for f in fractions) / len(cell),
                              sum(f[PowerLevel.L5] for f in fractions) / len(cell)),
                sum(day_ulw_wh(lg) for lg in cell) / len(cell),
            )

        checked = 0
        for policy in set(policies) - {"baseline"}:
            for gap in spec.gaps_percent:
                for ap in spec.aps:
                    algo, ulw_mean = means(policy, gap, ap)
                    expected = {"dec_l1": math.nan, "dec_l5": math.nan, "sci": math.nan,
                                "ulw_day_wh": ulw_mean}
                    if "baseline" in policies:
                        b, _ = means("baseline", gap, ap)
                        expected["dec_l1"] = fractional_decrease(b.l1, algo.l1)
                        expected["dec_l5"] = fractional_decrease(b.l5, algo.l5)
                        expected["sci"] = sci(b, algo)
                    for metric, value in expected.items():
                        rows = list(csv.reader((tmp_path / f"matrix_{policy}_{metric}.csv").open()))
                        assert rows[0] == ["gap_percent"] + [ap_token(a) for a in spec.aps]
                        assert [r[0] for r in rows[1:]] == [gap_token(g) for g in spec.gaps_percent]
                        entry = rows[1 + spec.gaps_percent.index(gap)][1 + spec.aps.index(ap)]
                        want = "nan" if math.isnan(value) else f"{value:.6g}"
                        assert entry == want, (policy, metric, gap, ap)
                        checked += 1
        assert checked == 4 * 2 * 2 * 2

    def test_empty_logs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no logs"):
            write_report([], tmp_path)
