"""Run metrics and report writing."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .levels import PowerLevel

LEVELS = list(PowerLevel)


@dataclass
class HourRecord:
    hour: int
    demand_w: float
    capacity_w: float
    served_w: float
    ulw_w: float
    level_counts: tuple[int, int, int, int, int]  # L1..L5
    smart_level_counts: tuple[int, int, int, int, int]
    mean_utility: float
    convergence_seconds: int
    converged: bool
    emergency: bool
    repeat_shed_homes: int  # homes shed this hour and the previous one


@dataclass
class MetricsLog:
    policy: str
    seed: int
    gap_percent: float
    ap: float
    config_hash: str
    hours: list[HourRecord] = field(default_factory=list)
    commands_sent: int = 0
    commands_lost: int = 0

    @property
    def n_homes(self) -> int:
        return sum(self.hours[0].level_counts) if self.hours else 0


def ulw(capacity_w: float, served_w: float) -> float:
    """Under-load wastage: supply left unused at the converged state."""
    return max(0.0, capacity_w - served_w)


@dataclass(frozen=True)
class EdgeFractions:
    """Day-aggregated fractions of homes at the two extreme states."""

    l1: float
    l5: float


def fractional_decrease(baseline: float, algo: float) -> float:
    """Percent decrease from the baseline fraction (0 when baseline is 0)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - algo) / baseline


def sci(baseline_frac: EdgeFractions, algo_frac: EdgeFractions) -> float:
    """Social comfort index: |dec_L1 - dec_L5| in percentage points."""
    dec_l1 = fractional_decrease(baseline_frac.l1, algo_frac.l1)
    dec_l5 = fractional_decrease(baseline_frac.l5, algo_frac.l5)
    return abs(dec_l1 - dec_l5)


def day_fractions(log: MetricsLog) -> dict[PowerLevel, float]:
    """Level fractions averaged over the day (mean of hourly fractions)."""
    if not log.hours:
        raise ValueError("empty log")
    n = log.n_homes
    acc = {lv: 0.0 for lv in LEVELS}
    for rec in log.hours:
        for lv in LEVELS:
            acc[lv] += rec.level_counts[lv - 1] / n
    return {lv: acc[lv] / len(log.hours) for lv in LEVELS}


def day_ulw_wh(log: MetricsLog) -> float:
    """ULW summed over the day; hourly watts integrate to watt-hours."""
    return sum(rec.ulw_w for rec in log.hours)


def day_mean_utility(log: MetricsLog) -> float:
    return sum(rec.mean_utility for rec in log.hours) / len(log.hours)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.6g}"
    return str(x)


def gap_token(gap_percent: float) -> str:
    """How report file names spell a supply gap in percent."""
    return f"{gap_percent:g}"


def ap_token(ap: float) -> str:
    """How report file names spell a smart-home penetration, in percent."""
    return f"{100.0 * ap:g}"


def _cell_key(log: MetricsLog) -> tuple[str, str, float]:
    # keyed on the gap token: the NaN gap of fixed_capacity runs never
    # equals itself, so a float key would split every run into its own cell
    return (log.policy, gap_token(log.gap_percent), log.ap)


HOURLY_FIELDS = [
    "hour", "demand_w", "capacity_w", "served_w", "ulw_w",
    "n_l1", "n_l2", "n_l3", "n_l4", "n_l5",
    "mean_utility", "convergence_seconds", "converged", "emergency",
]


def write_run_csv(log: MetricsLog, path: Path) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HOURLY_FIELDS)
        for rec in log.hours:
            w.writerow(
                [_fmt(v) for v in (
                    rec.hour, rec.demand_w, rec.capacity_w, rec.served_w,
                    rec.ulw_w, *rec.level_counts, rec.mean_utility,
                    rec.convergence_seconds, rec.converged, rec.emergency,
                )]
            )


def _aggregate(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def write_summary_csv(cell_logs: list[MetricsLog], path: Path) -> dict[str, float]:
    """Seed-aggregated metrics for one sweep cell; returns each metric's mean."""
    fractions = [day_fractions(lg) for lg in cell_logs]
    metrics: dict[str, list[float]] = {
        "ulw_day_wh": [day_ulw_wh(lg) for lg in cell_logs],
        "mean_utility": [day_mean_utility(lg) for lg in cell_logs],
        "convergence_seconds_mean": [
            sum(r.convergence_seconds for r in lg.hours) / len(lg.hours)
            for lg in cell_logs
        ],
        "emergency_hours": [
            float(sum(1 for r in lg.hours if r.emergency)) for lg in cell_logs
        ],
        "demand_day_wh": [sum(r.demand_w for r in lg.hours) for lg in cell_logs],
        "served_day_wh": [sum(r.served_w for r in lg.hours) for lg in cell_logs],
    }
    for lv in LEVELS:
        metrics[f"frac_l{int(lv)}"] = [f[lv] for f in fractions]
    means: dict[str, float] = {}
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "mean", "std", "runs"])
        for name, values in metrics.items():
            means[name], std = _aggregate(values)
            w.writerow([name, _fmt(means[name]), _fmt(std), len(values)])
    return means


def write_report(logs: list[MetricsLog], out_dir: Path | str) -> list[Path]:
    """Write per-run hourly CSVs, per-cell summaries and, for each policy
    other than baseline, gap x AP matrices of dec_L1, dec_L5, SCI and day
    ULW against the baseline cell at the same gap and AP."""
    if not logs:
        raise ValueError("no logs to report")
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    cells: dict[tuple[str, str, float], list[MetricsLog]] = {}
    for lg in logs:
        cells.setdefault(_cell_key(lg), []).append(lg)
    for key in cells:
        cells[key].sort(key=lambda lg: lg.seed)

    means: dict[tuple[str, str, float], dict[str, float]] = {}
    for (policy, gt, ap), cell_logs in sorted(cells.items()):
        at = ap_token(ap)
        for lg in cell_logs:
            p = runs_dir / f"run_{policy}_{gt}_{at}_s{lg.seed}.csv"
            write_run_csv(lg, p)
            written.append(p)
        p = out_dir / f"summary_{policy}_{gt}_{at}.csv"
        means[(policy, gt, ap)] = write_summary_csv(cell_logs, p)
        written.append(p)

    policies = sorted({k[0] for k in cells} - {"baseline"})
    gaps = sorted({k[1] for k in cells}, key=float)
    aps = sorted({k[2] for k in cells if k[0] != "baseline"})
    for policy in policies:
        tables = {"dec_l1": {}, "dec_l5": {}, "sci": {}, "ulw_day_wh": {}}
        for gap in gaps:
            for ap in aps:
                algo, base = means.get((policy, gap, ap)), means.get(("baseline", gap, ap))
                if algo is None:
                    continue
                tables["ulw_day_wh"][(gap, ap)] = algo["ulw_day_wh"]
                if base is None:
                    continue  # its dec and SCI cells are written as nan
                b = EdgeFractions(base["frac_l1"], base["frac_l5"])
                a = EdgeFractions(algo["frac_l1"], algo["frac_l5"])
                tables["dec_l1"][(gap, ap)] = fractional_decrease(b.l1, a.l1)
                tables["dec_l5"][(gap, ap)] = fractional_decrease(b.l5, a.l5)
                tables["sci"][(gap, ap)] = sci(b, a)
        for metric, table in tables.items():
            p = out_dir / f"matrix_{policy}_{metric}.csv"
            with p.open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["gap_percent"] + [ap_token(ap) for ap in aps])
                for gap in gaps:
                    row = [gap]
                    for ap in aps:
                        row.append(_fmt(table.get((gap, ap), float("nan"))))
                    w.writerow(row)
            written.append(p)
    return written
