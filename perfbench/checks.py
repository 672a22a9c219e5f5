"""Output checks and digests of the stressgrid benchmark.

Every check returns a list of problems; an empty list means the output
passed. `check_log` reads the `MetricsLog` objects a run returns;
`check_report` reads the CSV report the CLI writes. Neither imports
stressgrid, so the benchmark's parent process stays free of it.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

# CSV values carry six significant digits, so a difference of the printed
# capacity and served watts can be off by one unit in the sixth digit.
CSV_REL_TOL = 1e-5


def check_log(log, n_homes: int, horizon_hours: int, link_on: bool) -> list[str]:
    """Invariants every run must hold, read from its in-memory log."""
    where = f"{log.policy} seed {log.seed}"
    problems = []
    if len(log.hours) != horizon_hours:
        problems.append(f"{where}: {len(log.hours)} hours, expected {horizon_hours}")
    for rec in log.hours:
        if sum(rec.level_counts) != n_homes:
            problems.append(f"{where} h{rec.hour}: level counts sum to {sum(rec.level_counts)}")
        if rec.converged:
            if not rec.served_w <= rec.capacity_w:
                problems.append(f"{where} h{rec.hour}: served above capacity")
            if not (rec.ulw_w == rec.capacity_w - rec.served_w and rec.ulw_w >= 0):
                problems.append(f"{where} h{rec.hour}: ulw_w != capacity_w - served_w")
    if log.commands_lost > log.commands_sent:
        problems.append(f"{where}: more commands lost than sent")
    if not link_on and log.commands_lost != 0:
        problems.append(f"{where}: commands lost on a perfect link")
    return problems


def log_digest(logs) -> str:
    """Digest of every hour record and command counter, in run order."""
    h = hashlib.sha256()
    for log in logs:
        h.update(repr((log.policy, log.seed, log.gap_percent, log.ap,
                       log.commands_sent, log.commands_lost)).encode())
        for rec in log.hours:
            h.update(repr(tuple(vars(rec).values())).encode())
    return h.hexdigest()[:16]


def log_counts(logs) -> dict[str, int]:
    hours = [rec for log in logs for rec in log.hours]
    return {
        "hours": len(hours),
        "rounds": sum(rec.convergence_seconds for rec in hours),
        "nonconverged_hours": sum(not rec.converged for rec in hours),
        "emergency_hours": sum(rec.emergency for rec in hours),
        "commands_sent": sum(log.commands_sent for log in logs),
        "commands_lost": sum(log.commands_lost for log in logs),
    }


def _check_run_csv(path: Path, n_homes: int, horizon_hours: int) -> list[str]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != horizon_hours:
        problems.append(f"{path.name}: {len(rows)} hours, expected {horizon_hours}")
    for row in rows:
        counts = sum(int(row[f"n_l{k}"]) for k in range(1, 6))
        if counts != n_homes:
            problems.append(f"{path.name} h{row['hour']}: level counts sum to {counts}")
        if row["converged"] == "1":
            cap, served, ulw = (float(row[k]) for k in ("capacity_w", "served_w", "ulw_w"))
            if not served <= cap:
                problems.append(f"{path.name} h{row['hour']}: served above capacity")
            if ulw < 0 or abs(ulw - (cap - served)) > CSV_REL_TOL * cap:
                problems.append(f"{path.name} h{row['hour']}: ulw_w != capacity_w - served_w")
    return problems


def check_report(
    out_dir: Path,
    n_homes: int,
    horizon_hours: int,
    runs_per_cell: int,
    n_cells: int,
    algo_policies: int,
) -> tuple[dict[str, list[str]], list[str]]:
    """Checks on a CLI report: (problems per run file, report-wide problems).

    A complete report holds one CSV per run, one summary per cell and four
    matrices per policy other than baseline; each summary row counts
    `runs_per_cell` runs.
    """
    run_files = sorted((out_dir / "runs").glob("run_*.csv"))
    summaries = sorted(out_dir.glob("summary_*.csv"))
    matrices = sorted(out_dir.glob("matrix_*.csv"))
    report = []
    expected = (n_cells * runs_per_cell, n_cells, 4 * algo_policies)
    found = (len(run_files), len(summaries), len(matrices))
    if found != expected:
        report.append(f"report holds runs/summaries/matrices {found}, expected {expected}")
    for path in summaries:
        with path.open(newline="") as fh:
            bad = [r["metric"] for r in csv.DictReader(fh) if int(r["runs"]) != runs_per_cell]
        if bad:
            report.append(f"{path.name}: runs column != {runs_per_cell} for {bad}")
    per_run = {p.name: _check_run_csv(p, n_homes, horizon_hours) for p in run_files}
    return per_run, report


def report_digest(out_dir: Path) -> str:
    """Digest of the per-run hour records as the CLI wrote them."""
    h = hashlib.sha256()
    for path in sorted((out_dir / "runs").glob("run_*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
