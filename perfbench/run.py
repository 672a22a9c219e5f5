#!/usr/bin/env python3
"""Benchmark of the stressgrid simulator, measured from outside the program.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports stressgrid from
`src/` and changes nothing there. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured untraced;
with `--trace 1` they are the per-layer ones, from traced runs. The lines
before it describe the machine, every repetition and, when traced, the
self time of every span. A record of the run is written under
`.perfbench_out/`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import reference
from tracer import APPLY, NAMES

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUNS_PER_CELL = 1
DEADLINE_S = 170  # every run ends within 180 s, whatever --seconds says
OUT_DIR = ".perfbench_out"

# Spans that never run on some workload (baseline_step on lossy-link,
# write_report off desk-sweep). A time that reads 0 on every run looks like
# a constant, so these report calls only; their self time is in the printed
# span table and the spans file.
CALLS_ONLY = ("policies.baseline_step", "metrics.write_report")


@dataclass(frozen=True)
class Workload:
    homes: int
    feeders: int
    horizon_hours: int
    policies: tuple[str, ...]
    gaps: tuple[int, ...]
    aps: tuple[float, ...]
    link: bool = False
    via_cli: bool = False  # a whole `stressgrid` CLI invocation per repetition

    @property
    def cells(self) -> int:
        return len(self.policies) * len(self.gaps) * len(self.aps)

    @property
    def n_runs(self) -> int:
        return self.cells * RUNS_PER_CELL

    @property
    def home_hours(self) -> int:
        return self.n_runs * self.homes * self.horizon_hours

    def ini(self, seed: int) -> str:
        """The only input the program gets: an INI config built from the seed."""
        return "\n".join([
            "[simulation]",
            f"horizon_hours = {self.horizon_hours}",
            f"seed = {seed}",
            f"runs = {RUNS_PER_CELL}",
            "[topology]",
            f"homes = {self.homes}",
            f"feeders = {self.feeders}",
            "[supply]",
            "mode = fractional_gap",
            f"gaps = {','.join(map(str, self.gaps))}",
            "[policy]",
            f"policies = {','.join(self.policies)}",
            "[sweep]",
            f"aps = {','.join(map(str, self.aps))}",
            "[protocol]",
            f"emulate = {'true' if self.link else 'false'}",
            "distance_m = 50",
            "",
        ])


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {
    # The paper's sweep as users run it: many small runs, so per-run fixed
    # costs, pool start-up, the per-worker fit and report writing weigh.
    "desk-sweep": Workload(
        homes=1000, feeders=50, horizon_hours=24,
        policies=("baseline", "distributed", "centralized"),
        gaps=(10, 20, 30, 40), aps=(0.3, 0.6, 0.9), via_cli=True,
    ),
    # City scale, set-up paid once: per-home work over a large working set.
    "grid-100k": Workload(
        homes=100_000, feeders=5000, horizon_hours=2,
        policies=("baseline", "distributed", "centralized"), gaps=(20,), aps=(0.9,),
    ),
    # Lost commands double the rounds per hour: the round loop weighs most.
    "lossy-link": Workload(
        homes=1000, feeders=50, horizon_hours=24,
        policies=("distributed", "centralized"), gaps=(40,), aps=(0.9,), link=True,
    ),
}


class Run:
    """What one benchmark invocation has seen so far."""

    def __init__(self, root: Path, name: str, seed: int, seconds: int):
        self.root = root
        self.name = name
        self.workload = workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.out = root / OUT_DIR
        self.tmp = self.out / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.ini = self.tmp / "config.ini"
        self.ini.write_text(workload.ini(seed))
        self._n = 0

    def fresh(self, stem: str) -> Path:
        self._n += 1
        return self.tmp / f"{stem}-{self._n}"

    def record(self, runs: int, failed: int, problems, digest: str | None) -> None:
        self.attempted += runs
        self.failed += failed
        self.problems.extend(problems)
        if digest is not None:
            self.digests.add(digest)

    def env(self, workers: int) -> dict[str, str]:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            OPENBLAS_NUM_THREADS="1",
            STRESSGRID_THREADS=str(workers),
        )

    def launch(self, argv: list[str], env: dict[str, str]) -> tuple[float, float, float, int]:
        """Start a fresh interpreter and wait for it and its pool workers.

        Returns (launch time, seconds to exit, peak RSS in MB of the process
        and every descendant it waited for, exit code). The process group is
        killed at the run's deadline.
        """
        t_launch = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=self.root, env=env,
            stdout=subprocess.DEVNULL, start_new_session=True,
        )
        timer = threading.Timer(max(0.0, self.deadline - t_launch), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t_launch
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t_launch, wall, usage.ru_maxrss / 1024.0, proc.returncode

    def child(self, mode: str, env: dict[str, str], *args: str) -> tuple[float, float, float, dict | None]:
        result = self.fresh("result").with_suffix(".json")
        t_launch, wall, rss, code = self.launch(
            [str(HERE / "child.py"), mode, "--result", str(result), *args], env)
        data = json.loads(result.read_text()) if code == 0 and result.exists() else None
        return t_launch, wall, rss, data

    # -- repetitions ---------------------------------------------------

    def setup_sample(self) -> float:
        t_launch, _, _, data = self.child("setup", self.env(1))
        if data is None:
            raise SystemExit("set-up sample failed")
        return data["t_done"] - t_launch

    def spans(self) -> str:
        """One file per workload, overwritten, so traced runs do not pile up."""
        return str(self.out / f"{self.name}.spans.npz")

    def cli_rep(self, workers: int, trace: bool | None) -> dict:
        """One CLI invocation on the workload's config; checks its report.

        With `trace=None` this is the `stressgrid` command itself, timed to
        its exit. Otherwise child.py calls `cli.main` in a fresh interpreter,
        traced or not, and the time runs until `main` returned.
        """
        w = self.workload
        out = self.fresh("report")
        if trace is None:
            argv = ["-m", "stressgrid.cli", "--config", str(self.ini), "--out", str(out), "--quiet"]
            t_launch, wall, rss, code = self.launch(argv, self.env(workers))
            data = {"status": code}
        else:
            t_launch, wall, rss, data = self.child(
                "cli", self.env(workers), "--ini", str(self.ini), "--out", str(out),
                "--trace", str(int(trace)), "--spans", self.spans())
            data = data or {"status": None}
            if "t_done" in data:
                wall = data["t_done"] - t_launch
        rep = {"wall_s": wall, "peak_rss_mb": rss, **data}
        if data["status"] != 0:
            self.record(w.n_runs, w.n_runs, [f"CLI exited with {data['status']}"], None)
        else:
            per_run, report = checks.check_report(
                out, w.homes, w.horizon_hours, RUNS_PER_CELL, w.cells,
                sum(p != "baseline" for p in w.policies))
            bad = sum(1 for ps in per_run.values() if ps)
            failed = w.n_runs if report else max(bad, data.get("failed", 0))
            problems = report + [p for ps in per_run.values() for p in ps] + data.get("problems", [])
            rep["digest"] = checks.report_digest(out)
            self.record(w.n_runs, failed, problems, rep["digest"])
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def sweep_child(self, seconds: float, trace: bool) -> tuple[float, dict | None]:
        """In-process `run_sweep` repetitions in one fresh interpreter."""
        w = self.workload
        _, _, rss, data = self.child(
            "sweep", self.env(1), "--ini", str(self.ini), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--spans", self.spans())
        if data is None:
            self.record(w.n_runs, w.n_runs, ["sweep child failed"], None)
            return rss, None
        for rep in data["reps"]:
            self.record(rep["runs"], rep["failed"], rep["problems"], rep["digest"])
        return rss, data


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def repeat(seconds: float):
    """Yield once, then again while one more pass of the same length would
    still end within `seconds` of the start."""
    t_window = time.perf_counter()
    while True:
        t = time.perf_counter()
        yield
        now = time.perf_counter()
        if (now - t_window) + (now - t) > seconds:
            return


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Set-up samples, then untraced repetitions that fit in --seconds."""
    w = run.workload
    setup = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
    rss: list[float] = []
    reps: list[dict] = []
    if w.via_cli:
        workers = min(nproc(), w.n_runs)
        for _ in repeat(run.seconds):
            rep = run.cli_rep(workers, trace=None)
            rep["reference_s"] = reference.samples(rep["wall_s"])
            reps.append(rep)
            rss.append(rep["peak_rss_mb"])
    else:
        peak, data = run.sweep_child(run.seconds, trace=False)
        reps = data["reps"] if data else []
        rss = [peak]
    if not reps:
        raise SystemExit("no repetition completed")
    walls = [rep["wall_s"] for rep in reps]
    refs = [r for rep in reps for r in rep["reference_s"]]
    wall = statistics.median(walls)
    wall_ref = wall / statistics.median(refs)
    metrics = {
        "wall_ref": (wall_ref, "ref"),
        "home_hours_per_ref": (w.home_hours / wall_ref, "home-h/ref"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {"setup_s": setup, "wall_s": walls, "reference_s": refs, "peak_rss_mb": rss,
              "raw": f"median wall_s {wall:.4f}, home_hours_per_s {w.home_hours / wall:.1f}",
              "reps": reps}
    return metrics, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    """Untraced and traced fresh processes, in pairs that fit in --seconds.

    desk-sweep is traced with one worker, since spans recorded in forked
    pool workers would be lost; its untraced partner also uses one worker.
    """
    w = run.workload
    untraced: list[float] = []
    traced: list[dict] = []
    for _ in repeat(run.seconds):
        for trace in (False, True):
            if w.via_cli:
                rep = run.cli_rep(1, trace=trace)
                if trace and "trace" not in rep:
                    raise SystemExit("traced CLI run failed: " + "; ".join(run.problems[:3]))
            else:
                _, data = run.sweep_child(0, trace=trace)
                if data is None:
                    raise SystemExit("sweep child failed")
                rep = dict(data["reps"][-1], trace=data.get("trace"))
                rep["files_written"] = rep["bytes_written"] = 0
            if trace:
                traced.append(rep)
            else:
                untraced.append(rep["wall_s"])

    def med(f) -> float:
        return statistics.median(f(rep) for rep in traced)

    first = traced[0]
    counts = first["counts"]
    calls = first["trace"]["calls"]
    for rep in traced[1:]:
        if rep["counts"] != counts or rep["trace"]["calls"] != calls:
            run.problems.append("counts differ between traced repetitions")
    rounds = max(counts["rounds"], 1)
    sent = max(counts["commands_sent"], 1)
    metrics: dict[str, tuple[float, str]] = {}
    for name in NAMES:
        if name not in CALLS_ONLY:
            metrics[f"{name}.self_s"] = (med(lambda r: r["trace"]["self_s"][name]), "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    traced_wall = med(lambda r: r["wall_s"])
    untraced_wall = statistics.median(untraced)
    metrics.update({
        "topology.served_demand.calls_per_round": (
            calls["topology.served_demand"] / rounds, "calls/round"),
        "policies.rounds_per_hour": (counts["rounds"] / counts["hours"], "rounds/h"),
        "protocol.commands_sent": (counts["commands_sent"], "count"),
        "protocol.commands_lost": (counts["commands_lost"], "count"),
        "protocol.effective_command_share": (
            first["trace"]["effective_commands"] / sent, "ratio"),
        "metrics.files_written": (first["files_written"], "count"),
        "metrics.bytes_written": (first["bytes_written"], "count"),
        "cli.workers": (min(nproc(), w.n_runs) if w.via_cli else 1, "count"),
        "engine.nonconverged_hours": (counts["nonconverged_hours"], "count"),
        "engine.emergency_hours": (counts["emergency_hours"], "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_share": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
        "trace.coverage": (med(lambda r: r["trace"]["region_self_s"] / r["wall_s"]), "ratio"),
    })
    if calls[APPLY] != counts["commands_sent"]:
        run.problems.append("protocol.apply calls != commands sent")
    detail = {"untraced_wall_s": untraced, "traced": traced}
    return metrics, detail


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "stressgrid").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())

    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "source_sha256": src.hexdigest()[:16],
    }


def span_table(traced: list[dict], wall: float) -> list[str]:
    rep = traced[-1]["trace"]
    lines = [f"{'span (last traced process)':38} {'calls':>9} {'self_s':>9} {'/wall':>7}"]
    for name in sorted(NAMES, key=lambda n: -rep["self_s"][n]):
        s = rep["self_s"][name]
        lines.append(f"{name:38} {rep['calls'][name]:9d} {s:9.4f} {s / wall:7.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "stressgrid" / "__init__.py").is_file():
        print(f"no stressgrid sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, detail = per_layer(run)
        else:
            metrics, detail = end_to_end(run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    if len(run.digests) > 1:
        run.problems.append(f"hour-record digests differ between repetitions: {sorted(run.digests)}")

    info = machine(root)
    print("machine " + json.dumps(info))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} runs, {run.failed} failed, digest {','.join(sorted(run.digests))}")
    for key in ("setup_s", "wall_s", "reference_s", "peak_rss_mb", "untraced_wall_s"):
        if key in detail:
            print(f"  {key}: " + " ".join(f"{v:.4f}" for v in detail[key]))
    if "raw" in detail:
        print(f"  raw: {detail['raw']}")
    if args.trace:
        print("\n".join(span_table(detail["traced"], metrics["trace.wall_s"][0])))
    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": run.workload.ini(args.seed), "machine": info,
              "digests": sorted(run.digests), "metrics": metrics, "detail": detail}
    (run.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
