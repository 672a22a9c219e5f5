"""Experiment runner.

Configs are plain INI-style ``key = value`` files with bracketed section
headers. Every key defaults to the default of the field it sets, so an
empty file is a valid config; unknown sections (``[DEFAULT]`` too) or keys
are rejected, and values are read literally, with no ``%`` interpolation.
Each value flag of `main` (`FLAGS`) writes its string over the raw value
of one key before the one reader parses it, so a flag and its key give the
same runs and the same errors. The sweep is the cross product of policies,
supply gaps and smart-home penetrations, with a fixed number of runs per
cell. Per-run seeds come from the base seed, gap, AP and run index alone,
not the policy, so re-running any single cell reproduces the exact files of
the full sweep and the policies of a cell share theirs.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .engine import SimConfig, load_models, run_cell
from .levels import UtilityParams
from .metrics import MetricsLog, ap_token, gap_token, write_report
from .policies import DistributionProfile
from .topology import SupplyModel, check_classes


class ConfigError(Exception):
    pass


def derive_seed(base_seed: int, gap_percent: float, ap: float, run_index: int) -> int:
    """Stable per-run seed from the base seed and the cell's gap, AP and run
    index; not the policy, so the policies of a cell share random numbers.

    entropy = (base, gap in hundredths of a percent, ap in hundredths of a
    percent, run index), hashed by numpy's SeedSequence.
    """
    entropy = (base_seed, int(round(gap_percent * 100)), int(round(ap * 10000)), run_index)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass
class ExperimentSpec:
    """A sweep: `base` holds the settings every run shares; each run's config
    takes its policy, AP, supply gap and seed from its cell (`cell_config`)."""

    base: SimConfig
    policies: list[str] = field(default_factory=lambda: ["baseline", "distributed", "centralized"])
    gaps_percent: list[float] = field(default_factory=lambda: [10.0, 20.0, 30.0, 40.0])
    aps: list[float] = field(default_factory=lambda: [0.3, 0.6, 0.9])
    runs: int = 10
    out_dir: str = "results"

    def cells(self) -> list[tuple[str, float, float]]:
        return [
            (policy, gap, ap)
            for policy in self.policies
            for gap in self.gaps_percent
            for ap in self.aps
        ]

    def configs(self) -> list[SimConfig]:
        """Every run's config, cell by cell, runs innermost."""
        return [
            cell_config(self, policy, gap, ap, j)
            for (policy, gap, ap) in self.cells()
            for j in range(self.runs)
        ]


@contextmanager
def _config_errors() -> Iterator[None]:
    """Report a value type's ValueError as a ConfigError. The value types
    (`SimConfig`, `SupplyModel`, `DistributionProfile`, `UtilityParams`)
    are the one place where a range is checked."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def checked_configs(spec: ExperimentSpec) -> None:
    """Build every run's config of `spec`; raises ConfigError if any is invalid.
    A corpus `data_dir` is checked by fitting it with `engine.load_models`,
    whose per-process cache the runs of this process and of its forked
    workers then reuse. The builtin models need no check and stay unloaded."""
    if spec.runs < 1:
        raise ConfigError("runs must be at least 1")
    for key, values, token in (
        ("policies", spec.policies, str),
        ("gaps", spec.gaps_percent, gap_token),
        ("aps", spec.aps, ap_token),
    ):
        if not values:
            raise ConfigError(f"{key} must list at least one value")
        tokens = [token(v) for v in values]  # a cell's name in the report files
        twice = [t for t in tokens if tokens.count(t) > 1]
        if twice:
            raise ConfigError(f"{key} lists two values that the report names {twice[0]!r}")
    data_dir = spec.base.data_dir
    if data_dir != "builtin":
        try:
            check_classes(load_models(data_dir), spec.base.n_homes, spec.base.class_mix)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data_dir {data_dir!r}: {exc}") from None
    with _config_errors():
        configs = spec.configs()
    # One policy's block, by position: -0 and 0 are equal but name two cells.
    cells = [(gap, ap) for gap in spec.gaps_percent for ap in spec.aps]
    first: dict[int, int] = {}
    for k, config in enumerate(configs[: len(cells) * spec.runs]):
        j = first.setdefault(config.seed, k)
        if j != k:
            raise ConfigError(
                f"cells (gap, ap) {cells[j // spec.runs]} and {cells[k // spec.runs]} share every seed"
            )


def _parser(convert, kind: str):
    """A parser of one key's raw value that reports a bad value as a ConfigError."""

    def parse(raw: str, key: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"bad {kind} for {key}: {raw!r}") from None

    return parse


_parse_int = _parser(int, "integer")
_parse_float = _parser(float, "number")
_parse_bool = _parser(lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "boolean")


def _parse_float_list(raw: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad number in {key}: {raw!r}") from None


def _parse_names(raw: str, key: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


# The base seed of a sweep; every other default is that of the field a key sets.
BASE_SEED = 42


def _read_ini(path: Path) -> dict[str, dict[str, str]]:
    """The raw value of every key, by section, read literally (no `%`
    interpolation). No header can name the default section "", so [DEFAULT]
    is an ordinary section whose keys go into no other. A file that is not
    UTF-8 INI text is a ConfigError."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    try:
        with path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def parse_config(path: Path | str | None) -> ExperimentSpec:
    """Parse a config file into an ExperimentSpec and check every run it
    describes.

    With no path every key keeps its default. Raises ConfigError on
    unknown keys, malformed values or out-of-range settings.
    """
    spec = _read_spec(_read_ini(Path(path)) if path is not None else {})
    checked_configs(spec)
    return spec


def _read_spec(values: dict[str, dict[str, str]]) -> ExperimentSpec:
    """The spec that raw `values` (section -> key -> value) set, without the
    check of the runs (`checked_configs`). A key left out, or an empty
    `class_mix` or `dp`, keeps the default of the field it sets. The keys
    read here are the only keys there are: any other is rejected."""
    spec = ExperimentSpec(base=SimConfig(seed=BASE_SEED))
    base = spec.base
    read: set[tuple[str, str]] = set()

    def get(section: str, key: str, default, parse=lambda raw, key: raw):
        read.add((section, key))
        raw = values.get(section, {}).get(key)
        return default if raw is None else parse(raw, key)

    mode = get("supply", "mode", base.supply.mode)
    capacity_w, gaps = base.supply.capacity_w, [float("nan")]
    if mode == "fixed_capacity":
        if not get("supply", "capacity_w", ""):
            raise ConfigError("missing required key 'capacity_w' for fixed_capacity supply")
        if get("supply", "gaps", None) is not None:
            raise ConfigError("key 'gaps' does not apply to fixed_capacity supply")
        capacity_w = get("supply", "capacity_w", capacity_w, _parse_float)
    else:
        if get("supply", "capacity_w", ""):
            raise ConfigError("key 'capacity_w' does not apply to fractional_gap supply")
        gaps = get("supply", "gaps", spec.gaps_percent, _parse_float_list)

    mix_raw = get("topology", "class_mix", "")
    mix = tuple(_parse_float_list(mix_raw, "class_mix")) if mix_raw else base.class_mix

    dp_raw = get("policy", "dp", "")
    alphas = _parse_float_list(dp_raw, "dp") if dp_raw else None
    if alphas is not None and len(alphas) != 3:
        raise ConfigError("dp needs three fractions (L4,L3,L2)")

    with _config_errors():
        base = replace(
            base,
            horizon_hours=get("simulation", "horizon_hours", base.horizon_hours, _parse_int),
            n_homes=get("topology", "homes", base.n_homes, _parse_int),
            n_feeders=get("topology", "feeders", base.n_feeders, _parse_int),
            group_size=get("topology", "group_size", base.group_size, _parse_int),
            homes_per_transformer=get("topology", "homes_per_transformer", base.homes_per_transformer, _parse_int),
            class_mix=mix,
            data_dir=get("topology", "data_dir", base.data_dir),
            supply=SupplyModel(mode=mode, capacity_w=capacity_w),
            dp=base.dp if alphas is None else DistributionProfile(*alphas),
            reduction_factor=get("policy", "reduction_factor", base.reduction_factor, _parse_float),
            utility=UtilityParams(
                u_max=get("utility", "u_max", base.utility.u_max, _parse_float),
                th_u=get("utility", "th_u", base.utility.th_u, _parse_float),
                th_l=get("utility", "th_l", base.utility.th_l, _parse_float),
            ),
            protocol_emulation=get("protocol", "emulate", base.protocol_emulation, _parse_bool),
            protocol_distance_m=get("protocol", "distance_m", base.protocol_distance_m, _parse_float),
            seed=get("simulation", "seed", base.seed, _parse_int),
        )
    spec = replace(
        spec,
        base=base,
        policies=get("policy", "policies", spec.policies, _parse_names),
        gaps_percent=gaps,
        aps=get("sweep", "aps", spec.aps, _parse_float_list),
        runs=get("simulation", "runs", spec.runs, _parse_int),
        out_dir=get("output", "out_dir", spec.out_dir),
    )
    sections = {section for section, _ in read}
    for section, keys in values.items():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in keys:
            if (section, key) not in read:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    return spec


def cell_config(spec: ExperimentSpec, policy: str, gap_percent: float, ap: float, run_index: int) -> SimConfig:
    """Concrete run config for one (policy, gap, ap, run) coordinate."""
    if spec.base.supply.mode == "fractional_gap":
        supply = SupplyModel(mode="fractional_gap", gap_fraction=gap_percent / 100.0)
    else:
        supply = spec.base.supply
        gap_percent = 0.0  # fixed-capacity runs key their seeds on gap 0
    # checked before the seed is derived, which needs a finite ap
    config = replace(spec.base, policy=policy, ap=ap, supply=supply)
    return replace(config, seed=derive_seed(spec.base.seed, gap_percent, ap, run_index))


def _worker_count(n_jobs: int) -> int:
    """Pool workers for `n_jobs` jobs: at most `STRESSGRID_THREADS` (1 if
    it is not an integer), else at most the CPUs this process may run on."""
    env = os.environ.get("STRESSGRID_THREADS")
    if env:
        try:
            cap = max(1, int(env))
        except ValueError:
            cap = 1
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return min(cap, n_jobs)


def run_sweep(spec: ExperimentSpec, quiet: bool = False) -> list[MetricsLog]:
    """Run every run of the sweep; deterministic, whatever the worker count.

    `spec.configs()` lists each policy's block of (gap, AP, run) coordinates
    in the same order, so with n coordinates `configs[k::n]` are the runs
    that differ in policy alone: a group that `engine.run_cell` runs on one
    grid. The logs come back in `spec.configs()` order.
    """
    configs = spec.configs()
    n = spec.runs * len(spec.gaps_percent) * len(spec.aps)
    jobs = [configs[k::n] for k in range(n)]
    workers = _worker_count(n)
    results = []
    if workers > 1:
        # imported here: the pool stack (multiprocessing, logging, socket,
        # subprocess) costs about 2 MB and 12 ms, which a run without a pool skips
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for group_logs in pool.map(run_cell, jobs, chunksize=1) if pool else map(run_cell, jobs):
            results.append(group_logs)
            if not quiet:
                print(f"group {len(results)}/{n} complete")
    return [logs[p] for p in range(len(spec.policies)) for logs in results]


# Each value flag of `main` and the key whose raw value it replaces.
FLAGS = {
    "--out": ("output", "out_dir"),
    "--seed": ("simulation", "seed"),
    "--runs": ("simulation", "runs"),
    "--policy": ("policy", "policies"),
    "--gap": ("supply", "gaps"),
    "--ap": ("sweep", "aps"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stressgrid",
        description="Simulate load-control policies on a stressed distribution grid.",
    )
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    for flag, (section, key) in FLAGS.items():
        parser.add_argument(flag, help=f"sets [{section}] {key}")
    parser.add_argument("--single", action="store_true",
                        help="run one cell: the first value of policies, gaps and aps")
    parser.add_argument("--validate", action="store_true",
                        help="check every run the other flags select, then exit")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        values = _read_ini(args.config) if args.config is not None else {}
        for flag, (section, key) in FLAGS.items():
            raw = getattr(args, flag[2:])
            if raw is not None:  # a flag replaces the raw value of the key it sets
                values.setdefault(section, {})[key] = raw
        spec = _read_spec(values)
        if args.single:
            spec = replace(
                spec, policies=spec.policies[:1], gaps_percent=spec.gaps_percent[:1], aps=spec.aps[:1]
            )
        checked_configs(spec)
        if args.validate:
            print(f"config ok: {len(spec.cells())} cells x {spec.runs} runs")
            return 0

        # an unwritable output directory fails here, before any run
        Path(spec.out_dir, "runs").mkdir(parents=True, exist_ok=True)
        written = write_report(run_sweep(spec, quiet=args.quiet), spec.out_dir)
        if not args.quiet:
            print(f"wrote {len(written)} files under {spec.out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
