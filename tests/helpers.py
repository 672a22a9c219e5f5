"""Checkers and reference implementations shared between the unit suite
and the acceptance suite."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product

import numpy as np

from stressgrid.consumption import GRID_POINTS, EmpiricalCdf, filter_outliers, fit_cdf, silverman_bandwidth
from stressgrid.corpus import synthetic_samples
from stressgrid.engine import BUILTIN_CDFS
from stressgrid.homes import HOME_CLASSES, QUANTUM_W, Fleet, Home, set_hour_draws
from stressgrid.levels import CAP_FRACTION, PowerLevel, UtilityParams, utility
from stressgrid.policies import MIN_STRESS, DistributionProfile, RoundState, _cuttable, alg1_decisions
from stressgrid.protocol import decode, encode
from stressgrid.topology import served_demand


def fit_builtin_cdfs() -> dict[str, list]:
    """The bundled corpus's CDFs per class label, fitted afresh."""
    return {
        label: [fit_cdf(filter_outliers(s)) for s in samples]
        for label, samples in synthetic_samples().items()
    }


def builtin_cdf_arrays(cdfs: dict[str, list]) -> dict[str, np.ndarray]:
    """`cdfs` as the arrays of `engine.BUILTIN_CDFS`."""
    arrays = {}
    for label, fitted in cdfs.items():
        arrays[f"{label}_grid_x"] = np.stack([c.grid_x for c in fitted])
        arrays[f"{label}_grid_f"] = np.stack([c.grid_f for c in fitted])
        arrays[f"{label}_bandwidth"] = np.array([c.bandwidth for c in fitted])
    return arrays


def write_builtin_cdfs(path=BUILTIN_CDFS) -> None:
    """Refit the bundled corpus and rewrite the table the builtin models
    load from. Run it from the repo root after changing the corpus or the
    fit:

        PYTHONPATH=src:tests python -c "import helpers; helpers.write_builtin_cdfs()"
    """
    np.savez_compressed(path, **builtin_cdf_arrays(fit_builtin_cdfs()))


def fit_cdf_exact_reference(samples) -> EmpiricalCdf:
    """The exact Gaussian-KDE CDF on `consumption.fit_cdf`'s grid, with its
    bandwidth: every sample's kernel CDF evaluated at every grid point with
    scipy's `ndtr`, then clipped and renormalized as `fit_cdf` does. The
    binned fit is checked against it."""
    from scipy.special import ndtr

    values = samples.samples
    h = silverman_bandwidth(values)
    grid = np.linspace(max(0.0, float(values.min()) - 3.0 * h), float(values.max()) + 3.0 * h, GRID_POINTS)
    raw = ndtr((grid[None, :] - values[:, None]) / h).mean(axis=0)
    f = np.maximum.accumulate(np.clip((raw - raw[0]) / (raw[-1] - raw[0]), 0.0, 1.0))
    f[0], f[-1] = 0.0, 1.0
    return EmpiricalCdf(grid, f, h)


def hour_digest(logs) -> str:
    """Digest of every hour record and command counter of `logs`, in run
    order; the same digest as `perfbench/checks.log_digest`."""
    h = hashlib.sha256()
    for log in logs:
        h.update(repr((log.policy, log.seed, log.gap_percent, log.ap,
                       log.commands_sent, log.commands_lost)).encode())
        for rec in log.hours:
            h.update(repr(tuple(vars(rec).values())).encode())
    return h.hexdigest()[:16]


def make_fleet(model, n: int = 1, smart: bool = True) -> Fleet:
    """n homes of one class in one feeder group, draws not yet set."""
    return Fleet((model,), np.zeros(n, dtype=np.intp), np.full(n, smart), [np.arange(n)])


def fill_draws(fleet: Fleet, scale: float) -> None:
    """Give every home `scale` times its appliances' rated draws."""
    for model, homes in zip(fleet.models, fleet.class_homes):
        if homes.size:
            set_hour_draws(fleet, homes, np.tile(model.rated_draws * scale, (homes.size, 1)))


def demand(fleet) -> tuple[float, float]:
    """(unconstrained demand, served demand) in watts: what all homes would
    draw at L5, and what they draw at their current states."""
    unconstrained = fleet.level_watts[:, PowerLevel.L5 - 1].sum(dtype=np.float64)
    return float(unconstrained), served_demand(fleet)


def decide(fleet: Fleet, sl: float, dp: DistributionProfile, emergency: bool, r: int):
    """Home 0's backoff decision as a PowerLevel, or None to stay put."""
    (target,) = alg1_decisions(fleet, np.array([0]), sl, dp, emergency, np.array([r]))
    return PowerLevel(int(target)) if target else None


@dataclass
class ScalarHome:
    """The backoff state of one home, for the scalar reference below."""

    smart: bool = True
    current_level: PowerLevel = PowerLevel.L5
    ls_lh: bool = False
    dlc_done: bool = False
    sl_init: float | None = None


def alg1_home_decision(
    home: ScalarHome,
    sl: float,
    dp: DistributionProfile,
    emergency: bool,
    r: int,
) -> PowerLevel | None:
    """Scalar reference of one smart home's backoff decision, which
    `policies.alg1_decisions` computes for many homes at once."""
    if not home.smart:
        raise ValueError("only smart homes run the backoff scheme")
    if not 1 <= r <= 100:
        raise ValueError("r must lie in [1, 100]")
    if home.ls_lh and not emergency:
        return None
    if not home.dlc_done:
        eff = sl
        if home.sl_init is None and eff < MIN_STRESS:
            eff = MIN_STRESS
        home.sl_init = eff
        if r < eff:
            home.dlc_done = True
            if r > (1.0 - dp.alpha_l4) * eff:
                return PowerLevel.L4
            if dp.alpha_l2 * eff < r < (dp.alpha_l3 + dp.alpha_l2) * eff:
                return PowerLevel.L3
            return PowerLevel.L2
        return None
    threshold = home.sl_init
    level = home.current_level
    if level is PowerLevel.L1:
        return None
    if (r < threshold or emergency) and (level is not PowerLevel.L2 or emergency):
        return PowerLevel(level - 1)
    return None


def eligible_lower_levels(
    consumption_fraction: float, emergency: bool = False
) -> list[PowerLevel]:
    """Scalar reference of the step-down choice, which
    `policies.eligible_lower_runs` computes for many homes at once: the
    states whose cap sits strictly below the home's consumption fraction,
    highest first; without an emergency only L4/L3/L2."""
    levels = [PowerLevel.L4, PowerLevel.L3, PowerLevel.L2]
    if emergency:
        levels.append(PowerLevel.L1)
    return [lv for lv in levels if CAP_FRACTION[lv] < consumption_fraction]


def send_reference(state: RoundState, homes: np.ndarray, levels, ends=None) -> int:
    """Scalar reference of `policies._send`: command homes[j] to levels[j]
    (or every home to one level), one command and one `Home` handle at a
    time, and lower `served_w` by the watts of each delivered command as it
    lands. The commands form consecutive units that end at `ends` (None:
    one unit of all); stop after the first unit that leaves `served_w` at
    or under `capacity_w`, and return the number of units sent."""
    fleet, apply = state.fleet, state.channel.apply
    levels = np.full(homes.shape, levels)
    shed_w = fleet.watts(homes) - fleet.level_watts[homes, levels - 1]
    ends = [homes.size] if ends is None else ends.tolist()
    start = 0
    for sent, stop in enumerate(ends, 1):
        unit = slice(start, stop)
        for i, level, watts in zip(homes[unit].tolist(), levels[unit].tolist(), shed_w[unit].tolist()):
            if apply(Home(fleet, i), level):
                state.served_w -= watts
        if state.served_w <= state.capacity_w:
            return sent
        start = stop
    return len(ends)


def shut_off_groups_reference(state: RoundState, nonsmart_only: bool) -> None:
    """Scalar reference of the batched shut-off walk: visit the feeder
    groups one at a time, round-robin from `next_group`, each at most once,
    while served watts exceed capacity, and send L1 to every member (or,
    with `nonsmart_only`, every cuttable member) through `send_reference`.
    Moves `next_group` past every group visited, empty ones included."""
    groups = state.fleet.groups
    visited = 0
    while visited < len(groups) and state.served_w > state.capacity_w:
        members = groups[(state.next_group + visited) % len(groups)]
        if nonsmart_only:
            members = members[_cuttable(state, members)]
        send_reference(state, members, PowerLevel.L1)
        visited += 1
    state.next_group = (state.next_group + visited) % len(groups)


def baseline_step_reference(state: RoundState, k: int) -> None:
    """`policies.baseline_step` on the group-at-a-time walk."""
    start = state.next_group
    shut_off_groups_reference(state, nonsmart_only=False)
    state.next_group = (start + (k == 1)) % len(state.fleet.groups)


def cut_nonsmart_groups_reference(state: RoundState) -> None:
    """`policies.cut_nonsmart_groups` on the group-at-a-time walk."""
    shut_off_groups_reference(state, nonsmart_only=True)


def alg2_step_reference(state: RoundState, k: int) -> None:
    """Scalar reference of `policies.alg2_step`, home by home: in each group
    visited while served watts exceed capacity, cut every cuttable
    non-smart home; if served watts still exceed capacity, draw one
    `rng.integers(0, n)` on the policy stream `rng` for each candidate that
    has n eligible states, in descending consumption (ties to the lower
    id), then step the candidates down in that order, one command each
    (whose delivery the channel draws on its own stream), until served
    watts fit under capacity. Raises the emergency flag if they never do."""
    fleet, rng, channel, emergency = state.fleet, state.rng, state.channel, state.emergency
    groups = fleet.groups
    visited = 0
    while visited < len(groups) and state.served_w > state.capacity_w:
        members = groups[(state.next_group + visited) % len(groups)].tolist()
        visited += 1
        for i in members:
            exempt = fleet.ls_lh[i] and not emergency
            if not fleet.smart[i] and fleet.level[i] != PowerLevel.L1 and not exempt:
                watts = float(fleet.watts(i))
                if channel.apply(Home(fleet, i), PowerLevel.L1):
                    state.served_w -= watts
        if state.served_w <= state.capacity_w:
            break
        candidates = [i for i in members if fleet.smart[i] and (emergency or not fleet.ls_lh[i])]
        steps = []
        for i in sorted(candidates, key=lambda i: (-float(fleet.watts(i)), i)):
            fraction = float(fleet.watts(i)) / fleet.models[fleet.cls[i]].home_class.rating_w
            levels = [lv for lv in eligible_lower_levels(fraction, emergency) if lv < fleet.level[i]]
            if levels:
                steps.append((i, levels[int(rng.integers(0, len(levels)))]))
        for i, new in steps:
            if state.served_w <= state.capacity_w:
                break
            current = float(fleet.watts(i))
            if channel.apply(Home(fleet, i), new):
                state.served_w -= current - float(fleet.level_watts[i, new - 1])
    state.next_group = (state.next_group + visited) % len(groups)
    if state.served_w > state.capacity_w:
        state.emergency = True


def utility_ceiling(fleet: Fleet, capacity_w: float, params: UtilityParams) -> float:
    """An upper bound on the mean utility of any assignment of levels to
    `fleet`'s homes, at this hour's draws, whose served watts fit under
    `capacity_w`: every home at one level, any of L1-L5 if smart, L1 or L5
    if not. The last-hour exemption is a policy rule, not a limit of the
    grid, so the bound leaves it out.

    This is the LP relaxation of that multiple-choice knapsack, solved
    greedily (Sinha & Zoltners 1979): each home's points (watts, utility)
    at its levels are cut to their upper concave hull, walked from L1, and
    the hull segments of all homes are bought by falling utility per watt
    until the capacity is spent, the last one in part. The connected
    appliances of the levels nest, so a home's watts do not fall with its
    level. Raises ValueError if the homes cannot all fit even at L1."""
    watts = fleet.level_watts.astype(np.float64)  # its slopes and sums need float64
    n = len(watts)
    if (np.diff(watts, axis=1) < 0).any():
        raise ValueError("a home draws less at a higher level")
    gains = np.array([utility(lv, params) for lv in PowerLevel])
    points = np.broadcast_to(gains, watts.shape).copy()
    points[~fleet.smart, 1:4] = -np.inf  # a non-smart home is on or off
    rows, columns = np.arange(n), np.arange(len(PowerLevel))
    at = np.zeros(n, dtype=np.intp)  # each home's hull point so far, from L1
    dws, dus = [], []
    for _ in range(len(PowerLevel) - 1):  # gift wrapping over each home's points
        dw = watts - watts[rows, at][:, None]
        du = points - points[rows, at][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(dw > 0, du / dw, np.where(du > 0, np.inf, -np.inf))
        slope[columns <= at[:, None]] = -np.inf
        best = slope.max(axis=1)
        on = best > 0  # a hull segment that gains utility
        nxt = len(PowerLevel) - 1 - np.argmax((slope == best[:, None])[:, ::-1], axis=1)  # farthest of ties
        dws.append(dw[rows, nxt][on])
        dus.append(du[rows, nxt][on])
        at = np.where(on, nxt, at)
    dw, du = np.concatenate(dws), np.concatenate(dus)
    with np.errstate(divide="ignore"):
        order = np.argsort(-np.where(dw > 0, du / dw, np.inf), kind="stable")
    dw, du = dw[order], du[order]
    budget = capacity_w - float(watts[:, 0].sum())
    if budget < 0:
        raise ValueError("the homes draw more than the capacity even at L1")
    spent = np.cumsum(dw)
    full = int(np.searchsorted(spent, budget, side="right"))  # segments bought whole
    total = n * gains[0] + float(du[:full].sum())
    if full < dw.size:
        total += (budget - (spent[full - 1] if full else 0.0)) / dw[full] * du[full]
    return total / n


def set_hour_draws_reference(fleet: Fleet, homes: np.ndarray, draws) -> np.ndarray:
    """Reference of `homes.set_hour_draws` that takes every row's total and
    scales the rows over the meter rating down, whatever the class's rated
    draws sum to."""
    model = fleet.models[fleet.cls[homes[0]]]
    draws = np.minimum(np.asarray(draws, dtype=float), model.rated_draws)
    total = draws.sum(axis=1)
    rating = model.home_class.rating_w
    over = total > rating
    draws[over] *= (rating / total[over])[:, None]
    draws = np.floor(draws / QUANTUM_W) * QUANTUM_W
    fleet.level_watts[homes] = draws @ model.dm
    return draws


def sample_inverse_reference(cdf, u):
    """Reference of `consumption.sample_inverse` on one CDF: a binary search
    over the whole grid for each u, then the same interpolation."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr >= 0.0) & (u_arr < 1.0)):
        raise ValueError("u must lie in [0, 1)")
    u_1d = np.atleast_1d(u_arr)
    idx = np.searchsorted(cdf.grid_f, u_1d, side="left")
    out = cdf.grid_x[idx]
    mask = idx > 0
    i = idx[mask]
    f_lo = cdf.grid_f[i - 1]
    f_hi = cdf.grid_f[i]
    x_lo = cdf.grid_x[i - 1]
    x_hi = cdf.grid_x[i]
    out[mask] = x_lo + (u_1d[mask] - f_lo) / (f_hi - f_lo) * (x_hi - x_lo)
    return out if u_arr.ndim else float(out[0])


def class_stream_reference(n_homes: int, class_mix) -> list[str]:
    """Sort-based reference of the topology's class stream: each home takes
    the label with the largest quota deficit, ties to the lower label."""
    labels = sorted(HOME_CLASSES)
    counts = {c: 0 for c in labels}
    out = []
    for i in range(n_homes):
        deficits = [(class_mix[j] * (i + 1) - counts[c], c) for j, c in enumerate(labels)]
        deficits.sort(key=lambda t: (-t[0], t[1]))
        pick = deficits[0][1]
        counts[pick] += 1
        out.append(pick)
    return out


def alpha_grid(step: float = 0.1):
    """All (alpha_l4, alpha_l3, alpha_l2) on the grid that sum to 1."""
    n = round(1.0 / step)
    combos = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            combos.append((i * step, j * step, k * step))
    return combos


def check_branch_partition(model, sl_values) -> int:
    """Exhaustively drive the backoff branch logic.

    For every (alphas, sl, r) triple a fresh home must either receive
    exactly one of L4/L3/L2 (when r < sl) or stay put (when r >= sl).
    Returns the number of triples checked; raises AssertionError on any
    violation.
    """
    r = np.arange(1, 101)
    homes = np.arange(r.size)
    checked = 0
    for alphas in alpha_grid():
        dp = DistributionProfile(*alphas)
        for sl in sl_values:
            fleet = make_fleet(model, r.size)
            got = alg1_decisions(fleet, homes, float(sl), dp, False, r)
            backs = r < sl
            assert np.isin(got[backs], [PowerLevel.L4, PowerLevel.L3, PowerLevel.L2]).all(), (alphas, sl)
            assert (got[~backs] == 0).all(), (alphas, sl)
            checked += r.size
    return checked


def check_frame_round_trip() -> int:
    """encode/decode identity for all 32 relay patterns x 5 frame slots."""
    patterns = [tuple(bool(b >> k & 1) for k in range(5)) for b in range(32)]
    cases = 0
    for pattern, slot in product(patterns, range(5)):
        columns = [(False,) * 5] * 5
        columns = list(columns)
        columns[slot] = pattern
        frame = encode(columns)
        assert len(frame) == 5
        assert decode(frame, slot + 1) == pattern
        for other in range(5):
            if other != slot:
                assert decode(frame, other + 1) == (False,) * 5
        cases += 1
    return cases
