"""Load-shedding policies.

Three ways to close the gap between demand and supply each hour:

* baseline: the utility blacks out whole feeder groups in rotation.
* distributed: smart homes run a stochastic backoff against the broadcast
  stress level, the utility only cuts non-smart groups as a second resort,
  and the two sides alternate one-second rounds until demand is met.
* centralized: the utility computes the whole assignment at once, cutting
  non-smart homes first, then stepping down the biggest smart consumers
  group by group.

All three leave homes alone once the hour has converged. Homes shed in the
previous hour are exempt this hour unless an emergency is declared.

Each policy is a round function `round(state, k)` with a round budget
(`POLICIES`). The engine calls it for k = 1, 2, ... within the hour while
served demand exceeds capacity and the budget lasts; everything the rounds
of one run share is in the one `RoundState`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .homes import Fleet, Home
from .levels import CAP_FRACTION, PowerLevel
from .protocol import CommandChannel
from .topology import Topology, served_demand

MIN_STRESS = 5.0
LATE_ROUNDS_PER_PASS = 5  # smart-home rounds after the first two

_LOWER_CAPS = np.array([CAP_FRACTION[lv] for lv in PowerLevel][:-1])  # L1..L4, ascending


@dataclass(frozen=True)
class DistributionProfile:
    """Fractions of backing-off homes aimed at L4/L3/L2; must sum to 1."""

    alpha_l4: float
    alpha_l3: float
    alpha_l2: float

    def __post_init__(self) -> None:
        for a in (self.alpha_l4, self.alpha_l3, self.alpha_l2):
            if not 0.0 <= a <= 1.0:
                raise ValueError("distribution profile entries must lie in [0, 1]")
        if abs(self.alpha_l4 + self.alpha_l3 + self.alpha_l2 - 1.0) > 1e-9:
            raise ValueError("distribution profile must sum to 1")


@dataclass
class BaselineRotation:
    next_group_index: int = 0


def _walk_groups(
    topology: Topology,
    rotation: BaselineRotation,
    left: float,
    limit: float,
    shed: Callable[[np.ndarray, float], float],
) -> tuple[float, int]:
    """Visit the feeder groups round-robin from the rotation pointer, each at
    most once, while `left` exceeds `limit`; `shed(members, left)` sheds in
    one group and returns the new `left`. Returns (left, groups visited)."""
    groups = topology.group_members
    start = rotation.next_group_index
    visited = 0
    while visited < len(groups) and left > limit:
        left = shed(groups[(start + visited) % len(groups)], left)
        visited += 1
    return left, visited


def _switch_off(fleet: Fleet, homes: np.ndarray, left_w: float, channel: CommandChannel) -> float:
    """Command each of `homes`, in id order, to L1; returns `left_w` less
    the watts of every home whose command was delivered."""
    for i, watts in zip(homes.tolist(), fleet.watts(homes).tolist()):
        if channel.apply(Home(fleet, i), PowerLevel.L1):
            left_w -= watts
    return left_w


def _cuttable(fleet: Fleet, homes: np.ndarray, emergency: bool) -> np.ndarray:
    """The non-smart homes among `homes` not yet off, less those shed last
    hour unless an emergency is in force."""
    keep = ~fleet.smart[homes] & (fleet.level[homes] != PowerLevel.L1)
    if not emergency:
        keep &= ~fleet.ls_lh[homes]
    return homes[keep]


def baseline_step(
    rotation: BaselineRotation,
    topology: Topology,
    capacity_w: float,
    channel: CommandChannel,
    advance: bool = True,
) -> None:
    """Cyclic blackout: cut whole groups, starting at the rotation index,
    until served demand fits under capacity. The index advances by one per
    hour so the burden rotates."""
    fleet = topology.fleet
    _walk_groups(
        topology, rotation, served_demand(topology), capacity_w,
        lambda members, served: _switch_off(fleet, members, served, channel),
    )
    if advance:
        rotation.next_group_index = (rotation.next_group_index + 1) % len(topology.group_members)


def alg1_decisions(
    fleet: Fleet,
    homes: np.ndarray,
    sl: float,
    dp: DistributionProfile,
    emergency: bool,
    r: np.ndarray,
) -> np.ndarray:
    """Backoff decisions of the smart `homes` against stress level `sl`.

    r[j] is homes[j]'s fresh random integer in [1, 100]. Returns the state
    each home decides to move to, or 0 to stay put. A home's first
    evaluation in an hour clamps sl to at least MIN_STRESS and every
    evaluation before the home has backed off stores the stress it used
    (sl_init), which later rounds reuse as the step-down threshold. Once
    backed off, the home steps down one state per successful draw, never
    below L2; an emergency voids the last-hour exemption, forces the step
    and allows L2 -> L1.
    """
    if not fleet.smart[homes].all():
        raise ValueError("only smart homes run the backoff scheme")
    if np.any((r < 1) | (r > 100)):
        raise ValueError("r must lie in [1, 100]")
    level = fleet.level[homes]
    sl_init = fleet.sl_init[homes]
    done = fleet.dlc_done[homes]
    active = np.full(len(homes), True) if emergency else ~fleet.ls_lh[homes]

    fresh = active & ~done
    eff = np.where(np.isnan(sl_init) & (sl < MIN_STRESS), MIN_STRESS, sl)
    backs = fresh & (r < eff)
    l3 = (dp.alpha_l2 * eff < r) & (r < (dp.alpha_l3 + dp.alpha_l2) * eff)
    target = np.where(r > (1.0 - dp.alpha_l4) * eff, PowerLevel.L4, np.where(l3, PowerLevel.L3, PowerLevel.L2))
    target[~backs] = 0

    steps = active & done & (level != PowerLevel.L1) & (emergency | (r < sl_init))
    if not emergency:
        steps &= level != PowerLevel.L2
    target[steps] = level[steps] - 1

    fleet.sl_init[homes[fresh]] = eff[fresh]
    fleet.dlc_done[homes[backs]] = True
    return target


def cut_nonsmart_groups(
    topology: Topology,
    rotation: BaselineRotation,
    capacity_w: float,
    emergency: bool,
    channel: CommandChannel,
) -> None:
    """Shut off non-smart homes group by group until the gap closes or
    every group has been tried. Homes shed last hour are skipped unless an
    emergency is in force. The rotation pointer moves past tried groups."""
    fleet = topology.fleet
    _, tried = _walk_groups(
        topology, rotation, served_demand(topology), capacity_w,
        lambda members, served: _switch_off(
            fleet, _cuttable(fleet, members, emergency), served, channel
        ),
    )
    rotation.next_group_index = (rotation.next_group_index + tried) % len(topology.group_members)


def alg1_round(
    topology: Topology,
    round_index: int,
    dp: DistributionProfile,
    sl: float,
    capacity_w: float,
    rotation: BaselineRotation,
    emergency: bool,
    rng: np.random.Generator,
    channel: CommandChannel,
    reduction_factor: float,
) -> None:
    """One ping-pong round of the distributed scheme (one second).

    Round 1: every smart home draws and may back off at the broadcast sl.
    Round 2: the utility cuts non-smart groups while the gap persists.
    Rounds >= 3: backed-off homes step down against their stored stress;
    holdouts re-draw at the reduced stress reduction_factor * sl.
    Commands go out in home-id order, only to homes that change state.
    """
    if round_index == 2:
        cut_nonsmart_groups(topology, rotation, capacity_w, emergency, channel)
        return
    fleet = topology.fleet
    smart = np.flatnonzero(fleet.smart)
    if not smart.size:
        return
    r = rng.integers(1, 101, size=smart.size)
    if round_index >= 3:
        sl = reduction_factor * sl  # backed-off homes use their sl_init
    target = alg1_decisions(fleet, smart, sl, dp, emergency, r)
    moving = np.flatnonzero(target)
    for i, level in zip(smart[moving].tolist(), target[moving].tolist()):
        channel.apply(Home(fleet, i), level)


def eligible_lower_runs(
    level: np.ndarray, consumption_fraction: np.ndarray, emergency: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The states each home may be stepped down to: those below its `level`
    whose cap sits strictly below its consumption fraction, limited to
    L4/L3/L2 without an emergency. As the caps rise with the state, these
    form the run top, top - 1, ..., top - count + 1; returns (top, count),
    with count <= 0 when no state is eligible."""
    top = np.minimum(level - 1, np.searchsorted(_LOWER_CAPS, consumption_fraction, side="left"))
    lowest = PowerLevel.L1 if emergency else PowerLevel.L2
    return top, top - lowest + 1


def _step_down_batch(
    fleet: Fleet,
    candidates: np.ndarray,
    watts: np.ndarray,
    top: np.ndarray,
    count: np.ndarray,
    gap: float,
    rng: np.random.Generator,
    channel: CommandChannel,
) -> float:
    """Step `candidates` down in order while `gap` stays positive, each to a
    state drawn from its run (top, count) of eligible states; a command that
    the channel loses closes none of the gap. Returns the gap left.

    One draw call covers the group: it draws a step for every eligible
    candidate and looks ahead at each command's delivery, finds where the
    gap closes, then rewinds the stream and draws again exactly the steps
    used. `rng.integers(0, k_array)` gives the values and the end state of
    one scalar call per entry, so the stream ends where a loop of one draw
    per command would leave it; `apply` redraws each delivery in order.
    """
    eligible = count > 0
    candidates, watts, top, count = candidates[eligible], watts[eligible], top[eligible], count[eligible]
    if gap <= 0 or not candidates.size:
        return gap
    start = rng.bit_generator.state
    new = top - rng.integers(0, count)
    shed_w = watts - fleet.level_watts[candidates, new - 1]
    shed_w[~channel.next_deliveries(candidates.size)] = 0.0  # gap - 0.0 keeps its bits
    # subtract.accumulate runs in sequence, so every partial gap has the loop's bits
    left = np.subtract.accumulate(np.concatenate(([gap], shed_w)))
    closed = np.flatnonzero(left[1:] <= 0)
    used = int(closed[0]) + 1 if closed.size else candidates.size
    if used < candidates.size:
        rng.bit_generator.state = start
        rng.integers(0, count[:used])
    for i, level in zip(candidates[:used].tolist(), new[:used].tolist()):
        channel.apply(Home(fleet, i), level)
    return float(left[used])


def alg2_step(
    topology: Topology,
    delta_gap_w: float,
    rotation: BaselineRotation,
    rng: np.random.Generator,
    channel: CommandChannel,
    emergency: bool = False,
) -> bool:
    """One centralized assignment pass; returns True when the gap closed.

    Groups are visited round-robin. In each group every non-smart home is
    shut off first; while the gap persists the group's smart homes are
    stepped down in descending order of current consumption (ties to the
    lower home id), each to a state drawn uniformly from its eligible lower
    states. Homes shed last hour are skipped unless emergency. The rotation
    pointer advances past every group visited.
    """
    fleet = topology.fleet
    rating_w = np.array([np.nan if m is None else m.home_class.rating_w for m in fleet.models])

    def shed(members: np.ndarray, gap: float) -> float:
        gap = _switch_off(fleet, _cuttable(fleet, members, emergency), gap, channel)
        candidates = members[fleet.smart[members] & (emergency | ~fleet.ls_lh[members])]
        watts = fleet.watts(candidates)
        order = np.lexsort((candidates, -watts))
        candidates, watts = candidates[order], watts[order]
        top, count = eligible_lower_runs(
            fleet.level[candidates], watts / rating_w[fleet.cls[candidates]], emergency
        )
        return _step_down_batch(fleet, candidates, watts, top, count, gap, rng, channel)

    gap, visited = _walk_groups(topology, rotation, delta_gap_w, 0.0, shed)
    rotation.next_group_index = (rotation.next_group_index + visited) % len(topology.group_members)
    return gap <= 0


def reset_hourly(fleet: Fleet) -> None:
    """Hour boundary: remember who was shed, restore everyone to L5 and
    clear the backoff state."""
    fleet.ls_lh[:] = fleet.level < PowerLevel.L5
    fleet.level[:] = PowerLevel.L5
    fleet.dlc_done[:] = False
    fleet.sl_init[:] = np.nan


@dataclass
class RoundState:
    """What the policy rounds of one run read and write. The engine sets
    `sl` and `capacity_w` at each hour boundary, `served_w` after every
    convergence check, and clears `emergency` each hour."""

    topology: Topology
    dp: DistributionProfile
    reduction_factor: float
    rng: np.random.Generator
    channel: CommandChannel
    rotation: BaselineRotation = field(default_factory=BaselineRotation)
    sl: float = 0.0
    capacity_w: float = 0.0
    served_w: float = 0.0
    emergency: bool = False


def pass_rounds(n_groups: int) -> int:
    """Seconds in one distributed pass: a smart round, a non-smart round,
    then smart rounds, LATE_ROUNDS_PER_PASS plus one per feeder group."""
    return 2 + n_groups + LATE_ROUNDS_PER_PASS


def baseline_round(state: RoundState, k: int) -> None:
    """Cyclic whole-group blackout; only the hour's first round moves the
    rotation on."""
    baseline_step(state.rotation, state.topology, state.capacity_w, state.channel, advance=k == 1)


def distributed_round(state: RoundState, k: int) -> None:
    """In-home stochastic backoff with utility-side group cuts; a second,
    forced pass runs under emergency if the first leaves the gap open."""
    n = pass_rounds(len(state.topology.group_members))
    if k > n:
        state.emergency = True
    alg1_round(
        state.topology, (k - 1) % n + 1, state.dp, state.sl, state.capacity_w, state.rotation,
        state.emergency, state.rng, state.channel, state.reduction_factor,
    )


def centralized_round(state: RoundState, k: int) -> None:
    """Utility-computed assignment, one full pass per second; a pass that
    leaves the gap open raises the emergency flag."""
    gap_w = state.served_w - state.capacity_w
    if not alg2_step(state.topology, gap_w, state.rotation, state.rng, state.channel, state.emergency):
        state.emergency = True


class Policy(NamedTuple):
    round: Callable[[RoundState, int], None]  # round k (1-based) of the hour
    max_rounds: Callable[[int], int]  # rounds allowed per hour, by feeder group count


POLICIES = {
    "baseline": Policy(baseline_round, pass_rounds),
    "distributed": Policy(distributed_round, lambda n_groups: 2 * pass_rounds(n_groups)),
    "centralized": Policy(centralized_round, lambda n_groups: 3),
}
