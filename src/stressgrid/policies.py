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

Each policy is one step function, `step(state, k)`, with a round budget
(`POLICIES`). The engine calls it for k = 1, 2, ... within the hour while
served demand exceeds capacity and the budget lasts; everything the rounds
of one run share is in the one `RoundState`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .homes import Fleet, Home
from .levels import _L1, _L2, _L3, _L4, _L5, CAP_FRACTION, PowerLevel
from .protocol import CommandChannel

MIN_STRESS = 5.0
LATE_ROUNDS_PER_PASS = 5  # smart-home rounds after the first two

_LOWER_CAPS = np.array([CAP_FRACTION[lv] for lv in PowerLevel][:-1])  # L1..L4, ascending

# Most homes one chunk of a group walk holds (`_walk_chunks`); a larger group
# is a chunk alone. It bounds a walk's temporaries, not its results.
CHUNK_HOMES = 2048
# A group's span of sort keys in `_shed_chunk`: above any home's draw, which
# its meter rating caps, and a power of two, so that every key of draws in
# multiples of QUANTUM_W is exact; `_SPAN_W - watts`, at most 2**22 quanta,
# is exact in the float32 of `Fleet.level_watts` too.
_SPAN_W = 2.0**12


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
class RoundState:
    """What the policy rounds of one run read and write.

    `engine._play_hour` opens each hour: it sets `sl`, `capacity_w` and
    `served_w` to the hour's, and clears `emergency`. Each round lowers
    `served_w` by the watts its delivered commands shed, so it stays equal
    to a fresh sum of served demand; both are exact, as draws are multiples
    of `homes.QUANTUM_W`. `next_group` is the feeder group the next group
    walk starts from: each step moves it once, and it carries over from
    hour to hour.
    """

    fleet: Fleet
    dp: DistributionProfile
    reduction_factor: float
    rng: np.random.Generator
    channel: CommandChannel
    sl: float = 0.0
    capacity_w: float = 0.0
    served_w: float = 0.0
    emergency: bool = False
    next_group: int = 0


def _send(state: RoundState, homes: np.ndarray, levels, ends=None) -> int:
    """Command homes[j] to levels[j] (or every home to one level, which
    stays a scalar), in order, one `apply` call each, and lower `served_w`
    by the watts the delivered commands shed. The commands form consecutive
    units, possibly empty, that end at `ends`, ascending (None: one unit of
    all). The send ends after the first unit that leaves `served_w` at or
    under `capacity_w`; returns the number of units sent.

    The channel tells ahead which commands land, so one pass finds the
    units to send; the commands then go out through one `Home` handle,
    re-pointed at each command's home. Only exact `served_w - cumsum`
    sums, never a rounded `served_w - capacity_w`, meet capacity.
    """
    ends = [homes.size] if ends is None else ends
    if not len(ends):
        return 0
    fleet, channel = state.fleet, state.channel
    shed_w = fleet.watts(homes) - fleet.level_watts[homes, levels - 1]
    landed = channel.landing(homes.size)
    cum = np.zeros(homes.size + 1)  # the float32 shed watts accumulate in its float64
    np.cumsum(shed_w if landed is None else shed_w * landed, out=cum[1:])
    fits = (state.served_w - cum[ends] <= state.capacity_w).nonzero()[0]
    last = int(fits[0]) if fits.size else len(ends) - 1
    stop, home, apply = ends[last], Home(fleet, 0), channel.apply
    each = levels[:stop].tolist() if isinstance(levels, np.ndarray) else repeat(int(levels), stop)
    for home.id, level in zip(homes[:stop].tolist(), each):
        apply(home, level)
    state.served_w -= float(cum[stop])
    return last + 1


def _sheddable(fleet: Fleet, homes: np.ndarray, emergency: bool) -> np.ndarray:
    """Which of `homes` may be shed this hour (a mask over `homes`): every
    one under an emergency, else those not shed last hour."""
    return emergency | ~fleet.ls_lh[homes]


def _cuttable(state: RoundState, homes: np.ndarray) -> np.ndarray:
    """Mask of `homes` that are non-smart, not yet off and sheddable."""
    fleet = state.fleet
    return ~fleet.smart[homes] & (fleet.level[homes] != _L1) & _sheddable(fleet, homes, state.emergency)


def _walk_chunks(state: RoundState) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The feeder groups in walk order, round-robin from `next_group`, each
    at most once, in chunks of consecutive whole groups of at most
    CHUNK_HOMES homes, a larger group a chunk alone. Yields each chunk as
    (homes, ends): its homes in walk order and where each of its groups,
    empty ones included, ends among them. Yields the next chunk only while
    `served_w` exceeds `capacity_w`."""
    groups = state.fleet.groups
    order = groups[state.next_group :] + groups[: state.next_group]
    first = 0
    while first < len(order) and state.served_w > state.capacity_w:
        end, ends = first + 1, [order[first].size]
        while end < len(order) and ends[-1] + order[end].size <= CHUNK_HOMES:
            ends.append(ends[-1] + order[end].size)
            end += 1
        yield np.concatenate(order[first:end]), np.array(ends)
        first = end


def baseline_step(state: RoundState, k: int) -> None:
    """Cyclic blackout: cut whole groups, starting at `next_group`, until
    served demand fits under capacity, each chunk of `_walk_chunks` one
    `_send` with each group one unit. The hour's first round (k == 1)
    moves `next_group` on by one and later rounds leave it, so the burden
    rotates by one group per hour."""
    for homes, ends in _walk_chunks(state):
        _send(state, homes, _L1, ends)
    state.next_group = (state.next_group + (k == 1)) % len(state.fleet.groups)


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
    and allows L2 -> L1. The stored stresses are written into the gathered
    copy of the homes' sl_init, which is then scattered back whole.
    """
    if not fleet.smart[homes].all():
        raise ValueError("only smart homes run the backoff scheme")
    if r.min(initial=1) < 1 or r.max(initial=100) > 100:
        raise ValueError("r must lie in [1, 100]")
    level = fleet.level[homes]
    sl_init = fleet.sl_init[homes]
    done = fleet.dlc_done[homes]
    active = _sheddable(fleet, homes, emergency)

    fresh = active & ~done
    if sl < MIN_STRESS:
        eff = np.where(np.isnan(sl_init), MIN_STRESS, sl)
    else:
        eff = sl  # one stress for all stays a scalar
    backs = (fresh & (r < eff)).nonzero()[0]
    r_b = r[backs]
    eff_b = eff[backs] if isinstance(eff, np.ndarray) else eff
    pick = np.full(backs.size, _L2, dtype=np.int8)
    pick[(dp.alpha_l2 * eff_b < r_b) & (r_b < (dp.alpha_l3 + dp.alpha_l2) * eff_b)] = _L3
    pick[r_b > (1.0 - dp.alpha_l4) * eff_b] = _L4
    target = np.zeros(len(homes), dtype=np.int8)
    target[backs] = pick

    steps = active & done & (level != _L1) & (emergency | (r < sl_init))
    if not emergency:
        steps &= level != _L2
    target += (level - 1) * steps  # exact: steps and backs are disjoint, target is 0 off backs

    np.copyto(sl_init, eff, where=fresh)  # the gathered copy: the rest get back what was read
    fleet.sl_init[homes] = sl_init
    fleet.dlc_done[homes[backs]] = True
    return target


def cut_nonsmart_groups(state: RoundState) -> None:
    """Shut off non-smart homes group by group until served demand fits
    under capacity or every group has been tried. Homes shed last hour are
    skipped unless an emergency is in force. Each chunk of `_walk_chunks`
    is one `_send` of its `_cuttable` homes, each group one unit (a group's
    cuts change no other group's homes, so a chunk's are known up front).
    `next_group` moves past the groups tried, empty ones included."""
    sent = 0
    for homes, ends in _walk_chunks(state):
        keep = _cuttable(state, homes)
        sent += _send(state, homes[keep], _L1, np.concatenate(([0], np.cumsum(keep)))[ends])
    state.next_group = (state.next_group + sent) % len(state.fleet.groups)


def pass_rounds(n_groups: int) -> int:
    """Seconds in one distributed pass: a smart round, a non-smart round,
    then smart rounds, LATE_ROUNDS_PER_PASS plus one per feeder group."""
    return 2 + n_groups + LATE_ROUNDS_PER_PASS


def alg1_round(state: RoundState, k: int) -> None:
    """Round k of the hour in the distributed scheme (one second): round
    (k - 1) % n + 1 of a pass of n = pass_rounds rounds. A second pass,
    forced under emergency, runs if the first leaves the gap open.

    Round 1: every smart home draws and may back off at the broadcast sl.
    Round 2: the utility cuts non-smart groups while the gap persists.
    Rounds >= 3: backed-off homes step down against their stored stress;
    holdouts re-draw at the reduced stress reduction_factor * sl.
    Commands go out in home-id order, only to homes that change state;
    `served_w` falls by the watts the delivered ones shed.
    """
    n = pass_rounds(len(state.fleet.groups))
    if k > n:
        state.emergency = True
    round_index = (k - 1) % n + 1
    if round_index == 2:
        cut_nonsmart_groups(state)
        return
    fleet = state.fleet
    smart = fleet.smart_homes
    if not smart.size:
        return
    r = state.rng.integers(1, 101, size=smart.size)
    sl = state.sl
    if round_index >= 3:
        sl = state.reduction_factor * sl  # backed-off homes use their sl_init
    target = alg1_decisions(fleet, smart, sl, state.dp, state.emergency, r)
    moving = target.nonzero()[0]
    _send(state, smart[moving], target[moving])


def eligible_lower_runs(
    level: np.ndarray, consumption_fraction: np.ndarray, emergency: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The states each home may be stepped down to: those below its `level`
    whose cap sits strictly below its consumption fraction, limited to
    L4/L3/L2 without an emergency. As the caps rise with the state, these
    form the run top, top - 1, ..., top - count + 1; returns (top, count),
    with count <= 0 when no state is eligible."""
    top = np.minimum(level - 1, np.searchsorted(_LOWER_CAPS, consumption_fraction, side="left"))
    lowest = _L1 if emergency else _L2
    return top, top - lowest + 1


def _shed_chunk(state: RoundState, homes: np.ndarray, ends: np.ndarray) -> int:
    """Walk one chunk of `_walk_chunks`, its groups ending at `ends` among
    `homes`, as one `_send`; returns the groups reached: all of them unless
    served watts fit within the chunk.

    Each group sends its `_cuttable` homes as one unit, then each eligible
    smart step-down as a unit of its own, by (-watts, id). One stable sort
    on one float key orders them: the group's offset `group * _SPAN_W`, plus
    `_SPAN_W - watts` for a step. One draw call gives every step its state.
    If served watts fit within the chunk, the policy stream is set back to
    where the group-at-a-time walk leaves it: past the steps of the groups
    before the stopping group, and past that group's own unless its cut
    unit fitted.
    """
    fleet, emergency, rng = state.fleet, state.emergency, state.rng
    group = np.repeat(np.arange(ends.size), ends - np.concatenate(([0], ends[:-1])))
    watts = fleet.watts(homes)
    top, count = eligible_lower_runs(fleet.level[homes], watts / fleet.rating_w[fleet.cls[homes]], emergency)
    step = fleet.smart[homes] & _sheddable(fleet, homes, emergency) & (count > 0)
    picked = (_cuttable(state, homes) | step).nonzero()[0]
    key = group[picked] * _SPAN_W + np.where(step[picked], _SPAN_W - watts[picked], 0.0)
    picked = picked[np.argsort(key, kind="stable")]
    group, step = group[picked], step[picked]
    counts = count[picked][step]
    levels = np.full(picked.size, _L1, dtype=np.intp)
    saved = rng.bit_generator.state
    levels[step] = top[picked][step] - rng.integers(0, counts)
    steps = np.bincount(group[step], minlength=ends.size)
    firsts = np.arange(ends.size + 1) + np.concatenate(([0], np.cumsum(steps)))  # each group's cut unit
    sizes = np.ones(firsts[-1], dtype=np.intp)
    sizes[firsts[:-1]] = np.bincount(group[~step], minlength=ends.size)
    last = _send(state, homes[picked], levels, np.cumsum(sizes)) - 1
    if state.served_w > state.capacity_w:
        return ends.size
    stop = int(np.searchsorted(firsts, last, side="right")) - 1
    drew = stop + (last > firsts[stop])  # groups whose steps the walk draws
    made = firsts[drew] - drew  # their steps, one draw each
    if made < counts.size:
        rng.bit_generator.state = saved
        rng.integers(0, counts[:made])
    return stop + 1


def alg2_step(state: RoundState, k: int) -> None:
    """One centralized assignment pass while served_w exceeds capacity_w;
    every round k of the hour runs the same pass. A pass that leaves
    served demand above capacity raises the emergency flag.

    Groups are visited round-robin from `next_group`, each at most once. In
    each group every non-smart home is shut off first; while served demand
    still exceeds capacity the group's smart homes are stepped down in
    descending order of current consumption (ties to the lower home id),
    each to a state drawn uniformly from its eligible lower states, until
    served demand fits. Homes shed last hour are skipped unless emergency.
    `next_group` advances past every group visited. The walk goes in the
    chunks of `_walk_chunks`, one `_send` and one draw call per chunk
    (`_shed_chunk`); its commands, draws and policy stream are those of
    the group-at-a-time walk.
    """
    reached = sum(_shed_chunk(state, homes, ends) for homes, ends in _walk_chunks(state))
    state.next_group = (state.next_group + reached) % len(state.fleet.groups)
    if state.served_w > state.capacity_w:
        state.emergency = True


def reset_hourly(fleet: Fleet) -> None:
    """Hour boundary: remember who was shed, restore everyone to L5 and
    clear the backoff state."""
    fleet.ls_lh[:] = fleet.level < _L5
    fleet.level[:] = _L5
    fleet.dlc_done[:] = False
    fleet.sl_init[:] = np.nan


class Policy(NamedTuple):
    round: Callable[[RoundState, int], None]  # round k (1-based) of the hour
    max_rounds: Callable[[int], int]  # rounds allowed per hour, by feeder group count


# Each round looks its step up as a module global at call time: a span tracer
# patches module globals, so a stored function object would hide the steps.
POLICIES = {
    "baseline": Policy(lambda state, k: baseline_step(state, k), pass_rounds),
    "distributed": Policy(
        lambda state, k: alg1_round(state, k), lambda n_groups: 2 * pass_rounds(n_groups)
    ),
    "centralized": Policy(lambda state, k: alg2_step(state, k), lambda n_groups: 3),
}
