"""Home power states and the household utility defined over them.

Every home is always in exactly one of five states, L1 through L5. L5 is
unrestricted consumption and L1 is a full disconnect; the intermediate
states admit 75/50/25 percent of the home's rated capacity.

`PowerLevel` is the public type of a level. Code that runs every policy
round takes the levels as plain ints in its NumPy calls: NumPy converts an
operand of an int subclass such as an `IntEnum` member by its slow scalar
path, which costs about five times a plain int's on a round's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property


class PowerLevel(IntEnum):
    L1 = 1
    L2 = 2
    L3 = 3
    L4 = 4
    L5 = 5


# The levels as plain ints for NumPy calls on the round path.
_L1, _L2, _L3, _L4, _L5 = map(int, PowerLevel)


# Admissible fraction of rated capacity per state.
CAP_FRACTION = {
    PowerLevel.L1: 0.0,
    PowerLevel.L2: 0.25,
    PowerLevel.L3: 0.5,
    PowerLevel.L4: 0.75,
    PowerLevel.L5: 1.0,
}


@dataclass(frozen=True)
class UtilityParams:
    """Thresholds of the piecewise household utility function.

    u_max is the utility of unrestricted power, th_u and th_l the upper and
    lower comfort thresholds assigned to L4 and L2.
    """

    u_max: float = 1.0
    th_u: float = 0.6
    th_l: float = 0.4

    def __post_init__(self) -> None:
        if not (self.u_max >= self.th_u >= self.th_l >= 0.0):
            raise ValueError("utility params must satisfy u_max >= th_u >= th_l >= 0")

    @cached_property
    def by_level(self) -> tuple[float, ...]:
        """The utilities of L1..L5, in that order; computed once per params."""
        return (0.0, self.th_l, (self.th_u + self.th_l) / 2.0, self.th_u, self.u_max)


def utility(level: int, params: UtilityParams) -> float:
    """Utility of one home held at `level` (any integer 1..5) for the hour."""
    return params.by_level[PowerLevel(level) - 1]
