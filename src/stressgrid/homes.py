"""Home model: classes, disconnectivity matrices and the fleet of homes.

A home class fixes the meter rating and appliance count. The class's
disconnectivity matrix (DM) records which appliances stay connected at
each power state so that the rated draw of whatever stays connected fits
under the state's cap. Appliance rated draw is the 95th percentile of its
fitted distribution.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .consumption import CdfTable, EmpiricalCdf, sample_inverse
from .levels import CAP_FRACTION, PowerLevel

RATED_QUANTILE = 0.95

# Installed draws are whole multiples of this many watts, so every sum of
# them below 2**43 W is exact in float64, whatever the order of summation.
QUANTUM_W = 2.0**-10


@dataclass(frozen=True)
class HomeClass:
    label: str
    rating_w: float
    appliance_count: int


HOME_CLASSES = {
    "A": HomeClass("A", 500.0, 7),
    "B": HomeClass("B", 750.0, 10),
    "C": HomeClass("C", 1000.0, 13),
}

_RESTRICTED = (PowerLevel.L2, PowerLevel.L3, PowerLevel.L4)


def build_dm(home_class: HomeClass, appliance_ratings) -> np.ndarray:
    """The DM as an (appliances x 5) bool array: column k marks the
    appliances connected at state L(k+1), so row a is the relay pattern
    of appliance a's device. L1 connects none and L5 all; at L2-L4 the
    largest-rated appliances are disconnected first until the remaining
    rated sum fits under the state's cap, ties keeping the lower index
    connected.
    """
    ratings = np.asarray(appliance_ratings, dtype=float)
    if ratings.size != home_class.appliance_count:
        raise ValueError(
            f"class {home_class.label} expects {home_class.appliance_count} "
            f"appliances, got {ratings.size}"
        )
    if np.any(ratings < 0):
        raise ValueError("negative appliance rating")
    order = sorted(range(ratings.size), key=lambda i: (-ratings[i], -i))
    dm = np.zeros((ratings.size, len(PowerLevel)), dtype=bool)
    dm[:, PowerLevel.L2 - 1 :] = True
    for level in _RESTRICTED:
        cap = CAP_FRACTION[level] * home_class.rating_w
        remaining = float(ratings.sum())
        for i in order:
            if remaining <= cap:
                break
            dm[i, level - 1] = False
            remaining -= ratings[i]
    return dm


@dataclass
class ClassModel:
    """Fitted per-class artifacts shared by every home of the class."""

    home_class: HomeClass
    cdfs: list[EmpiricalCdf]
    table: CdfTable  # the cdfs stacked, for drawing every appliance at once
    rated_draws: np.ndarray
    dm: np.ndarray  # (n_appliances, 5) bool, see build_dm

    @property
    def n_appliances(self) -> int:
        return self.home_class.appliance_count


def check_appliance_count(label: str, count: int) -> None:
    """Raise ValueError unless home class `label` has `count` appliances."""
    expected = HOME_CLASSES[label].appliance_count
    if count != expected:
        raise ValueError(f"class {label} manifest lists {count} appliances, expected {expected}")


def build_class_model(label: str, cdfs: list[EmpiricalCdf]) -> ClassModel:
    """The class model of one home class from its appliances' fitted CDFs
    (one per appliance, else ValueError): their guide table, rated draws and DM."""
    check_appliance_count(label, len(cdfs))
    home_class = HOME_CLASSES[label]
    table = CdfTable.stack(cdfs)
    rated = sample_inverse(table, np.full((1, len(cdfs)), RATED_QUANTILE))[0]
    return ClassModel(
        home_class=home_class,
        cdfs=cdfs,
        table=table,
        rated_draws=rated,
        dm=build_dm(home_class, rated),
    )


@dataclass(eq=False, slots=True)
class Fleet:
    """The grid: state of every home, one array entry per home id, and the
    home ids of each feeder group (`groups`, each ascending).

    `models[cls[i]]` is home i's class model (None for a class no home
    has); `build_topology` passes its cached, read-only `uint8` class
    stream as `cls`, one byte per home. `smart` marks homes equipped with
    the in-home multi-level controller; the rest can only be switched off
    wholesale at the meter.
    `level` is a home's current power state and `level_watts[i, k]` what it
    draws this hour at state L(k+1) (NaN until the hour's draws are set).
    ls_lh, dlc_done and sl_init (NaN for unset) belong to the distributed
    backoff scheme. Derived once: `smart_homes` and `class_homes[c]` (the
    ids of the smart homes and of class c's homes, ascending) and
    `rating_w[c]` (class c's meter rating, NaN for a class no home has).
    """

    models: tuple[ClassModel | None, ...]
    cls: np.ndarray
    smart: np.ndarray
    groups: list[np.ndarray]
    level_watts: np.ndarray = field(init=False, repr=False)
    smart_homes: np.ndarray = field(init=False, repr=False)
    class_homes: list[np.ndarray] = field(init=False, repr=False)
    rating_w: np.ndarray = field(init=False, repr=False)
    level: np.ndarray = field(init=False)
    ls_lh: np.ndarray = field(init=False)
    dlc_done: np.ndarray = field(init=False)
    sl_init: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.level_watts = np.full((len(self.cls), len(PowerLevel)), np.nan)
        self.smart_homes = np.flatnonzero(self.smart)
        self.class_homes = [np.flatnonzero(self.cls == c) for c in range(len(self.models))]
        self.rating_w = np.array([np.nan if m is None else m.home_class.rating_w for m in self.models])
        self._reset_states()

    def _reset_states(self) -> None:
        n = len(self.cls)
        self.level = np.full(n, PowerLevel.L5, dtype=np.int8)
        self.ls_lh = np.zeros(n, dtype=bool)
        self.dlc_done = np.zeros(n, dtype=bool)
        self.sl_init = np.full(n, np.nan)

    def __len__(self) -> int:
        return len(self.cls)

    def sibling(self) -> Fleet:
        """Another run's fleet on the same grid: every array shared, this
        hour's draws too, but its own states at L5 and backoff state unset."""
        other = copy.copy(self)
        other._reset_states()
        return other

    def watts(self, homes) -> np.ndarray:
        """What `homes` draw at their current states."""
        return self.level_watts[homes, self.level[homes] - 1]


@dataclass(slots=True)
class Home:
    """Handle on one home of a fleet: what a power-state command addresses.

    A sender may re-point one handle at each home in turn (set `id`), so a
    channel reads it only during `apply` and must not keep it. A channel
    writes `fleet.level[id]`; `current_level` only reads it."""

    fleet: Fleet
    id: int

    @property
    def current_level(self) -> PowerLevel:
        return PowerLevel(int(self.fleet.level[self.id]))


def set_hour_draws(fleet: Fleet, homes: np.ndarray, draws) -> np.ndarray:
    """Install this hour's appliance draws of `homes`, which share a class;
    row j of `draws` belongs to homes[j]. Returns the installed draws.

    Draws are clamped at each appliance's rated value (the rating is what
    the state caps are guaranteed against), scaled down in proportion if
    the total would exceed the meter rating, then floored to a multiple of
    QUANTUM_W, which keeps both caps. The totals are taken only for a
    class whose rated draws sum above its meter rating: rounded addition is
    monotone, so a clamped row, summed by the same reduction in the same
    order, cannot sum above the rated draws. A float64 `draws` array is
    changed in place, so it must not be a view of state that is kept, such
    as a model's rated draws. The watts at each state are the connected
    appliances' draws summed, exactly.
    """
    model = fleet.models[fleet.cls[homes[0]]]
    draws = np.asarray(draws, dtype=float)
    np.minimum(draws, model.rated_draws, out=draws)
    rating = model.home_class.rating_w
    if model.rated_draws[None].sum(axis=1)[0] > rating:
        total = draws.sum(axis=1)
        over = total > rating
        draws[over] *= (rating / total[over])[:, None]
    draws /= QUANTUM_W
    np.floor(draws, out=draws)
    draws *= QUANTUM_W
    fleet.level_watts[homes] = draws @ model.dm
    return draws
