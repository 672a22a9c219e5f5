"""Home model: classes, disconnectivity matrices and the fleet of homes.

A home class fixes the meter rating and appliance count. The class's
disconnectivity matrix (DM) records which appliances are switched off at
each restricted power state so that the rated draw of whatever stays
connected fits under the state's cap. Appliance rated draw is the 95th
percentile of its fitted distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .consumption import ApplianceSamples, CdfTable, EmpiricalCdf, filter_outliers, fit_cdf, sample_inverse
from .levels import CAP_FRACTION, PowerLevel

RATED_QUANTILE = 0.95


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


@dataclass(frozen=True)
class DisconnectivityMatrix:
    """Appliance indices disconnected at each restricted level."""

    disconnected: dict[PowerLevel, frozenset[int]]

    def connected_mask(self, level: PowerLevel, n_appliances: int) -> np.ndarray:
        mask = np.ones(n_appliances, dtype=bool)
        if level is PowerLevel.L1:
            mask[:] = False
        elif level in self.disconnected:
            mask[list(self.disconnected[level])] = False
        return mask


def build_dm(home_class: HomeClass, appliance_ratings) -> DisconnectivityMatrix:
    """Greedy DM construction: disconnect largest-rated appliances first
    until the remaining rated sum fits under each level's cap. Ties are
    broken so the lower appliance index stays connected.
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
    disconnected: dict[PowerLevel, frozenset[int]] = {}
    for level in _RESTRICTED:
        cap = CAP_FRACTION[level] * home_class.rating_w
        remaining = float(ratings.sum())
        cut: set[int] = set()
        for i in order:
            if remaining <= cap:
                break
            cut.add(i)
            remaining -= ratings[i]
        disconnected[level] = frozenset(cut)
    return DisconnectivityMatrix(disconnected)


@dataclass
class ClassModel:
    """Fitted per-class artifacts shared by every home of the class."""

    home_class: HomeClass
    appliance_names: list[str]
    cdfs: list[EmpiricalCdf]
    table: CdfTable  # the cdfs stacked, for drawing every appliance at once
    rated_draws: np.ndarray
    dm: DisconnectivityMatrix
    conn_matrix: np.ndarray  # (n_appliances, 5) 0/1, column per level

    @property
    def n_appliances(self) -> int:
        return self.home_class.appliance_count


def build_class_model(
    label: str,
    samples: list[ApplianceSamples],
    bandwidth: float | None = None,
) -> ClassModel:
    """Filter, fit and derive the DM for one home class."""
    home_class = HOME_CLASSES[label]
    if len(samples) != home_class.appliance_count:
        raise ValueError(
            f"class {label} manifest lists {len(samples)} appliances, "
            f"expected {home_class.appliance_count}"
        )
    filtered = [filter_outliers(s) for s in samples]
    cdfs = [fit_cdf(s, bandwidth=bandwidth) for s in filtered]
    table = CdfTable.stack(cdfs)
    rated = sample_inverse(table, np.full((1, len(cdfs)), RATED_QUANTILE))[0]
    dm = build_dm(home_class, rated)
    conn = np.zeros((home_class.appliance_count, 5))
    for level in PowerLevel:
        conn[:, level - 1] = dm.connected_mask(level, home_class.appliance_count)
    return ClassModel(
        home_class=home_class,
        appliance_names=[s.appliance_name for s in filtered],
        cdfs=cdfs,
        table=table,
        rated_draws=rated,
        dm=dm,
        conn_matrix=conn,
    )


@dataclass(eq=False)
class Fleet:
    """State of every home, one array entry per home id.

    `models[cls[i]]` is home i's class model (None for a class no home
    has). `smart` marks homes equipped with the in-home multi-level
    controller; the rest can only be switched off wholesale at the meter.
    `group` is the home's feeder group. `level` is its current power state
    and `level_watts[i, k]` what it draws this hour at state L(k+1) (NaN
    until the hour's draws are set). ls_lh, dlc_done and sl_init (NaN for
    unset) belong to the distributed backoff scheme.
    """

    models: tuple[ClassModel | None, ...]
    cls: np.ndarray
    smart: np.ndarray
    group: np.ndarray
    level: np.ndarray = field(init=False)
    level_watts: np.ndarray = field(init=False, repr=False)
    ls_lh: np.ndarray = field(init=False)
    dlc_done: np.ndarray = field(init=False)
    sl_init: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.cls)
        self.level = np.full(n, PowerLevel.L5, dtype=np.int8)
        self.level_watts = np.full((n, len(PowerLevel)), np.nan)
        self.ls_lh = np.zeros(n, dtype=bool)
        self.dlc_done = np.zeros(n, dtype=bool)
        self.sl_init = np.full(n, np.nan)

    def __len__(self) -> int:
        return len(self.cls)

    def watts(self, homes) -> np.ndarray:
        """What `homes` draw at their current states."""
        return self.level_watts[homes, self.level[homes] - 1]


@dataclass(slots=True)
class Home:
    """Handle on one home of a fleet: what a power-state command addresses."""

    fleet: Fleet
    id: int

    @property
    def current_level(self) -> PowerLevel:
        return PowerLevel(int(self.fleet.level[self.id]))

    @current_level.setter
    def current_level(self, level: PowerLevel) -> None:
        self.fleet.level[self.id] = level


def set_hour_draws(fleet: Fleet, homes: np.ndarray, draws) -> np.ndarray:
    """Install this hour's appliance draws of `homes`, which share a class;
    row j of `draws` belongs to homes[j]. Returns the installed draws.

    Draws are clamped at each appliance's rated value (the rating is what
    the state caps are guaranteed against) and scaled down in proportion if
    the total would exceed the meter rating. The watts at each state are
    the connected appliances' draws summed in index order.
    """
    model = fleet.models[fleet.cls[homes[0]]]
    draws = np.minimum(np.asarray(draws, dtype=float), model.rated_draws)
    total = draws.sum(axis=1)
    rating = model.home_class.rating_w
    over = total > rating
    draws[over] *= (rating / total[over])[:, None]
    columns = np.ascontiguousarray(draws.T)
    watts = np.zeros((len(PowerLevel), len(draws)))
    for row, connected in zip(watts, model.conn_matrix.T):
        for a in np.flatnonzero(connected):
            row += columns[a]
    fleet.level_watts[homes] = watts.T
    return draws
