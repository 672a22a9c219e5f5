"""Stochastic appliance consumption models.

Each appliance is modeled from a corpus of observed power readings: the
readings are filtered for outliers, a Gaussian-kernel density estimate is
fitted, and the density is integrated into a CDF tabulated on a dense grid.
Hourly average draws are then produced by inverse transform sampling.

The sample-file format is plain text: a header line ``appliance,<name>``
followed by one watt reading per line. A class directory holds one file per
appliance plus a ``manifest.txt`` whose first line is ``class,<A|B|C>`` and
whose remaining lines name the appliance files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

GRID_POINTS = 512
MANIFEST_NAME = "manifest.txt"

# Bandwidth used when the rule of thumb degenerates (all samples equal).
_DEGENERATE_BANDWIDTH = 1e-2


@dataclass
class ApplianceSamples:
    """Observed power readings (watts) for one appliance."""

    appliance_name: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)


@dataclass
class EmpiricalCdf:
    """Smoothed CDF of an appliance's draw, tabulated on a monotone grid."""

    grid_x: np.ndarray
    grid_f: np.ndarray
    bandwidth: float

    @property
    def support_min(self) -> float:
        return float(self.grid_x[0])

    @property
    def support_max(self) -> float:
        return float(self.grid_x[-1])

    def cdf_at(self, x):
        """F(x) by linear interpolation on the grid."""
        return np.interp(x, self.grid_x, self.grid_f)


def filter_outliers(samples: ApplianceSamples) -> ApplianceSamples:
    """Drop readings more than three standard deviations above the mean.

    Only the upper tail is filtered: transient spikes inflate the corpus but
    low readings are legitimate idle states. Mean and deviation are computed
    on the raw input. The result keeps the original ordering and, for finite
    readings, is never empty (the minimum can never exceed mean + 3 sigma).
    """
    values = samples.samples
    if values.size == 0:
        raise ValueError("no samples")
    threshold = values.mean() + 3.0 * values.std()
    return ApplianceSamples(samples.appliance_name, values[values <= threshold])


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb kernel width: 0.9 * min(sigma, IQR/1.34) * n^(-1/5)."""
    n = values.size
    sigma = float(values.std())
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    h = 0.9 * spread * n ** (-0.2)
    return h if h > 0 else _DEGENERATE_BANDWIDTH


def fit_cdf(
    samples: ApplianceSamples,
    bandwidth: float | None = None,
    grid_points: int = GRID_POINTS,
) -> EmpiricalCdf:
    """Fit a Gaussian-KDE CDF to filtered samples.

    The grid spans [max(0, min - 3h), max + 3h]; any density mass that the
    kernels place below zero watts (or beyond the grid) is clipped and the
    CDF renormalized, so negative draws are impossible.
    """
    values = np.asarray(samples.samples, dtype=float)
    if values.size == 0:
        raise ValueError("no samples")
    if np.any(values < 0):
        raise ValueError("negative sample")
    if bandwidth is None:
        h = silverman_bandwidth(values)
    else:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        h = float(bandwidth)
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")

    lo = max(0.0, float(values.min()) - 3.0 * h)
    hi = float(values.max()) + 3.0 * h
    if hi <= lo:
        hi = lo + max(h, _DEGENERATE_BANDWIDTH)
    grid = np.linspace(lo, hi, grid_points)

    # Exact CDF of the kernel mixture, evaluated columnwise to bound memory.
    raw = np.empty_like(grid)
    chunk = max(1, int(4_000_000 / max(values.size, 1)))
    for start in range(0, grid.size, chunk):
        block = grid[start : start + chunk]
        raw[start : start + chunk] = ndtr(
            (block[None, :] - values[:, None]) / h
        ).mean(axis=0)

    span = raw[-1] - raw[0]
    f = (raw - raw[0]) / span
    f = np.maximum.accumulate(np.clip(f, 0.0, 1.0))
    f[0], f[-1] = 0.0, 1.0
    return EmpiricalCdf(grid_x=grid, grid_f=f, bandwidth=h)


def sample_inverse(cdf: EmpiricalCdf, u):
    """Generalized inverse: smallest grid x with F(x) >= u, interpolated.

    Accepts a scalar or an array of quantiles in [0, 1).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr >= 0.0) & (u_arr < 1.0)):
        raise ValueError("u must lie in [0, 1)")
    u_1d = np.atleast_1d(u_arr)
    # grid_f ends at 1 > u, so every index is on the grid
    idx = np.searchsorted(cdf.grid_f, u_1d, side="left")
    out = cdf.grid_x[idx]  # u = 0 (index 0) maps to the grid start
    # linear interpolation between the bracketing grid points
    mask = idx > 0
    i = idx[mask]
    f_lo = cdf.grid_f[i - 1]
    f_hi = cdf.grid_f[i]
    x_lo = cdf.grid_x[i - 1]
    x_hi = cdf.grid_x[i]
    out[mask] = x_lo + (u_1d[mask] - f_lo) / (f_hi - f_lo) * (x_hi - x_lo)
    return out if u_arr.ndim else float(out[0])


def read_samples_file(path: Path | str) -> ApplianceSamples:
    """Read one appliance sample file (header line, then watt readings)."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("appliance,"):
        raise ValueError(f"{path}: missing 'appliance,<name>' header")
    name = lines[0].split(",", 1)[1].strip()
    if not name:
        raise ValueError(f"{path}: empty appliance name")
    try:
        values = np.array([float(s) for s in lines[1:] if s.strip()])
    except ValueError as exc:
        raise ValueError(f"{path}: bad reading ({exc})") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite reading")
    return ApplianceSamples(name, values)


def load_class_samples(class_dir: Path | str) -> tuple[str, list[ApplianceSamples]]:
    """Load one class directory via its manifest; returns (label, samples)."""
    class_dir = Path(class_dir)
    manifest = class_dir / MANIFEST_NAME
    lines = [s.strip() for s in manifest.read_text().splitlines() if s.strip()]
    if not lines or not lines[0].startswith("class,"):
        raise ValueError(f"{manifest}: missing 'class,<A|B|C>' header")
    label = lines[0].split(",", 1)[1].strip()
    if label not in ("A", "B", "C"):
        raise ValueError(f"{manifest}: unknown class {label!r}")
    samples = [read_samples_file(class_dir / name) for name in lines[1:]]
    return label, samples


def load_corpus(root: Path | str) -> dict[str, list[ApplianceSamples]]:
    """Load every class directory under `root` (found by its manifest)."""
    root = Path(root)
    corpus: dict[str, list[ApplianceSamples]] = {}
    for manifest in sorted(root.glob(f"*/{MANIFEST_NAME}")):
        label, samples = load_class_samples(manifest.parent)
        corpus[label] = samples
    if not corpus:
        raise ValueError(f"no class manifests under {root}")
    return corpus
