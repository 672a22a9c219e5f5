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

GRID_POINTS = 512
MANIFEST_NAME = "manifest.txt"

# Buckets of a guide table. A power of two, so int(u * GUIDE_BUCKETS) is
# exactly the bucket of u.
GUIDE_BUCKETS = 4096

# Bandwidth used when the rule of thumb degenerates (all samples equal).
_DEGENERATE_BANDWIDTH = 1e-2

# Most samples x grid elements `fit_cdf` evaluates at once. It bounds the
# fit's temporaries and changes no result (see `fit_cdf`).
FIT_BLOCK = 2**18


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


def fit_cdf(samples: ApplianceSamples) -> EmpiricalCdf:
    """Fit a Gaussian-KDE CDF to filtered samples, with the Silverman
    bandwidth h on GRID_POINTS grid points.

    The grid spans [max(0, min - 3h), max + 3h]; any density mass that the
    kernels place below zero watts (or beyond the grid) is clipped and the
    CDF renormalized, so negative draws are impossible. Raises ValueError,
    naming the appliance, if the readings are so large that the grid's
    points are not all distinct doubles.

    The kernel CDF is evaluated in blocks of grid columns of about
    FIT_BLOCK elements, never narrower than 2 columns, the last block
    included. NumPy sums each column of a block over the samples in order
    when the block has two or more columns, but sums a one-column block
    pairwise; so every split of at least 2 columns gives the bits of one
    block over the whole grid, and the bound sets only the memory.
    """
    from scipy.special import ndtr  # imported here: only fitting needs scipy

    values = np.asarray(samples.samples, dtype=float)
    if values.size == 0:
        raise ValueError("no samples")
    if np.any(values < 0):
        raise ValueError("negative sample")
    h = silverman_bandwidth(values)

    lo = max(0.0, float(values.min()) - 3.0 * h)
    hi = float(values.max()) + 3.0 * h
    grid = np.linspace(lo, hi, GRID_POINTS)
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(
            f"{samples.appliance_name}: readings too large for {GRID_POINTS} distinct grid points"
        )

    # Exact CDF of the kernel mixture, evaluated in column blocks to bound memory.
    raw = np.empty_like(grid)
    starts = list(range(0, grid.size, max(2, FIT_BLOCK // values.size)))
    if grid.size - starts[-1] < 2:  # the last block takes a lone last column
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [grid.size]):
        raw[start:stop] = ndtr((grid[None, start:stop] - values[:, None]) / h).mean(axis=0)

    span = raw[-1] - raw[0]
    f = (raw - raw[0]) / span
    f = np.maximum.accumulate(np.clip(f, 0.0, 1.0))
    f[0], f[-1] = 0.0, 1.0
    return EmpiricalCdf(grid_x=grid, grid_f=f, bandwidth=h)


@dataclass(frozen=True, eq=False)
class CdfTable:
    """Several CDFs' grids stacked, one row per CDF, with a guide table
    (Chen & Asau 1974) for inverting them.

    guide[j, b] is the index of the first point of CDF j whose F reaches
    b / GUIDE_BUCKETS, for b = 0 .. GUIDE_BUCKETS, stored in the smallest
    unsigned type that holds it. The first point with F >= u therefore
    lies between the entries of u's bucket and of the next bucket, which
    are at most `width` points apart: width is the most grid points any
    bucket of any CDF spans, max(diff(guide)). `stack` writes each CDF's
    `searchsorted` row straight into the small type and takes `width`
    from it, so it builds no table of intp entries.

    dx and df are each point's steps from the point before it in the
    flattened grids, x[i] - x[i - 1] and F[i] - F[i - 1], contiguous and
    flat: the doubles the inversion would otherwise subtract at every
    draw. A CDF's first point steps from the previous CDF's last (CDF 0's
    from the table's last point); a draw that lands on a first point
    gets the grid start instead.
    """

    grid_x: np.ndarray
    grid_f: np.ndarray
    guide: np.ndarray
    width: int
    dx: np.ndarray
    df: np.ndarray

    @classmethod
    def stack(cls, cdfs: list[EmpiricalCdf]) -> CdfTable:
        grid_x = np.stack([c.grid_x for c in cdfs])
        grid_f = np.stack([c.grid_f for c in cdfs])
        edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
        guide = np.empty((len(cdfs), edges.size), np.min_scalar_type(grid_f.shape[1]))
        for row, f in zip(guide, grid_f):
            row[:] = np.searchsorted(f, edges, side="left")
        width = int(np.diff(guide, axis=1).max())  # rows ascend, so no unsigned wrap
        flat_x, flat_f = grid_x.ravel(), grid_f.ravel()
        return cls(grid_x, grid_f, guide, width, flat_x - np.roll(flat_x, 1), flat_f - np.roll(flat_f, 1))


def sample_inverse(cdf: EmpiricalCdf | CdfTable, u, out: np.ndarray | None = None):
    """Generalized inverse: smallest grid x with F(x) >= u, interpolated
    linearly from the grid point before it. If that is the grid start (as
    for u = 0), the result is the grid start.

    With an EmpiricalCdf, `u` is a scalar or an array of quantiles in
    [0, 1) and the result has its shape. With a CdfTable, `u` is a
    (rows, CDFs) block whose column j is inverted through CDF j; the
    result is written to `out` when given, which may be `u` itself.
    """
    u_arr = np.asarray(u, dtype=float)
    if isinstance(cdf, CdfTable):
        if u_arr.ndim != 2 or u_arr.shape[1] != len(cdf.grid_f):
            raise ValueError(f"u must be a (rows, {len(cdf.grid_f)}) block")
        return _invert(cdf, u_arr, out)
    if out is not None:
        raise ValueError("out is taken with a CdfTable only")
    out = _invert(CdfTable.stack([cdf]), u_arr.reshape(-1, 1))
    return out.reshape(u_arr.shape) if u_arr.ndim else float(out[0, 0])


def _invert(table: CdfTable, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`sample_inverse` of a (rows, CDFs) block in one pass, into `out` if
    given. The temporaries grow with the block, so callers bound its rows.
    All of u is read before `out` is written, so `out` may be `u`.

    Each u starts at its bucket's guide entry g, which is the answer for
    most draws, and steps once while F there is below u. The few draws
    still short, in buckets holding two or more grid points, count in
    one pass the points below u among the `width` points from g on (the
    window clipped at the CDF's last point, where F = 1): the first point
    with F >= u lies at most `width` points past g, so g plus that count
    is the index `searchsorted` would find. The point i found is the first
    with F >= u, and the result is (u - F[i-1]) / df[i] * dx[i] + x[i-1]:
    the same operations in the same order on the same doubles as
    x[i-1] + (u - F[i-1]) / (F[i] - F[i-1]) * (x[i] - x[i-1]), so the same
    bits.
    """
    least = u.min(initial=1.0)  # the initial values let an empty u through
    if not (least >= 0.0 and u.max(initial=0.0) < 1.0):
        raise ValueError("u must lie in [0, 1)")
    n, points = table.grid_f.shape
    flat_x, flat_f = table.grid_x.ravel(), table.grid_f.ravel()
    starts = np.arange(n) * points
    # exact: GUIDE_BUCKETS is a power of two
    key = (u * GUIDE_BUCKETS).astype(np.intp) + np.arange(n) * (GUIDE_BUCKETS + 1)
    idx = table.guide.take(key) + starts
    idx += flat_f.take(idx) < u
    lag = np.flatnonzero(flat_f.take(idx) < u)
    if lag.size:
        first = idx.ravel()[lag] - 1  # the guide entry, stepped past above
        last = (lag % n + 1) * points - 1
        window = np.minimum(first[:, None] + np.arange(table.width), last[:, None])
        idx.ravel()[lag] = first + (flat_f.take(window) < u.ravel()[lag, None]).sum(axis=1)
    # the point before a grid start is another CDF's; fixed below
    before = idx - 1
    if out is None:
        out = np.empty(u.shape)
    np.subtract(u, flat_f.take(before), out=out)
    out /= table.df.take(idx)
    out *= table.dx.take(idx)
    out += flat_x.take(before)
    if least <= table.grid_f[:, 0].max():
        np.copyto(out, flat_x.take(idx), where=idx == starts)
    return out


def read_samples_file(path: Path | str) -> ApplianceSamples:
    """Read one appliance sample file (header line, then at least one finite,
    non-negative watt reading)."""
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
    if not values.size:
        raise ValueError(f"{path}: no readings")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite reading")
    if np.any(values < 0):
        raise ValueError(f"{path}: negative reading")
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
    """Load every class directory under `root` (found by its manifest).
    Raises ValueError if two manifests name one class."""
    root = Path(root)
    corpus: dict[str, list[ApplianceSamples]] = {}
    manifests: dict[str, Path] = {}
    for manifest in sorted(root.glob(f"*/{MANIFEST_NAME}")):
        label, samples = load_class_samples(manifest.parent)
        if label in manifests:
            raise ValueError(f"{manifests[label]} and {manifest} both name class {label}")
        corpus[label], manifests[label] = samples, manifest
    if not corpus:
        raise ValueError(f"no class manifests under {root}")
    return corpus
