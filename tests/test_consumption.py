"""Consumption model tests.

Expected values for the derived cases are frozen from independent oracles:
plain-Python arithmetic for the outlier threshold, the raw empirical CDF
and quantiles of the input samples for the fitted curves, and the filtered
sample mean for the draw statistics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import helpers
from stressgrid.consumption import (
    GRID_POINTS,
    GUIDE_BUCKETS,
    ApplianceSamples,
    CdfTable,
    EmpiricalCdf,
    filter_outliers,
    fit_cdf,
    load_class_samples,
    load_corpus,
    read_samples_file,
    sample_inverse,
    silverman_bandwidth,
)
from stressgrid.corpus import synthetic_samples, write_synthetic_corpus
from stressgrid.engine import BLOCK_ROWS


def make(values, name="x"):
    return ApplianceSamples(name, np.asarray(values, dtype=float))


class TestFilterOutliers:
    def test_constant_input_unchanged(self):
        out = filter_outliers(make([1.0] * 5))
        assert out.samples.tolist() == [1.0] * 5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            filter_outliers(make([]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reading_rejected_by_name(self, bad):
        """A NaN mean or deviation would drop every reading, so that the fit
        failed later with a "no samples" that named nothing."""
        with pytest.raises(ValueError, match="fan: non-finite reading"):
            filter_outliers(make([1.0, bad, 3.0], name="fan"))

    def test_single_spike_removed(self):
        # Oracle in plain Python: mean and population stdev of the
        # 101-sample list, computed without numpy.
        values = [50.0] * 100 + [5000.0]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        threshold = mean + 3.0 * var**0.5
        assert threshold == pytest.approx(1569.31, abs=0.01)
        assert 5000.0 > threshold and 50.0 <= threshold

        out = filter_outliers(make(values))
        assert out.samples.tolist() == [50.0] * 100

    def test_is_upper_tail_only(self):
        # Low readings survive even when far below the mean.
        values = [0.0] + [500.0] * 50
        out = filter_outliers(make(values))
        assert 0.0 in out.samples

    def test_order_preserved(self):
        values = [10.0, 9000.0, 20.0, 30.0] + [25.0] * 200
        out = filter_outliers(make(values))
        assert out.samples[0] == 10.0
        assert out.samples[1] == 20.0
        assert out.samples[2] == 30.0


class TestFitCdf:
    def test_monotone_grid_and_endpoints(self):
        rng = np.random.default_rng(1)
        cdf = fit_cdf(make(rng.uniform(100, 200, 2000)))
        assert np.all(np.diff(cdf.grid_f) >= 0)
        assert cdf.grid_f[0] == 0.0
        assert cdf.grid_f[-1] == 1.0
        assert cdf.grid_x.size >= 512
        assert cdf.grid_x[0] >= 0.0

    def test_uniform_midpoint(self):
        # Oracle: brute-force empirical CDF of the raw draws.
        rng = np.random.default_rng(2)
        values = rng.uniform(100, 200, 10000)
        empirical_at_150 = float(np.mean(values <= 150.0))
        cdf = fit_cdf(make(values))
        f_150 = np.interp(150.0, cdf.grid_x, cdf.grid_f)
        assert f_150 == pytest.approx(0.5, abs=0.05)
        assert f_150 == pytest.approx(empirical_at_150, abs=0.02)

    def test_bimodal_two_rises(self):
        # Half off (0 W), half on (60 W); raw quantiles are the oracle.
        values = np.array([0.0] * 500 + [60.0] * 500)
        cdf = fit_cdf(make(values))
        lo = sample_inverse(cdf, 0.1)
        hi = sample_inverse(cdf, 0.9)
        assert abs(lo - np.quantile(values, 0.1)) <= 3 * cdf.bandwidth + 1.0
        assert abs(hi - np.quantile(values, 0.9)) <= 3 * cdf.bandwidth + 1.0
        # the plateau between the modes is flat: little mass near 30 W
        f_25, f_35 = np.interp([25.0, 35.0], cdf.grid_x, cdf.grid_f)
        assert f_35 - f_25 < 0.05

    def test_degenerate_steep_step(self):
        cdf = fit_cdf(make([42.0] * 100))
        assert sample_inverse(cdf, 0.5) == pytest.approx(42.0, abs=cdf.bandwidth)

    def test_negative_mass_clipped(self):
        # Samples hugging zero would leak density below 0 W unclipped.
        cdf = fit_cdf(make([0.0, 0.5, 1.0] * 50))
        assert cdf.grid_x[0] == 0.0
        assert np.interp(0.0, cdf.grid_x, cdf.grid_f) == 0.0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="fan: negative sample"):
            fit_cdf(make([-1.0, 2.0], name="fan"))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="fan: no samples"):
            fit_cdf(make([], name="fan"))

    def test_collapsed_grid_rejected(self):
        # 3h either side of 1e15 W is below half a double's spacing there
        with pytest.raises(ValueError, match="huge: readings too large"):
            fit_cdf(make([1e15] * 50, name="huge"))

    def test_silverman_positive_on_degenerate(self):
        assert silverman_bandwidth(np.array([5.0] * 10)) > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reading_rejected(self, bad):
        with pytest.raises(ValueError, match="fan: non-finite reading"):
            fit_cdf(make([1.0, bad, 3.0], name="fan"))

    def test_close_to_the_exact_fit(self):
        """The binned fit has the exact fit's grid and bandwidth bits. Its
        CDF is within 1e-4 of the exact one on the bundled corpus and on
        skewed sets whose grid step dx is at most h / 10. On heavy tails,
        where dx nears h, it stays within the linear-binning bound: each
        binned kernel CDF is off by at most e = (dx/h)^2 max|phi'| / 8,
        and the renormalization over a span s >= Phi(3) - 1/2 turns that
        into at most 4e / (s - 2e), below (dx/h)^2 / 3 for dx <= h."""
        rng = np.random.default_rng(17)
        bimodal = np.concatenate([np.abs(rng.normal(10, 1, 500)), rng.normal(500, 5, 500)])
        fine = [filter_outliers(s) for group in synthetic_samples().values() for s in group] + [
            make(rng.gamma(2.0, 100.0, 3000), "gamma 2"),
            make(rng.lognormal(3.0, 0.5, 2000), "lognormal 0.5"),
            make(bimodal, "bimodal"),
            make(rng.uniform(0, 100, 5), "5 uniform"),
        ]
        heavy = [
            make(rng.exponential(100.0, 2000), "exponential"),
            make(rng.gamma(0.5, 100.0, 3000), "gamma 0.5"),
            make(rng.lognormal(3.0, 1.2, 2000), "lognormal 1.2"),
            make(100.0 * rng.pareto(3.0, 2000), "pareto 3"),
        ]

        def step_and_error(samples):
            cdf, exact = fit_cdf(samples), helpers.fit_cdf_exact_reference(samples)
            assert (bits(cdf.grid_x) == bits(exact.grid_x)).all()
            assert bits(cdf.bandwidth) == bits(exact.bandwidth)
            dx = (cdf.grid_x[-1] - cdf.grid_x[0]) / (GRID_POINTS - 1)
            return dx / cdf.bandwidth, np.abs(cdf.grid_f - exact.grid_f).max()

        for samples in fine:
            dx_h, error = step_and_error(samples)
            assert dx_h <= 0.1 and error <= 1e-4, samples.appliance_name
        for samples in heavy:
            dx_h, error = step_and_error(samples)
            assert dx_h <= 1.0 and error <= dx_h**2 / 3, samples.appliance_name


@pytest.fixture(scope="module")
def uniform_cdf():
    rng = np.random.default_rng(3)
    return fit_cdf(make(rng.uniform(100, 200, 10000)))


class TestSampleInverse:

    def test_u_zero_is_support_min(self, uniform_cdf):
        assert sample_inverse(uniform_cdf, 0.0) == uniform_cdf.grid_x[0]

    def test_monotone_in_u(self, uniform_cdf):
        us = np.linspace(0.0, 0.999, 200)
        xs = sample_inverse(uniform_cdf, us)
        assert np.all(np.diff(xs) >= 0)

    def test_median_of_uniform(self, uniform_cdf):
        # Analytic quantile of the source distribution.
        assert sample_inverse(uniform_cdf, 0.5) == pytest.approx(150.0, abs=5.0)

    def test_generalized_inverse_property(self, uniform_cdf):
        for u in (0.01, 0.25, 0.5, 0.75, 0.99):
            x = sample_inverse(uniform_cdf, u)
            assert np.interp(x, uniform_cdf.grid_x, uniform_cdf.grid_f) >= u - 1e-6
            below = uniform_cdf.grid_x[uniform_cdf.grid_x < x - 1e-12]
            if below.size:
                assert np.interp(below[-1], uniform_cdf.grid_x, uniform_cdf.grid_f) < u + 1e-6

    def test_domain_errors(self, uniform_cdf):
        with pytest.raises(ValueError):
            sample_inverse(uniform_cdf, 1.0)
        with pytest.raises(ValueError):
            sample_inverse(uniform_cdf, -0.1)

    def test_array_matches_scalar(self, uniform_cdf):
        us = np.array([0.0, 0.2, 0.7, 0.95])
        arr = sample_inverse(uniform_cdf, us)
        scalars = [sample_inverse(uniform_cdf, float(u)) for u in us]
        assert arr.tolist() == pytest.approx(scalars)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def inverse_cdfs(uniform_cdf, class_models):
    """Every builtin appliance CDF, fitted plateaus and steps, and grids
    with long flat runs or a first point above F = 0."""
    plateau = np.concatenate([np.linspace(0.0, 0.5, 10), np.full(200, 0.5), np.linspace(0.5, 1.0, 10)])
    return [
        fit_cdf(make([42.0] * 100)),  # the degenerate steep step
        uniform_cdf,
        fit_cdf(make([0.0] * 500 + [60.0] * 500)),  # two modes, flat between
        EmpiricalCdf(np.arange(plateau.size, dtype=float), plateau, 1.0),
        EmpiricalCdf(np.arange(7.0), np.array([0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0]), 1.0),
        *(cdf for model in class_models.values() for cdf in model.cdfs),
    ]


# Bucket edges b / K, the largest doubles below them, and zero.
EDGE_QUANTILES = st.one_of(
    st.just(0.0),
    st.integers(0, GUIDE_BUCKETS - 1).map(lambda b: b / GUIDE_BUCKETS),
    st.integers(1, GUIDE_BUCKETS - 1).map(lambda b: float(np.nextafter(b / GUIDE_BUCKETS, 0.0))),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_inverse_matches_reference_bit_for_bit(inverse_cdfs, data):
    cdf = data.draw(st.sampled_from(inverse_cdfs))
    on_grid = st.sampled_from(cdf.grid_f[cdf.grid_f < 1.0].tolist())
    quantile = st.one_of(st.floats(0.0, 1.0, exclude_max=True), EDGE_QUANTILES, on_grid)
    u = np.array(data.draw(st.lists(quantile, min_size=1, max_size=64)))
    want = helpers.sample_inverse_reference(cdf, u)
    assert (bits(sample_inverse(cdf, u)) == bits(want)).all()
    column = sample_inverse(CdfTable.stack([cdf, cdf]), np.column_stack([u[::-1], u]))[:, 1]
    assert (bits(column) == bits(want)).all()


class TestCdfTable:
    def test_every_edge_and_grid_value_matches_reference(self, inverse_cdfs):
        edges = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        below = np.nextafter(edges[1:], 0.0)
        random = np.random.default_rng(11).random(1000)
        for cdf in inverse_cdfs:
            u = np.concatenate([edges, below, cdf.grid_f[cdf.grid_f < 1.0], random])
            want = helpers.sample_inverse_reference(cdf, u)
            assert (bits(sample_inverse(cdf, u)) == bits(want)).all()

    def test_class_block_matches_reference_per_column(self, class_models):
        rng = np.random.default_rng(12)
        for model in class_models.values():
            u = rng.random((300, model.n_appliances))
            u[0] = 0.0
            u[1] = [cdf.grid_f[100] for cdf in model.cdfs]
            got = sample_inverse(model.table, u)
            for j, cdf in enumerate(model.cdfs):
                assert (bits(got[:, j]) == bits(helpers.sample_inverse_reference(cdf, u[:, j]))).all()

    def test_block_matches_one_home_at_a_time(self, class_models):
        model = class_models["C"]
        u = np.random.default_rng(15).random((BLOCK_ROWS + 1, model.n_appliances))
        u[0, 0] = u[BLOCK_ROWS, -1] = 0.0  # grid starts in both of the engine's blocks
        block = sample_inverse(model.table, u)
        rows = np.vstack([sample_inverse(model.table, row[None]) for row in u])
        assert (bits(block) == bits(rows)).all()
        # inverted in place, as the hourly redraw does
        assert sample_inverse(model.table, u, out=u) is u
        assert (bits(u) == bits(block)).all()
        with pytest.raises(ValueError, match="CdfTable only"):
            sample_inverse(model.cdfs[0], 0.5, out=np.empty(1))

    def test_search_path_matches_reference(self, uniform_cdf):
        """Draws in buckets holding two or more grid points, past the guide
        entry's one step, go to the per-CDF search. A steep CDF between two
        smooth ones holds many such buckets in a middle row, and a row with
        a plateau of equal F inside one bucket tells the first point at F
        from the last. Every column also gets u = 0, whose point is its
        row's start, and every grid F."""
        smooth = fit_cdf(make(np.random.default_rng(13).normal(80, 10, 2000)))
        edge, step = 1000 / GUIDE_BUCKETS, 2.0**-30  # five steps stay in bucket 1000
        points = uniform_cdf.grid_f.size  # stacked rows share a grid size
        plateau = [0.0, *(edge + k * step for k in (1, 2, 3, 4, 4, 4, 5))]
        plateau += np.linspace(0.5, 1.0, points - len(plateau)).tolist()
        cdfs = [
            uniform_cdf,
            fit_cdf(make([42.0] * 100)),
            EmpiricalCdf(np.arange(points, dtype=float), np.array(plateau), 1.0),
            smooth,
        ]
        table = CdfTable.stack(cdfs)
        rng = np.random.default_rng(14)
        below_one = np.nextafter(1.0, 0.0)
        u = np.concatenate([
            [0.0, below_one],
            *(cdf.grid_f[cdf.grid_f < 1.0] for cdf in cdfs),
            rng.random(300) / GUIDE_BUCKETS,  # first bucket
            np.minimum((GUIDE_BUCKETS - 1 + rng.random(300)) / GUIDE_BUCKETS, below_one),  # last
            rng.random(1000),
        ])
        block = np.column_stack([rng.permutation(u) for _ in cdfs])
        got = sample_inverse(table, block)
        searched = []
        for j, cdf in enumerate(cdfs):
            want = helpers.sample_inverse_reference(cdf, block[:, j])
            assert (bits(got[:, j]) == bits(want)).all(), j
            bucket = (block[:, j] * GUIDE_BUCKETS).astype(np.intp)
            beyond_step = np.searchsorted(cdf.grid_f, block[:, j]) > table.guide[j, bucket].astype(np.intp) + 1
            searched.append(int(beyond_step.sum()))
        assert min(searched) > 0, searched
        assert (np.where(block == 0.0, got, table.grid_x[:, 0]) == table.grid_x[:, 0]).all()

    def test_widest_bucket_window_matches_reference(self, class_models):
        """A flat run of most of the grid inside one bucket makes `width`
        near GRID_POINTS. A draw just below the next bucket's edge needs
        the whole window, and in a CDF whose run sits in the top bucket
        the window runs past the CDF's last point, so it is clipped there
        rather than read from the next row."""
        run = 2.0**-22 * np.arange(GRID_POINTS - 40)  # inside one bucket
        middle = np.concatenate([np.linspace(0.0, 0.5, 20, endpoint=False), 0.5 + run, np.linspace(0.6, 1.0, 20)])
        top = 1.0 - 1.0 / GUIDE_BUCKETS
        end = np.concatenate([np.linspace(0.0, top, 111, endpoint=False), top + run[:400], [1.0]])
        x = np.arange(GRID_POINTS, dtype=float)
        cdfs = [EmpiricalCdf(x, middle, 1.0), EmpiricalCdf(x, end, 1.0), class_models["C"].cdfs[0]]
        table = CdfTable.stack(cdfs)
        assert table.width == np.diff(table.guide.astype(np.intp), axis=1).max() == GRID_POINTS - 40

        rng = np.random.default_rng(16)
        edges = np.array([0.5, top, 1.0])
        u = np.concatenate([
            [0.0, *edges[:2], *np.nextafter(edges, 0.0)],
            *(cdf.grid_f[cdf.grid_f < 1.0] for cdf in cdfs),
            0.5 + rng.random(300) / GUIDE_BUCKETS,  # the middle row's run
            np.minimum(top + rng.random(300) / GUIDE_BUCKETS, np.nextafter(1.0, 0.0)),  # the end row's
            rng.random(300),
        ])
        block = np.column_stack([rng.permutation(u) for _ in cdfs])
        got = sample_inverse(table, block)
        for j, cdf in enumerate(cdfs):
            assert (bits(got[:, j]) == bits(helpers.sample_inverse_reference(cdf, block[:, j]))).all(), j

    def test_guide_entries_start_each_bucket(self, uniform_cdf):
        table = CdfTable.stack([uniform_cdf, uniform_cdf])
        edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
        assert table.guide.shape == (2, GUIDE_BUCKETS + 1)
        assert (table.guide == np.searchsorted(uniform_cdf.grid_f, edges)).all()
        assert table.guide.dtype == np.uint16  # 512 grid points

    def test_small_grid_gets_byte_guide(self):
        """Fewer than 256 points give a uint8 guide, with the entries and
        `width` of a guide built as intp and narrowed afterwards."""
        points = 200
        x = np.arange(points, dtype=float)
        ragged = np.concatenate([[0.0, 0.0], np.sort(np.random.default_rng(18).random(points - 5)), [0.5, 0.5, 1.0]])
        cdfs = [EmpiricalCdf(x, ragged, 1.0), EmpiricalCdf(x, np.linspace(0.0, 1.0, points), 1.0)]
        table = CdfTable.stack(cdfs)
        edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
        want = np.stack([np.searchsorted(c.grid_f, edges, side="left") for c in cdfs])
        assert table.guide.dtype == np.uint8
        assert (table.guide == want).all()
        assert table.width == int(np.diff(want, axis=1).max())

    def test_bad_blocks_rejected(self, class_models):
        model = class_models["A"]
        n = model.n_appliances
        for u in (np.full((2, n), 1.0), np.full((2, n), np.nan), np.full((2, n), -0.5)):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                sample_inverse(model.table, u)
        for u in (np.zeros(n), np.zeros((2, n + 1))):
            with pytest.raises(ValueError, match="block"):
                sample_inverse(model.table, u)


class TestHourlyDraw:
    def test_deterministic_given_seed(self):
        cdf = fit_cdf(make(np.random.default_rng(4).normal(80, 10, 2000)))
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        seq1 = sample_inverse(cdf, rng1.random(10))
        seq2 = sample_inverse(cdf, rng2.random(10))
        assert seq1.tolist() == seq2.tolist()

    def test_mean_tracks_source(self):
        # Oracle: the mean of the (already inlier) input samples.
        rng = np.random.default_rng(6)
        values = rng.normal(100, 15, 3000).clip(min=0)
        filtered = filter_outliers(make(values))
        cdf = fit_cdf(filtered)
        draw_rng = np.random.default_rng(7)
        draws = sample_inverse(cdf, draw_rng.random(10000))
        source_mean = float(filtered.samples.mean())
        assert abs(float(draws.mean()) - source_mean) / source_mean <= 0.05

    def test_ks_distance_small(self):
        rng = np.random.default_rng(8)
        values = rng.normal(60, 12, 3000).clip(min=0)
        filtered = filter_outliers(make(values))
        cdf = fit_cdf(filtered)
        draws = sample_inverse(cdf, np.random.default_rng(9).random(10000))
        ks = stats.ks_2samp(draws, filtered.samples).statistic
        assert ks <= 0.05

    def test_degenerate_draws_hug_constant(self):
        cdf = fit_cdf(make([42.0] * 50))
        rng = np.random.default_rng(10)
        draws = sample_inverse(cdf, rng.random(500))
        assert np.all(np.abs(draws - 42.0) <= 4 * cdf.bandwidth)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "fan.txt"
        p.write_text("appliance,fan\n10.5\n20\n30.25\n")
        got = read_samples_file(p)
        assert got.appliance_name == "fan"
        assert got.samples.tolist() == [10.5, 20.0, 30.25]

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("10\n20\n")
        with pytest.raises(ValueError, match="header"):
            read_samples_file(p)

    def test_bad_reading(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("appliance,fan\nten\n")
        with pytest.raises(ValueError, match="bad reading"):
            read_samples_file(p)

    @pytest.mark.parametrize("body, problem", [
        ("10\n-5.0\n", "negative reading"),  # fit_cdf would raise at the first fit
        ("\n", "no readings"),  # so would filter_outliers
    ])
    def test_unfittable_readings_name_file(self, tmp_path, body, problem):
        p = tmp_path / "fan.txt"
        p.write_text("appliance,fan\n" + body)
        with pytest.raises(ValueError, match=f"fan.txt: {problem}"):
            read_samples_file(p)

    def test_class_manifest(self, tmp_path):
        d = tmp_path / "class_a"
        d.mkdir()
        (d / "fan.txt").write_text("appliance,fan\n10\n")
        (d / "manifest.txt").write_text("class,A\nfan.txt\n")
        label, samples = load_class_samples(d)
        assert label == "A"
        assert [s.appliance_name for s in samples] == ["fan"]

    def test_unknown_class_label(self, tmp_path):
        d = tmp_path / "class_x"
        d.mkdir()
        (d / "manifest.txt").write_text("class,X\n")
        with pytest.raises(ValueError, match="unknown class"):
            load_class_samples(d)

    def test_empty_corpus_root(self, tmp_path):
        with pytest.raises(ValueError, match="no class manifests"):
            load_corpus(tmp_path)

    def test_non_finite_reading_names_file(self, tmp_path):
        # one nan would make the appliance's CDF all-NaN, and every draw with it
        path = write_synthetic_corpus(tmp_path) / "class_b" / "refrigerator.txt"
        path.write_text(path.read_text() + "nan\n")
        with pytest.raises(ValueError, match=f"{path.name}: non-finite reading"):
            load_corpus(tmp_path)


def test_cdf_type_accessors():
    cdf = EmpiricalCdf(
        grid_x=np.array([0.0, 1.0, 2.0]),
        grid_f=np.array([0.0, 0.5, 1.0]),
        bandwidth=0.1,
    )
    assert cdf.grid_x[0] == 0.0
    assert cdf.grid_x[-1] == 2.0
    assert np.interp(1.5, cdf.grid_x, cdf.grid_f) == pytest.approx(0.75)
