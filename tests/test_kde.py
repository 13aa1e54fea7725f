"""Unit tests for the distribution primitives (repro.core.kde)."""
import tracemalloc

import numpy as np
import pytest

from repro.core.kde import EPS, PDF_CHUNK_ROWS, GaussianKDE


def _rng(seed):
    return np.random.default_rng(seed)


#: Samples the grid must follow: smooth, skewed, heavy-tailed, far apart,
#: clustered, one extreme outlier, tiny, constant and integer-valued.
GRID_SAMPLES = {
    "normal": lambda: _rng(20).normal(3.0, 2.0, 4000),
    "lognormal": lambda: _rng(21).lognormal(0.0, 1.0, 3000),
    "pareto": lambda: _rng(22).pareto(1.5, 2000) + 1.0,
    "far_bimodal": lambda: np.concatenate([_rng(23).normal(0, 0.5, 1000), _rng(24).normal(500, 0.5, 1000)]),
    "point_clusters": lambda: _rng(25).choice([1.0, 1.5, 4.0, 9.0], 800) + _rng(26).normal(0, 1e-3, 800),
    "one_outlier": lambda: np.append(_rng(27).normal(0, 1, 999), 1e6),
    "n8": lambda: _rng(28).normal(10, 3, 8),
    "constant": lambda: np.full(50, 7.0),
    "integers": lambda: _rng(29).poisson(4.0, 2000).astype(float),
}


class TestGaussianKDE:
    def test_fit_requires_data(self):
        with pytest.raises(ValueError):
            GaussianKDE.fit([])

    def test_fit_requires_finite(self):
        with pytest.raises(ValueError):
            GaussianKDE.fit([np.nan, np.inf])

    def test_pdf_integrates_to_one(self):
        kde = GaussianKDE.fit(np.random.default_rng(0).normal(10, 2, 500))
        xs = np.linspace(0, 20, 4001)
        integral = np.trapz(kde.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_pdf_peaks_near_mode(self):
        kde = GaussianKDE.fit(np.random.default_rng(1).normal(5.0, 1.0, 1000))
        xs = np.linspace(-5, 15, 2001)
        assert abs(xs[np.argmax(kde.pdf(xs))] - 5.0) < 0.5

    @pytest.mark.parametrize("mu,sd", [(0.0, 1.0), (13.7, 1.5), (100.0, 10.0)])
    def test_relative_likelihood_high_at_mode_low_in_tail(self, mu, sd):
        kde = GaussianKDE.fit(np.random.default_rng(2).normal(mu, sd, 800))
        at_mode = kde.relative_likelihood([mu])[0]
        in_tail = kde.relative_likelihood([mu + 10 * sd])[0]
        assert at_mode > 0.5
        assert in_tail < 1e-3
        assert in_tail >= EPS

    def test_relative_likelihood_bounded(self):
        kde = GaussianKDE.fit(np.random.default_rng(3).normal(0, 1, 300))
        vals = kde.relative_likelihood(np.linspace(-20, 20, 500))
        assert np.all(vals >= EPS) and np.all(vals <= 1.0)

    def test_degenerate_constant_sample(self):
        kde = GaussianKDE.fit(np.full(50, 7.0))
        assert kde.relative_likelihood([7.0])[0] == pytest.approx(1.0, rel=1e-6)
        assert kde.relative_likelihood([8.0])[0] < 1e-6

    def test_subsampling_is_deterministic(self):
        data = np.random.default_rng(5).normal(0, 1, 10_000)
        a = GaussianKDE.fit(data, max_points=256, seed=9)
        b = GaussianKDE.fit(data, max_points=256, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.points.size == 256

    def test_vectorized_matches_scalar(self):
        kde = GaussianKDE.fit(np.random.default_rng(6).normal(2, 0.5, 100))
        xs = np.array([1.0, 2.0, 3.0])
        batch = kde.pdf(xs)
        singles = [kde.pdf([x])[0] for x in xs]
        np.testing.assert_allclose(batch, singles)

    def test_chunked_pdf_matches_unchunked(self):
        kde = GaussianKDE.fit(np.random.default_rng(7).normal(0, 1, 50))
        xs = np.random.default_rng(8).normal(0, 1, 4 * PDF_CHUNK_ROWS + 17)  # spans chunks
        chunked = kde.pdf(xs)
        singles = np.concatenate([kde.pdf(xs[i : i + 1]) for i in range(0, xs.size, 97)])
        np.testing.assert_allclose(chunked[::97], singles)

    def test_bimodal_support(self):
        data = np.concatenate(
            [np.random.default_rng(9).normal(0, 0.3, 400),
             np.random.default_rng(10).normal(10, 0.3, 400)]
        )
        kde = GaussianKDE.fit(data)
        assert kde.relative_likelihood([0.0])[0] > 0.3
        assert kde.relative_likelihood([10.0])[0] > 0.3
        assert kde.relative_likelihood([5.0])[0] < 0.05

    def test_picklable(self):
        import pickle

        kde = GaussianKDE.fit(np.random.default_rng(11).normal(0, 1, 100))
        kde2 = pickle.loads(pickle.dumps(kde))
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(kde.pdf(x), kde2.pdf(x))


class TestGridKDE:
    """The interpolated ``relative_likelihood`` against the exact
    ``clip(pdf / max_pdf, EPS, 1)`` it tabulates."""

    @staticmethod
    def _queries(kde):
        lo, hi = kde.grid[0], kde.grid[-1]
        pad = 0.1 * (hi - lo)
        near = kde.points[:, None] + kde.bandwidth * np.linspace(-3, 3, 13)[None, :]
        return np.concatenate([
            np.linspace(lo - pad, hi + pad, 20_001),
            kde.points,
            near.ravel(),
            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)],
        ])

    @pytest.mark.parametrize("name", sorted(GRID_SAMPLES))
    def test_matches_exact_where_not_negligible(self, name):
        kde = GaussianKDE.fit(GRID_SAMPLES[name]())
        x = self._queries(kde)
        exact = np.clip(kde.pdf(x) / kde.max_pdf, EPS, 1.0)
        grid = kde.relative_likelihood(x)
        assert np.all((grid >= EPS) & (grid <= 1.0))
        big = exact >= 1e-6
        assert big.any()
        assert np.max(np.abs(np.log(grid[big]) - np.log(exact[big]))) <= 5e-3

    @pytest.mark.parametrize("name", sorted(GRID_SAMPLES))
    def test_off_grid_is_eps_like_exact(self, name):
        kde = GaussianKDE.fit(GRID_SAMPLES[name]())
        x = self._queries(kde)
        off = x[(x < kde.grid[0]) | (x > kde.grid[-1])]
        assert off.size > 0
        assert np.all(kde.relative_likelihood(off) == EPS)
        assert np.all(np.clip(kde.pdf(off) / kde.max_pdf, EPS, 1.0) == EPS)

    def test_grid_spacing_and_reach(self):
        kde = GaussianKDE.fit(GRID_SAMPLES["normal"]())
        h = kde.bandwidth
        assert np.diff(kde.grid).max() <= h / 32 * (1 + 1e-9)
        assert kde.grid[0] == pytest.approx(kde.points[0] - 8 * h)
        assert kde.grid[-1] == pytest.approx(kde.points[-1] + 8 * h)
        assert kde.grid_logp.max() == 0.0

    def test_fit_memory_is_bounded(self):
        values = _rng(30).normal(0, 1, 20_000)
        tracemalloc.start()
        try:
            GaussianKDE.fit(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
