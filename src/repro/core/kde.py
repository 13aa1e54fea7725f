"""The learned feature distribution (paper §5).

Fixy learns feature distributions with a kernel density estimator
(§5.2: "By default, Fixy uses a kernel density estimator (KDE) to learn
feature distributions"), and every learned feature here uses it.

:class:`GaussianKDE` is pure numpy and picklable, so it can be broadcast
to Spark executors and evaluated inside pandas UDFs.

Scores: the paper scores ``ln(AOF(p))`` where ``p`` is "a probability of
seeing a feature of the input" (§2). A KDE yields a *density*, not a
probability, and densities are scale-dependent; since Fixy "only uses
the score to rank" (§6) we expose :meth:`relative_likelihood` —
``pdf(x) / max pdf`` in ``[EPS, 1]`` — which preserves the ranking and
keeps ``ln`` well-defined. The paper's worked example (§6) likewise uses
values in (0, 1).

Because the score only ranks, the KDE is evaluated on a grid (binned
KDE; Silverman 1982, AS 176; Wand 1994): :meth:`GaussianKDE.fit`
tabulates the exact ``ln`` relative likelihood once on a uniform grid of
spacing ``h / GRID_STEPS_PER_BW`` reaching ``GRID_REACH_BW · h`` past the
outermost fitted points, and scoring interpolates that table. A query
then costs O(log G) for G grid points instead of a sum over every fitted
point, and no step holds more than a ``PDF_CHUNK_ROWS × points`` block.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Floor applied before taking logs so a zero-density value yields a very
#: negative (but finite) score instead of -inf. Components zeroed by an
#: AOF are removed by filtering, not by -inf arithmetic.
EPS = 1e-12
LN_EPS = float(np.log(EPS))

#: How far the grid reaches past the outermost fitted point, in
#: bandwidths. For a query ``d >= 8h`` beyond the last point ``x_max``,
#: every kernel ``a <= x_max`` has ``(x_max + d - a)^2 >= (x_max - a)^2 + d^2``,
#: so ``pdf(x_max + d) <= e^-32 pdf(x_max)``: the exact relative
#: likelihood off the grid is below ``EPS`` as well.
GRID_REACH_BW = 8
#: Grid points per bandwidth.
GRID_STEPS_PER_BW = 32
#: Query rows per block of the exact :meth:`GaussianKDE.pdf`; a block
#: holds ``rows × points`` floats (8 MB at 4096 points).
PDF_CHUNK_ROWS = 256


@dataclass
class GaussianKDE:
    """A 1-D Gaussian kernel density estimator with Scott's-rule bandwidth,
    scored on a grid.

    The paper notes "default hyperparameters work in all cases we tried"
    (§5.2); Scott's rule is the standard default.

    :meth:`pdf` is the exact density. :meth:`relative_likelihood`, the
    score every caller uses, interpolates ``ln(pdf / max_pdf)`` linearly
    between grid points. Interpolating ``ln p`` rather than ``p`` keeps
    the tails accurate: a Gaussian tail is a parabola in ``ln p``, which
    a ``h/32`` spacing follows closely, while linear interpolation of
    ``p`` itself is off by orders of magnitude where ``p`` is tiny. Off
    the grid the score is ``EPS``, as the exact value is (see
    ``GRID_REACH_BW``).

    Attributes:
        points: the fitted sample (1-D float array, sorted).
        bandwidth: kernel standard deviation (set by :meth:`fit`).
        max_pdf: peak density over the grid, used to normalize
            densities into relative likelihoods.
        grid: uniform grid from ``points[0] - 8h`` to ``points[-1] + 8h``.
        grid_logp: ``ln(max(pdf / max_pdf, EPS))`` at each grid point.
    """

    points: np.ndarray = field(default_factory=lambda: np.empty(0))
    bandwidth: float = 1.0
    max_pdf: float = 1.0
    grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    grid_logp: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def fit(cls, values, max_points: int = 4096, seed: int = 0) -> "GaussianKDE":
        """Fit a KDE to ``values`` and tabulate its relative likelihood.

        Args:
            values: 1-D array-like of scalar feature values.
            max_points: subsample cap so scoring cost stays bounded when
                an organization has millions of labels; subsampling is
                deterministic in ``seed``.
            seed: rng seed for the subsample.

        Raises:
            ValueError: if ``values`` is empty.
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        x = x[np.isfinite(x)]
        if x.size == 0:
            raise ValueError("cannot fit a KDE to zero finite values")
        if x.size > max_points:
            x = np.random.default_rng(seed).choice(x, size=max_points, replace=False)
        x = np.sort(x)
        std = float(np.std(x))
        if std == 0.0:
            # Degenerate sample: all identical. Use a small bandwidth
            # relative to the value's magnitude so pdf is a narrow bump.
            std = max(abs(float(x[0])) * 1e-3, 1e-3)
        bw = 1.06 * std * x.size ** (-1 / 5)  # Scott/Silverman rule
        kde = cls(points=x, bandwidth=max(bw, 1e-9))
        h = kde.bandwidth
        # Spacing at most h / GRID_STEPS_PER_BW; the reach adds exactly
        # 2 · GRID_REACH_BW · GRID_STEPS_PER_BW steps.
        steps = int(np.ceil((x[-1] - x[0]) * GRID_STEPS_PER_BW / h))
        steps += 2 * GRID_REACH_BW * GRID_STEPS_PER_BW
        kde.grid = np.linspace(x[0] - GRID_REACH_BW * h, x[-1] + GRID_REACH_BW * h, steps + 1)
        dens = kde.pdf(kde.grid)
        kde.max_pdf = float(dens.max())
        kde.grid_logp = np.log(np.maximum(dens / kde.max_pdf, EPS))
        return kde

    def pdf(self, x) -> np.ndarray:
        """Exact density at ``x`` (vectorized), in blocks of
        ``PDF_CHUNK_ROWS`` queries to bound memory."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.empty_like(x)
        n, h = self.points.size, self.bandwidth
        norm = 1.0 / (n * h * np.sqrt(2 * np.pi))
        for lo in range(0, x.size, PDF_CHUNK_ROWS):
            # In place, so a block needs one temporary: fits ran 0.08 s
            # instead of 0.14 s at 20k values.
            z = x[lo : lo + PDF_CHUNK_ROWS, None] - self.points[None, :]
            z /= h
            z *= z
            z *= -0.5
            out[lo : lo + PDF_CHUNK_ROWS] = norm * np.exp(z, out=z).sum(axis=1)
        return out

    def relative_likelihood(self, x) -> np.ndarray:
        """``pdf(x) / max_pdf`` in ``[EPS, 1]``, interpolated in ``ln``
        on the fitted grid — rank-preserving."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        lp = np.interp(x, self.grid, self.grid_logp, left=LN_EPS, right=LN_EPS)
        # lp <= 0, so exp(lp) <= 1. exp(LN_EPS) rounds a little above EPS,
        # so entries at the floor return EPS itself.
        return np.where(lp > LN_EPS, np.exp(lp), EPS)
