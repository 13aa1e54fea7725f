"""Distribution primitives for learned feature distributions (paper §5).

Fixy's default feature-distribution estimator is a kernel density
estimator (§5.2: "By default, Fixy uses a kernel density estimator
(KDE) to learn feature distributions"). Users can override with other
distributions (e.g. discrete ones) — we provide :class:`Histogram` for
that.

All distributions here are pure-numpy and picklable so they can be
broadcast to Spark executors and evaluated inside pandas UDFs.

Scores: the paper scores ``ln(AOF(p))`` where ``p`` is "a probability of
seeing a feature of the input" (§2). A KDE yields a *density*, not a
probability, and densities are scale-dependent; since Fixy "only uses
the score to rank" (§6) we expose :meth:`relative_likelihood` —
``pdf(x) / max pdf`` in ``(0, 1]`` — which preserves the ranking and
keeps ``ln`` well-defined. The paper's worked example (§6) likewise uses
values in (0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Floor applied before taking logs so a zero-density value yields a very
#: negative (but finite) score instead of -inf. Components zeroed by an
#: AOF are removed by filtering, not by -inf arithmetic.
EPS = 1e-12


@dataclass
class GaussianKDE:
    """A 1-D Gaussian kernel density estimator with Scott's-rule bandwidth.

    The paper notes "default hyperparameters work in all cases we tried"
    (§5.2); Scott's rule is the standard default.

    Attributes:
        points: the fitted sample (1-D float array).
        bandwidth: kernel standard deviation (set by :meth:`fit`).
        max_pdf: peak density over the fitted sample, used to normalize
            densities into relative likelihoods.
    """

    points: np.ndarray = field(default_factory=lambda: np.empty(0))
    bandwidth: float = 1.0
    max_pdf: float = 1.0

    @classmethod
    def fit(cls, values, max_points: int = 4096, seed: int = 0) -> "GaussianKDE":
        """Fit a KDE to ``values``.

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
        kde.max_pdf = float(np.max(kde.pdf(x)))
        return kde

    def pdf(self, x) -> np.ndarray:
        """Density at ``x`` (vectorized). Chunked to bound memory."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.empty_like(x)
        n, h = self.points.size, self.bandwidth
        norm = 1.0 / (n * h * np.sqrt(2 * np.pi))
        for lo in range(0, x.size, 8192):
            chunk = x[lo : lo + 8192, None]
            z = (chunk - self.points[None, :]) / h
            out[lo : lo + 8192] = norm * np.exp(-0.5 * z * z).sum(axis=1)
        return out

    def relative_likelihood(self, x) -> np.ndarray:
        """``pdf(x) / max_pdf`` clipped into ``[EPS, 1]`` — rank-preserving."""
        return np.clip(self.pdf(x) / self.max_pdf, EPS, 1.0)


@dataclass
class Histogram:
    """Discrete (binned) empirical distribution — an override for cases
    where "other types of distributions are appropriate" (§5.2)."""

    edges: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    probs: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    @classmethod
    def fit(cls, values, bins: int = 32) -> "Histogram":
        x = np.asarray(values, dtype=np.float64).ravel()
        x = x[np.isfinite(x)]
        if x.size == 0:
            raise ValueError("cannot fit a Histogram to zero finite values")
        counts, edges = np.histogram(x, bins=bins)
        probs = counts / counts.sum()
        return cls(edges=edges, probs=probs)

    def relative_likelihood(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.probs.size - 1)
        p = self.probs[idx]
        # Out-of-support values get EPS, mirroring KDE tail behaviour.
        oob = (x < self.edges[0]) | (x > self.edges[-1])
        p = np.where(oob, 0.0, p)
        pmax = self.probs.max() if self.probs.max() > 0 else 1.0
        return np.clip(p / pmax, EPS, 1.0)
