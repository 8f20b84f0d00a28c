"""Weighted point-mass measures and plug-in functionals of them.

The estimated measure places mass w_k at each sampled value y_k; masses may
be negative under calibration weighting. Every parameter (total, mean,
ratio, Gini, quantile, low-income proportion, implicit-equation roots) is
the corresponding functional evaluated at this measure, with a single weak
(<=) inequality convention for the distribution function throughout.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np


class WeightedMeasure:
    """Point masses (y_k, w_k).

    The sorted summaries (sort order, sorted values and the cumulative
    masses and mass-weighted values) are built on first use by
    `mass_at_most`, `weighted_sum_below` or `quantile` and then cached;
    totals, means and ratios never sort.
    """

    def __init__(self, values, masses=None):
        y = np.asarray(values, dtype=float)
        w = np.ones_like(y) if masses is None else np.asarray(masses, dtype=float)
        if y.shape != w.shape or y.ndim != 1:
            raise ValueError("values and masses must be matching 1-d arrays")
        if y.size and not (np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise ValueError("measure entries must be finite")
        self.values = y
        self.masses = w

    @cached_property
    def _order(self) -> np.ndarray:
        return np.argsort(self.values, kind="stable")

    @cached_property
    def _sorted_y(self) -> np.ndarray:
        return self.values[self._order]

    @cached_property
    def _cum_w(self) -> np.ndarray:
        return np.cumsum(self.masses[self._order])

    @cached_property
    def _cum_wy(self) -> np.ndarray:
        return np.cumsum(self.masses[self._order] * self._sorted_y)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def total_mass(self) -> float:
        """Estimated population size N-hat."""
        return float(self.masses.sum())

    def mass_at_most(self, y) -> np.ndarray:
        """Unnormalized CDF: total mass on {y_k <= y}."""
        idx = np.searchsorted(self._sorted_y, np.asarray(y, dtype=float),
                              side="right")
        cum = np.concatenate(([0.0], self._cum_w))
        return cum[idx]

    def weighted_sum_below(self, y) -> np.ndarray:
        """Sum of w_k y_k over the strictly smaller support {y_k < y}."""
        idx = np.searchsorted(self._sorted_y, np.asarray(y, dtype=float),
                              side="left")
        cum = np.concatenate(([0.0], self._cum_wy))
        return cum[idx]

    def with_extra_mass(self, y: float, eps: float) -> "WeightedMeasure":
        """Copy with mass eps added at point y (influence perturbations)."""
        return WeightedMeasure(np.append(self.values, y),
                               np.append(self.masses, eps))


def total(measure: WeightedMeasure) -> float:
    """Sum of w_k y_k."""
    return float(measure.masses @ measure.values)


def mean(measure: WeightedMeasure) -> float:
    """Total divided by the estimated population size."""
    nhat = measure.total_mass
    if nhat == 0:
        raise ValueError("mean undefined: total mass is zero")
    return total(measure) / nhat


def ratio(measure_y: WeightedMeasure, measure_x: WeightedMeasure) -> float:
    """Ratio of two weighted totals sharing one weight system."""
    if not np.array_equal(measure_y.masses, measure_x.masses):
        raise ValueError("ratio requires a common weight system")
    denom = total(measure_x)
    if denom == 0:
        raise ValueError("ratio undefined: zero denominator total")
    return total(measure_y) / denom


def cdf_value(measure: WeightedMeasure, y: float) -> float:
    """Weighted distribution function at y (weak inequality).

    With signed masses the value can leave [0,1]; it is reported as-is.
    """
    nhat = measure.total_mass
    if nhat == 0:
        raise ValueError("cdf undefined: total mass is zero")
    return float(measure.mass_at_most(y)) / nhat


def quantile(measure: WeightedMeasure, alpha: float) -> float:
    """Left-continuous generalized inverse of the weighted CDF.

    Scans the support upward and returns the first point whose CDF reaches
    alpha; with signed masses the scan takes the first crossing.
    """
    if not 0 < alpha < 1:
        raise ValueError("quantile level must lie in (0,1)")
    nhat = measure.total_mass
    if nhat <= 0:
        raise ValueError("quantile requires positive total mass")
    support = np.unique(measure._sorted_y)
    cdf = measure.mass_at_most(support) / nhat
    crossed = np.flatnonzero(cdf >= alpha)
    if crossed.size == 0:
        raise ValueError("quantile undefined for this signed measure")
    return float(support[crossed[0]])


def gini(measure: WeightedMeasure) -> float:
    """Gini index of the weighted measure via the weak-CDF formula."""
    nhat = measure.total_mass
    ty = total(measure)
    if nhat == 0 or ty == 0:
        raise ValueError("Gini undefined: zero mass or zero total")
    F = measure.mass_at_most(measure.values) / nhat
    return float(measure.masses @ ((2.0 * F - 1.0) * measure.values)) / ty


def poverty_rate(measure: WeightedMeasure, fraction: float = 0.6,
                 level: float = 0.5, strict: bool = False) -> float:
    """Share of mass at or below `fraction` times the `level`-quantile.

    `strict` switches the threshold comparison from <= to <.
    """
    threshold = fraction * quantile(measure, level)
    if strict:
        nhat = measure.total_mass
        below = measure.mass_at_most(threshold)
        at = measure.masses[measure.values == threshold].sum()
        return float(below - at) / nhat
    return cdf_value(measure, threshold)


def implicit_solve(measure: WeightedMeasure,
                   phi: Callable[[np.ndarray, float], np.ndarray],
                   bracket: tuple[float, float],
                   tol: float = 1e-10) -> float:
    """Root of the weighted estimating equation Sum w_k phi(y_k, c) = 0.

    Bisection (robust to discontinuous phi, e.g. indicators) followed by a
    secant polish; requires a sign change over the bracket.
    """

    def g(c: float) -> float:
        return float(measure.masses @ phi(measure.values, c))

    lo, hi = float(bracket[0]), float(bracket[1])
    glo, ghi = g(lo), g(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if glo * ghi > 0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0 or hi - lo < tol:
            return mid
        if glo * gm < 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    a, b, ga, gb = lo, hi, glo, ghi
    for _ in range(20):
        if gb == ga:
            break
        c = b - gb * (b - a) / (gb - ga)
        if not lo <= c <= hi:
            break
        gc = g(c)
        a, ga, b, gb = b, gb, c, gc
        if abs(gc) == 0 or abs(b - a) < tol:
            break
    return b
