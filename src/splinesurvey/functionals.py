"""Weighted point-mass measures and plug-in functionals of them.

The estimated measure places mass w_k at each sampled value y_k; masses may
be negative under calibration weighting. Every parameter (total, mean,
ratio, Gini, quantile, low-income proportion, implicit-equation roots) is
the corresponding functional evaluated at this measure, with a single weak
(<=) inequality convention for the distribution function throughout.

The order functionals (Gini, quantiles, the low-income proportion) read the
distribution function through an `Ordering` of the values: their stable
sort order and runs of tied values, built on first use. An ordering depends
on the values alone, so the measures of every weight system on one sample
can share one, and the values are sorted once. At the units' own values
and on the support, the distribution function is read at the run ends; only
arbitrary points are searched. Totals, means and ratios never sort.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np


def _sort_runs(values: np.ndarray) -> tuple:
    """(order, sorted values, run starts, run ends) of a 1-d float array.

    `order` is exactly `np.argsort(values, kind="stable")`. It is found with
    numpy's default (SIMD) argsort and one `!=` pass for the runs of tied
    values; only when values tie is each run put back in unit order, by one
    sort of the integer keys run * n + position. Run j covers the sorted
    positions `starts[j]:ends[j]`.
    """
    n = values.size
    order = np.argsort(values)
    sorted_y = values[order]
    new_run = sorted_y[1:] != sorted_y[:-1]
    if new_run.all():  # no ties: the order is unique, every run one unit
        starts = np.arange(n)
        return order, sorted_y, starts, starts + 1
    breaks = np.flatnonzero(new_run) + 1
    run_key = np.zeros(n, dtype=np.int64)
    run_key[breaks] = n
    np.cumsum(run_key, out=run_key)
    order = np.sort(run_key + order) - run_key
    sorted_y = values[order]  # a run may hold both -0.0 and 0.0
    return order, sorted_y, np.append(0, breaks), np.append(breaks, n)


class Ordering:
    """Stable sort order of one value array and its runs of tied values.

    Nothing is sorted until an order functional first asks; the result is
    then kept, and every `WeightedMeasure` built on the same array with
    this ordering reads it.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @cached_property
    def _runs(self) -> tuple:
        return _sort_runs(self.values)

    @property
    def order(self) -> np.ndarray:
        """`np.argsort(values, kind="stable")`."""
        return self._runs[0]

    @property
    def sorted_values(self) -> np.ndarray:
        return self._runs[1]

    @property
    def run_starts(self) -> np.ndarray:
        """Sorted position of the first unit of each run of tied values."""
        return self._runs[2]

    @property
    def run_ends(self) -> np.ndarray:
        """Sorted position one past the last unit of each run."""
        return self._runs[3]

    @cached_property
    def run_end_at(self) -> np.ndarray:
        """Per sorted position, the end of its run: the number of units
        whose value is <= the value there."""
        return self._per_position(self.run_ends)

    @cached_property
    def run_start_at(self) -> np.ndarray:
        """Per sorted position, the start of its run: the number of units
        whose value is < the value there."""
        return self._per_position(self.run_starts)

    def _per_position(self, run_bounds: np.ndarray) -> np.ndarray:
        if run_bounds.size == self.values.size:  # no ties
            return run_bounds
        return np.repeat(run_bounds, self.run_ends - self.run_starts)


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sums led by a zero: entry i is the sum of the first i."""
    out = np.empty(x.size + 1)
    out[0] = 0.0
    np.cumsum(x, out=out[1:])
    return out


class WeightedMeasure:
    """Point masses (y_k, w_k).

    The sorted summaries (sort order, sorted values and the cumulative
    masses and mass-weighted values in sorted order, each led by a zero)
    are built on first use by `mass_at_most`, `weighted_sum_below` or an
    order functional, and then cached; totals, means and ratios never sort.
    The sort order and the runs of tied values come from `ordering`, which
    a caller may pass in to share one sort between measures on the same
    values array; by default the measure makes its own.
    """

    def __init__(self, values, masses=None, ordering: Ordering | None = None):
        y = np.asarray(values, dtype=float)
        w = np.ones_like(y) if masses is None else np.asarray(masses, dtype=float)
        if y.shape != w.shape or y.ndim != 1:
            raise ValueError("values and masses must be matching 1-d arrays")
        if y.size and not (np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise ValueError("measure entries must be finite")
        if ordering is None:
            ordering = Ordering(y)
        elif ordering.values is not y:
            raise ValueError("ordering must be built on the measure's values array")
        self.values = y
        self.masses = w
        self.ordering = ordering

    @cached_property
    def _order(self) -> np.ndarray:
        return self.ordering.order

    @cached_property
    def _sorted_y(self) -> np.ndarray:
        return self.ordering.sorted_values

    @cached_property
    def _cum_w(self) -> np.ndarray:
        return _cumsum0(self.masses[self._order])

    @cached_property
    def _cum_wy(self) -> np.ndarray:
        return _cumsum0(self.masses[self._order] * self._sorted_y)

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
        return self._cum_w[idx]

    def weighted_sum_below(self, y) -> np.ndarray:
        """Sum of w_k y_k over the strictly smaller support {y_k < y}."""
        idx = np.searchsorted(self._sorted_y, np.asarray(y, dtype=float),
                              side="left")
        return self._cum_wy[idx]

    def mass_at_most_own(self) -> np.ndarray:
        """`mass_at_most` at each unit's own value, in unit order: the
        cumulative mass at the end of the unit's run, without a search."""
        return self._unsort(self._cum_w[self.ordering.run_end_at])

    def weighted_sum_below_own(self) -> np.ndarray:
        """`weighted_sum_below` at each unit's own value, in unit order."""
        return self._unsort(self._cum_wy[self.ordering.run_start_at])

    def _unsort(self, in_sorted_order: np.ndarray) -> np.ndarray:
        out = np.empty_like(in_sorted_order)
        out[self._order] = in_sorted_order
        return out

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
    # the support is one point per run of tied values, and the CDF there is
    # the cumulative mass at the run's end
    ordering = measure.ordering
    cdf = measure._cum_w[ordering.run_ends] / nhat
    crossed = np.flatnonzero(cdf >= alpha)
    if crossed.size == 0:
        raise ValueError("quantile undefined for this signed measure")
    return float(measure._sorted_y[ordering.run_starts[crossed[0]]])


def gini(measure: WeightedMeasure) -> float:
    """Gini index of the weighted measure via the weak-CDF formula."""
    nhat = measure.total_mass
    ty = total(measure)
    if nhat == 0 or ty == 0:
        raise ValueError("Gini undefined: zero mass or zero total")
    F = measure.mass_at_most_own() / nhat
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
