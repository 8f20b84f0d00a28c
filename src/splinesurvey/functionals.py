"""Weighted point-mass measures and plug-in functionals of them.

The estimated measure places mass w_k at each sampled value y_k; masses may
be negative under calibration weighting. Every parameter (total, mean,
ratio, Gini, quantile, low-income proportion) is the corresponding
functional evaluated at this measure, with a single weak (<=) inequality
convention for the distribution function throughout. `implicit_solve`
finds the root of a weighted estimating equation, but it is library-only:
no `ParameterSpec` kind reaches it and it has no linearization, so neither
the Monte Carlo harness nor the CLI estimates such a parameter.

The order functionals (Gini, quantiles, the low-income proportion) read the
distribution function through an `Ordering` of the values: their stable
sort order and runs of tied values, built on first use. An ordering depends
on the values alone, so the measures of every weight system on one sample
can share one, and the values are sorted once. At the units' own values
and on the support, the distribution function is read at the run ends; only
arbitrary points are searched. Totals, means and ratios never sort.

A measure built without masses (the census) has unit masses. It checks
its entries are finite by its row sums (a NaN or infinite entry makes its
row's sum non-finite; only a sum that overflows is checked again entry by
entry), and those sums are its total, which `total`, `mean`, `ratio` and
`gini` read. Its quantiles select the k-th smallest value and its CDF at
a point counts, so of its order functionals only the Gini sorts, and it
sorts the values alone (`np.sort`): no sort order, no gather. All give
the sorted path's results bit for bit, whose cumulative masses are then
exact integers.
`quantile` is the one weighted alpha-point of the estimates (the
bandwidth's quartiles and the poverty line read it; knots keep their own
rule), and a sample whose masses are all equal (the HT weights N/n of an
SRSWOR sample) reads the census count k / n, so its quantile is the
census quantile of its values at any scale.
What reads a unit-mass measure's masses or sorted summaries (a census
linearization, `tv_proxy_distance`, `implicit_solve`) reads an array of
ones built on first read, through the weighted path: the cumulative
masses are then the exact counts 0..n, and 1.0 * y is y.

Every sum over the units is a numpy reduction along the row in a fixed
order: pairwise (`np.add.reduce`), in unit order for totals and in sorted
order for the Gini, or running (`np.cumsum`). No value depends on the
BLAS thread count, and a row of a stack sums as that sample alone does.

A measure holds one sample, (n,), or a stack of R samples, (R, n); the
functionals then give one value per row, each computed as that sample's
alone would be. The row-wise helpers below (`row_dot`, `matvec`,
`take_rows`, `_rank`, ...) have one path: every leading axis indexes
rows, and one sample is a single row. They serve the other modules'
stacked arrays too.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each the BLAS dot `a @ b` of 1-d rows.

    OpenBLAS splits a long dot (over 10 000 entries) across its threads,
    which moves its last bits with the thread count; the functionals'
    sums over the units are pairwise sums (`np.add.reduce`) instead."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products of matching stacks, each the BLAS `M @ v`."""
    return (M @ v[..., None])[..., 0]


def as_scalar(x):
    """A Python float for a 0-d result (one sample), the array otherwise."""
    return x if getattr(x, "ndim", 0) else float(x)


def as_column(x) -> np.ndarray:
    """Per-sample values as a column against the units of each sample."""
    return np.asarray(x)[..., None]


def _sort_runs(values: np.ndarray) -> tuple:
    """(order, sorted values, run start, run end) of float values, row by row.

    `order` is exactly `np.argsort(values, axis=-1, kind="stable")`. It is
    found with numpy's default (SIMD) argsort and one `!=` pass for the runs
    of tied values; only when values tie are the runs put back in unit
    order, by one sort of the integer keys run start * n + position. The
    run start and end are given per sorted position: the number of units in
    the row below, and at or below, the value there.
    """
    n = values.shape[-1]
    order = np.argsort(values, axis=-1)
    sorted_y = take_rows(values, order)
    new_run = sorted_y[..., 1:] != sorted_y[..., :-1]
    position = np.arange(n)
    if new_run.all():  # no ties: the order is unique, every run one unit
        return order, sorted_y, position, position + 1
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = new_run
    run_start = np.maximum.accumulate(np.where(starts, position, 0), axis=-1)
    run_end = _run_ends(new_run)
    run_key = run_start.astype(np.int64) * n
    order = np.sort(run_key + order, axis=-1) - run_key
    sorted_y = take_rows(values, order)  # a run may hold -0.0 and 0.0
    return order, sorted_y, run_start, run_end


def _run_ends(new_run: np.ndarray) -> np.ndarray:
    """Per sorted position, the end of its run of tied values, from
    `new_run`, the (..., n - 1) flags of a sorted row's value changes."""
    n = new_run.shape[-1] + 1
    ends = np.ones(new_run.shape[:-1] + (n,), dtype=bool)
    ends[..., :-1] = new_run
    return np.minimum.accumulate(np.where(ends, np.arange(1, n + 1), n)[..., ::-1],
                                 axis=-1)[..., ::-1]


def _value_runs(values: np.ndarray) -> tuple:
    """(sorted values, run end) of float values, row by row, from one sort
    of the values alone (`np.sort`): no positions are sorted or gathered.
    The run ends are those of `_sort_runs`; only the order of -0.0 and 0.0
    inside a run of zeros may differ from the stable sort's."""
    sorted_y = np.sort(values, axis=-1)
    new_run = sorted_y[..., 1:] != sorted_y[..., :-1]
    if new_run.all():  # no ties: every run one unit
        return sorted_y, np.arange(1, values.shape[-1] + 1)
    return sorted_y, _run_ends(new_run)


class Ordering:
    """Stable sort order of one value array and its runs of tied values.

    The values are one sample's, (n,), or a stack's, (R, n), sorted row by
    row. Nothing is sorted until an order functional first asks; the result
    is then kept, and every `WeightedMeasure` built on the same array with
    this ordering reads it.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @cached_property
    def _runs(self) -> tuple:
        return _sort_runs(self.values)

    @property
    def order(self) -> np.ndarray:
        """`np.argsort(values, axis=-1, kind="stable")`."""
        return self._runs[0]

    @property
    def sorted_values(self) -> np.ndarray:
        return self._runs[1]

    @property
    def run_start_at(self) -> np.ndarray:
        """Per sorted position, the start of its run: the number of units
        whose value is < the value there (broadcast over the rows)."""
        return self._runs[2]

    @property
    def run_end_at(self) -> np.ndarray:
        """Per sorted position, the end of its run: the number of units
        whose value is <= the value there (broadcast over the rows)."""
        return self._runs[3]


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sums along the rows, led by a zero: entry i is the sum of
    the first i."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def take_rows(a: np.ndarray, index) -> np.ndarray:
    """`a[index]` along the last axis, row by row."""
    return a.reshape(-1)[_flat(a, index)]


def _flat(a: np.ndarray, index) -> np.ndarray:
    """Positions in `a.ravel()` of the per-row positions `index`."""
    lead = a.shape[:-1]
    return index + a.shape[-1] * np.arange(math.prod(lead)).reshape(lead + (1,))


def _rank(sorted_y: np.ndarray, points: np.ndarray, side: str) -> np.ndarray:
    """`np.searchsorted(sorted_y, points, side)` row by row: one point, or
    one row of points, per row of `sorted_y`. It is one search for all rows:
    numpy orders complex numbers by their real, then their imaginary parts,
    so keying each value by its row's start in `sorted_y.ravel()` (the real
    part) lays the sorted rows out one after another."""
    start = _flat(sorted_y, 0)
    keys = _row_keys(start, sorted_y).reshape(-1)
    at = np.searchsorted(keys, _row_keys(start, points.reshape(start.shape[:-1] + (-1,))), side)
    return (at - start).reshape(points.shape)


def _row_keys(start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`start + 1j * values`, exact for infinite values too."""
    keys = np.empty(values.shape, complex)
    keys.real, keys.imag = start, values
    return keys


def _points(y) -> np.ndarray:
    """`y` as float points to compare values with; NaN, which compares with
    none of them, is refused."""
    y = np.asarray(y, dtype=float)
    if np.isnan(y).any():
        raise ValueError("a measure cannot be evaluated at a NaN point")
    return y


class WeightedMeasure:
    """Point masses (y_k, w_k), of one sample (n,) or of a stack (R, n),
    one measure per row; the functionals then give one value per row.

    The sorted summaries (sort order, sorted values and the cumulative
    masses and mass-weighted values in sorted order, each led by a zero)
    are built on first use by `mass_at_most`, `weighted_sum_below` or an
    order functional, and then cached; totals, means and ratios never sort.
    The sort order and the runs of tied values come from `ordering`, which
    a caller may pass in to share one sort between measures on the same
    values array; by default the measure makes its own. Without `masses`
    every unit has mass one (`unit_masses`): the entries are checked
    finite by the row sums, which are kept as the total; the quantile and
    the CDF at one point per row select and count instead of sorting; the
    Gini sorts the values alone, not their positions; N-hat is the unit
    count. What reads `masses` (`implicit_solve`, a `ratio` with a
    weighted partner, `linearized_ratio`, the poverty rate's bandwidth and
    density) or the sorted summaries builds an array of ones on first
    read and takes the weighted path, whose cumulative masses are then the
    exact counts 0..n; `total` and `gini` read no masses.
    """

    def __init__(self, values, masses=None, ordering: Ordering | None = None):
        y = np.asarray(values, dtype=float)
        w = None if masses is None else np.asarray(masses, dtype=float)
        if (w is not None and y.shape != w.shape) or y.ndim not in (1, 2):
            raise ValueError("values and masses must be matching 1-d arrays, "
                             "or (R, n) arrays for a stack")
        if w is None:
            # a NaN or infinite entry makes its row's sum non-finite; only
            # a sum that overflows is checked again entry by entry
            with np.errstate(over="ignore", invalid="ignore"):
                self._row_sums = np.add.reduce(y, axis=-1)
            finite = np.isfinite(self._row_sums).all() or np.isfinite(y).all()
        else:
            finite = np.isfinite(y).all() and np.isfinite(w).all()
        if not finite:
            raise ValueError("measure entries must be finite")
        if ordering is None:
            ordering = Ordering(y)
        elif ordering.values is not y:
            raise ValueError("ordering must be built on the measure's values array")
        self.values = y
        self.ordering = ordering
        self.unit_masses = w is None
        if w is not None:
            self.masses = w

    @cached_property
    def masses(self) -> np.ndarray:
        """The masses; at unit masses an array of ones, built on first read."""
        return np.ones(self.values.shape)

    @cached_property
    def _order(self) -> np.ndarray:
        return self.ordering.order

    @cached_property
    def _sorted_y(self) -> np.ndarray:
        return self.ordering.sorted_values

    @cached_property
    def _sorted_w(self) -> np.ndarray:
        """The masses in sorted order, gathered once."""
        return take_rows(self.masses, self._order)

    @cached_property
    def _cum_w(self) -> np.ndarray:
        return _cumsum0(self._sorted_w)

    @cached_property
    def _cum_wy(self) -> np.ndarray:
        return _cumsum0(self._sorted_w * self._sorted_y)

    @property
    def size(self) -> int:
        return self.values.shape[-1]

    @property
    def total_mass(self):
        """Estimated population size N-hat; at unit masses the unit count n
        per row, which the sum of n ones gives exactly (n < 2^53)."""
        if self.unit_masses:
            return as_scalar(np.full(self.values.shape[:-1], float(self.size)))
        return as_scalar(self.masses.sum(axis=-1))

    def mass_at_most(self, y) -> np.ndarray:
        """Unnormalized CDF: total mass on {y_k <= y}. At unit masses and
        one point per row it is a count; arrays of points are searched.
        A NaN point is refused on both paths."""
        y = _points(y)
        if self.unit_masses and np.ndim(y) == self.values.ndim - 1:
            return np.asarray(np.count_nonzero(self.values <= as_column(y), axis=-1),
                              dtype=float)
        return self._at(self._cum_w, _rank(self._sorted_y, y, "right"))

    def weighted_sum_below(self, y) -> np.ndarray:
        """Sum of w_k y_k over the strictly smaller support {y_k < y}."""
        return self._at(self._cum_wy, _rank(self._sorted_y, _points(y), "left"))

    def _at(self, cumulative: np.ndarray, index: np.ndarray) -> np.ndarray:
        rows = index.reshape(cumulative.shape[:-1] + (-1,))
        return take_rows(cumulative, rows).reshape(index.shape)

    def mass_at_most_own(self) -> np.ndarray:
        """`mass_at_most` at each unit's own value, in unit order: the
        cumulative mass at the end of the unit's run, without a search."""
        return self._unsort(take_rows(self._cum_w, self.ordering.run_end_at))

    def weighted_sum_below_own(self) -> np.ndarray:
        """`weighted_sum_below` at each unit's own value, in unit order."""
        return self._unsort(take_rows(self._cum_wy, self.ordering.run_start_at))

    def _unsort(self, in_sorted_order: np.ndarray) -> np.ndarray:
        out = np.empty_like(in_sorted_order)
        out.reshape(-1)[_flat(out, self._order)] = in_sorted_order
        return out


def total(measure: WeightedMeasure):
    """Sum of w_k y_k in unit order; at unit masses the sum of the y_k,
    which 1.0 * y_k leaves unchanged: the row sums the measure checked its
    entries by when it was built."""
    if measure.unit_masses:
        return as_scalar(measure._row_sums)
    return as_scalar(np.add.reduce(measure.masses * measure.values, axis=-1))


def mean(measure: WeightedMeasure):
    """Total divided by the estimated population size."""
    nhat = measure.total_mass
    if np.count_nonzero(nhat == 0):
        raise ValueError("mean undefined: total mass is zero")
    return total(measure) / nhat


def _common_weights(measure_y: WeightedMeasure, measure_x: WeightedMeasure) -> None:
    """Refuse the two measures of a ratio unless they share one weight
    system. Measures on one masses array (every weight set's measures in
    `SampleData`) pass on identity, with no compare of the masses."""
    if not (measure_y.unit_masses and measure_x.unit_masses
            or measure_y.masses is measure_x.masses
            or np.array_equal(measure_y.masses, measure_x.masses)):
        raise ValueError("ratio requires a common weight system")


def ratio(measure_y: WeightedMeasure, measure_x: WeightedMeasure):
    """Ratio of two weighted totals sharing one weight system."""
    _common_weights(measure_y, measure_x)
    denom = total(measure_x)
    if np.count_nonzero(denom == 0):
        raise ValueError("ratio undefined: zero denominator total")
    return total(measure_y) / denom


def cdf_value(measure: WeightedMeasure, y):
    """Weighted distribution function at y (weak inequality); a stack takes
    one point per sample.

    With signed masses the value can leave [0,1]; it is reported as-is.
    """
    nhat = measure.total_mass
    if np.count_nonzero(nhat == 0):
        raise ValueError("cdf undefined: total mass is zero")
    return as_scalar(measure.mass_at_most(y) / nhat)


def quantile(measure: WeightedMeasure, alpha: float):
    """Left-continuous generalized inverse of the weighted CDF.

    Scans the support upward and returns the first point whose CDF reaches
    alpha; with signed masses the scan takes the first crossing. At unit
    masses that point is the k-th smallest value, selected without a sort.
    A row of equal masses crosses where the census does: its CDF is read
    as the count k / n, not as cumulative masses k c over n c, which round
    and can miss alpha = k / n by one value (the median of 800 HT weights
    19378 / 800 would be the 401st value). Other rows read their cumulative
    masses over N-hat, and their top run always crosses: the CDF is 1
    there, so every level in (0,1) has a quantile, a signed measure's too.
    """
    if not 0 < alpha < 1:
        raise ValueError("quantile level must lie in (0,1)")
    nhat = measure.total_mass
    if np.count_nonzero(nhat <= 0):
        raise ValueError("quantile requires positive total mass")
    if measure.unit_masses:
        # select the k-th smallest value; of tied values take the first
        # unit's, as the stable sort does (a run may hold -0.0 and 0.0);
        # equal nonzero values share one bit pattern, so no scan is needed
        y, k = measure.values, _unit_rank(alpha, measure.size)
        kth = np.partition(y, k - 1, axis=-1)[..., k - 1, None]
        if kth.all():
            return as_scalar(kth[..., 0])
        return as_scalar(take_rows(y, (y == kth).argmax(axis=-1)[..., None])[..., 0])
    # every sorted position reads the CDF at its run's end; the first
    # position that reaches alpha starts the first crossing run. A row of
    # equal masses c reads the counts k / n, as the census does: its
    # cumulative masses round, and k c / (n c) can miss k / n
    ordering = measure.ordering
    w = measure.masses
    equal = (w == w[..., :1]).all(axis=-1, keepdims=True)
    cum = np.where(equal, np.arange(measure.size + 1.0), measure._cum_w)
    share = take_rows(cum, ordering.run_end_at) / np.where(equal, measure.size, as_column(nhat))
    # the top run's CDF is 1 in exact arithmetic, signed masses too, but
    # its cumulative mass and N-hat are summed in different orders and its
    # share can round below a level next to 1: it is read as crossed
    crossed = (share >= alpha) | (ordering.run_end_at == measure.size)
    first = crossed.argmax(axis=-1)[..., None]
    return as_scalar(take_rows(measure._sorted_y, take_rows(ordering.run_start_at, first))[..., 0])


def _unit_rank(alpha: float, n: int) -> int:
    """The least k with k / n >= alpha: where the CDF of n unit masses
    first reaches alpha, by the float test the sorted path applies to its
    cumulative masses, which are then the exact integers k."""
    k = min(max(math.ceil(alpha * n), 1), n)
    while k > 1 and (k - 1) / n >= alpha:
        k -= 1
    while k / n < alpha:
        k += 1
    return k


def gini(measure: WeightedMeasure):
    """Gini index of the weighted measure via the weak-CDF formula,
    G = sum_k w_k (2 F(y_k) - 1) y_k / t_y with F(y_k) the mass at or below
    y_k over the total mass. The sum runs over the units in sorted order,
    where F is read at each run's end without putting it back in unit order.

    Under the weak CDF every unit of a tie reads the whole tie's mass, as
    if it came last in the tie. A constant variable therefore has G = 1,
    not 0: exactly on the census, to rounding at any weights. Heaped values
    (incomes rounded to a coarse grid) inflate G.

    At unit masses F(y_k) is the run end over n, and the terms need only
    the sorted values: they are sorted by value (`np.sort`), with no sort
    order and no gather. Tied values share one bit pattern but for -0.0
    and 0.0, whose order inside a run only moves zero terms, so the sum is
    the sorted path's bit for bit.
    """
    nhat = measure.total_mass
    ty = total(measure)
    if np.count_nonzero(nhat == 0) or np.count_nonzero(ty == 0):
        raise ValueError("Gini undefined: zero mass or zero total")
    if measure.unit_masses:  # the masses' F and terms: k / n over N-hat = n, and 1.0 * x is x
        sorted_y, run_end = _value_runs(measure.values)
        terms = (2.0 * (run_end / measure.size) - 1.0) * sorted_y
    else:
        F = take_rows(measure._cum_w, measure.ordering.run_end_at) / as_column(nhat)
        terms = measure._sorted_w * ((2.0 * F - 1.0) * measure._sorted_y)
    return as_scalar(np.add.reduce(terms, axis=-1)) / ty


def poverty_rate(measure: WeightedMeasure, fraction: float = 0.6,
                 level: float = 0.5, strict: bool = False):
    """Share of mass at or below `fraction` times the `level`-quantile.

    `strict` switches the threshold comparison from <= to <: the mass
    below the threshold is the mass at or below the float just under it.
    """
    threshold = fraction * quantile(measure, level)
    if strict:
        threshold = np.nextafter(threshold, -np.inf)
    return cdf_value(measure, threshold)


def implicit_solve(measure: WeightedMeasure,
                   phi: Callable[[np.ndarray, float], np.ndarray],
                   bracket: tuple[float, float],
                   tol: float = 1e-10) -> float:
    """Root of the weighted estimating equation Sum w_k phi(y_k, c) = 0.

    Bisection (robust to discontinuous phi, e.g. indicators) followed by a
    secant polish; requires a sign change over the bracket. Library-only: no
    `ParameterSpec` kind calls it.
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
