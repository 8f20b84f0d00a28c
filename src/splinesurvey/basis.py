"""B-spline bases on [0,1] with difference-type roughness penalty matrices."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

KNOT_RULES = ("equidistant", "sample_quantile", "population_quantile")


@dataclass(frozen=True)
class SplineSpec:
    """Configuration of a spline system: order, knots, penalty."""

    order: int
    interior_knots: int
    knot_rule: str = "sample_quantile"
    lam: float = 0.0
    penalty_order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("spline order must be >= 1")
        if self.interior_knots < 0:
            raise ValueError("interior knot count must be >= 0")
        if self.knot_rule not in KNOT_RULES:
            raise ValueError(f"unknown knot rule {self.knot_rule!r}")
        if self.lam < 0:
            raise ValueError("penalty weight must be >= 0")
        if self.lam > 0 and not (1 <= self.penalty_order <= self.order - 1):
            raise ValueError("penalty order must be below spline order")


@dataclass(frozen=True)
class KnotVector:
    """Interior knots strictly inside (0,1); boundaries at 0 and 1.

    `interior` is a tuple for one knot vector, or an (R, K) array for a
    stack of R knot vectors with K knots each, one per sample of a stack;
    the arrays the methods return then have a leading axis of R.
    """

    interior: tuple[float, ...] | np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.interior, dtype=float)
        if arr.size and (np.count_nonzero(arr <= 0.0) or np.count_nonzero(arr >= 1.0)):
            raise ValueError("interior knots must lie strictly inside (0,1)")
        if arr.shape[-1] > 1 and np.count_nonzero(np.diff(arr, axis=-1) <= 0):
            raise ValueError("interior knots must be strictly increasing")

    @property
    def num_interior(self) -> int:
        return np.shape(self.interior)[-1]

    def breakpoints(self) -> np.ndarray:
        """Distinct knots including the boundaries: 0, interior..., 1."""
        return self._padded(1)

    def extended(self, order: int) -> np.ndarray:
        """Knot vector with boundary knots repeated to multiplicity `order`."""
        return self._padded(order)

    def _padded(self, count: int) -> np.ndarray:
        arr = np.asarray(self.interior, dtype=float)
        lead = arr.shape[:-1]
        return np.concatenate((np.zeros(lead + (count,)), arr,
                               np.ones(lead + (count,))), axis=-1)

    def row(self, r: int) -> "KnotVector":
        """Knot vector `r` of a stack."""
        return KnotVector(tuple(self.interior[r].tolist()))


@dataclass(frozen=True)
class CovariateScale:
    """Affine min-max map fitted on the population covariate."""

    low: float
    high: float

    def apply(self, values: Iterable[float]) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        return (v - self.low) / (self.high - self.low)


def covariate_scale(z_values) -> CovariateScale:
    """Min-max map of the covariate values onto [0,1]."""
    z = np.asarray(z_values, dtype=float)
    if z.size == 0:
        raise ValueError("empty covariate")
    if not np.all(np.isfinite(z)):
        raise ValueError("covariate values must be finite")
    lo, hi = float(z.min()), float(z.max())
    if lo == hi:
        raise ValueError("degenerate covariate")
    return CovariateScale(lo, hi)


def normalize_covariate(z_values) -> tuple[np.ndarray, CovariateScale]:
    """Map covariate values affinely onto [0,1]; returns values and the map."""
    scale = covariate_scale(z_values)
    return scale.apply(z_values), scale


class SortedReference:
    """Knot reference values in [0,1] sorted row by row (`z01`) and each
    row's number of distinct values: what `knot_groups` reads of a
    reference, so a caller can sort one reference for several specs."""

    __slots__ = ("z01", "distinct_count")

    def __init__(self, values):
        self.z01 = np.sort(np.asarray(values, dtype=float), axis=-1)
        self.distinct_count = _distinct_count(self.z01)


def build_knots(spec: SplineSpec, reference=None) -> KnotVector:
    """Place interior knots per the spec's rule.

    `reference` holds values in [0,1] used by the quantile rules: sampled
    covariates for `sample_quantile`, population covariates for
    `population_quantile`. A `CovariateSummary` may stand for the
    population, and a `SortedReference` for sorted values; their sorted
    values and distinct counts are then used as they are, so a build sorts
    nothing and does no O(N) work. Quantiles are type-1 (inverted CDF,
    no interpolation, as numpy's `method="inverted_cdf"`) at levels
    i/(K+1). Duplicate or boundary-touching knots are collapsed with a
    warning, reducing the effective knot count. This is the one-sample
    case of `knot_groups`.
    """
    ((_, knots),) = knot_groups(spec, reference)
    return knots


def knot_groups(spec: SplineSpec, reference=None) -> list:
    """Knots per the spec's rule (see `build_knots`) for one reference or,
    row by row, for an (R, n) stack of sample references.

    Returns [(rows, KnotVector)]: one group, with `rows` an Ellipsis, for a
    single reference or knots that do not depend on it; for a stack, the
    rows whose knots all stay distinct and interior share one stacked
    KnotVector, and rows whose knots collapse are grouped by their
    reduced count, so that every group has one shape.
    """
    K = spec.interior_knots
    if K == 0:
        return [(..., KnotVector(()))]
    if spec.knot_rule == "equidistant":
        return [(..., KnotVector(tuple((np.arange(1, K + 1) / (K + 1)).tolist())))]
    if not isinstance(reference, (CovariateSummary, SortedReference)):
        reference = SortedReference(reference)
    ordered, distinct = reference.z01, reference.distinct_count
    if ordered.shape[-1] == 0:
        raise ValueError("quantile knot rule needs a nonempty reference")
    if np.count_nonzero(distinct < K + 1):
        raise ValueError("insufficient support for K knots")
    levels = np.arange(1, K + 1) / (K + 1)
    # the smallest order statistic whose rank is at least n * level
    index = np.ceil(ordered.shape[-1] * levels - 1).astype(np.intp)
    candidates = ordered[..., index]
    full = (np.all(np.diff(candidates, axis=-1) > 0, axis=-1)
            & (candidates[..., 0] > 0.0) & (candidates[..., -1] < 1.0))
    if candidates.ndim == 1:
        kept = candidates if full else _collapse(candidates, K)
        return [(..., KnotVector(tuple(kept.tolist())))]
    if full.all():
        return [(slice(None), KnotVector(_read_only(candidates)))]
    groups = [(np.flatnonzero(full), KnotVector(_read_only(candidates[full])))]
    collapsed = {}
    for r in np.flatnonzero(~full).tolist():
        kept = _collapse(candidates[r], K)
        collapsed.setdefault(kept.size, []).append((r, kept))
    for entries in collapsed.values():
        rows = np.array([r for r, _ in entries])
        groups.append((rows, KnotVector(_read_only(np.stack([k for _, k in entries])))))
    return [(rows, knots) for rows, knots in groups if len(rows)]


def _collapse(candidates: np.ndarray, K: int) -> np.ndarray:
    """The distinct candidate knots strictly inside (0,1), with a warning."""
    knots = np.unique(candidates)
    keep = knots[(knots > 0.0) & (knots < 1.0)]
    logger.warning(
        "collapsed %d duplicate/boundary quantile knots; K reduced to %d",
        K - keep.size,
        keep.size,
    )
    return keep


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _distinct_count(ordered: np.ndarray):
    """Number of distinct values in a sorted array, or in each sorted row."""
    steps = np.count_nonzero(ordered[..., 1:] != ordered[..., :-1], axis=-1)
    return int(ordered.shape[-1] > 0) + steps


def basis_matrix(knots: KnotVector, m: int, z_values) -> np.ndarray:
    """Evaluate the q = K + m spline basis functions of order m at each z.

    Rows are nonnegative, sum to one, and have at most m nonzero entries.
    Uses the stable order-recursion starting from interval indicators, with
    the final interval closed on the right so z = 1 is handled. For a
    stack of knot vectors, z has one row per knot vector, (R, n), and the
    result is (R, n, q). The result is a view with the units last in
    memory, the recursion's own (..., q, n) array transposed, not a copy:
    its `swapaxes(-1, -2)` reads each basis function's values over the
    units as one contiguous row.
    """
    z = np.asarray(z_values, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if z.size and (z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("covariate out of range")
    # intervals along the second-last axis, units along the last; interval
    # j = [t_j, t_{j+1}) is nonempty for m - 1 <= j <= K + m - 1, and the
    # last of these is closed on the right, so z = 1 falls in it
    K = knots.num_interior
    t = knots.extended(m)[..., :, None]
    zz = z[..., None, :]
    above = zz >= t[..., m - 1:K + m, :]
    B = np.zeros(above.shape[:-2] + (K + 2 * m - 1, z.shape[-1]))
    B[..., m - 1:K + m - 1, :] = above[..., :-1, :] & ~above[..., 1:, :]
    B[..., K + m - 1, :] = above[..., -1, :]
    for order in range(2, m + 1):
        # t_{j+order-1} > t_j exactly for m - order < j < K + m, and
        # t_{j+order} > t_{j+1} for m - order - 1 < j < K + m - 1
        Bn = np.zeros(B.shape[:-2] + (K + 2 * m - order, z.shape[-1]))
        a, b = m - order + 1, K + m
        term = zz - t[..., a:b, :]
        term /= t[..., a + order - 1:b + order - 1, :] - t[..., a:b, :]
        term *= B[..., a:b, :]
        Bn[..., a:b, :] += term
        a, b = m - order, K + m - 1
        np.subtract(t[..., a + order:b + order, :], zz, out=term)
        term /= t[..., a + order:b + order, :] - t[..., a + 1:b + 1, :]
        term *= B[..., a + 1:b + 1, :]
        Bn[..., a:b, :] += term
        B = Bn
    return B.swapaxes(-1, -2)


# Sorted population units between the stride points of a `CovariateSummary`,
# and per block (a multiple of STRIDE): an interval end sums fewer than
# STRIDE units directly, and an interval walks its interior in blocks.
STRIDE = 16
MOMENT_BLOCK = 1024


class CovariateSummary:
    """Population covariate summary giving basis totals at O(1) work per
    knot interval end plus one step per block inside the interval.

    Holds the min-max `scale` and the covariate mapped onto [0,1] and
    sorted (`z01`). The sorted units fall into blocks of MOMENT_BLOCK, and
    at every STRIDE-th unit, a stride point s, the summary keeps two power
    sums of r < m, built once per order: the suffix sum of (z - z_s)^r from
    s to its block's end, about the stride point's own value z_s, and the
    prefix sum of (z - c_b)^r from its block's first unit to s, about that
    unit's value c_b. A block's suffix sum at its first unit is the
    block's own sum. That is O(N / STRIDE * m) floats.

    An order-m B-spline is a polynomial of degree m - 1 on each knot
    interval (de Boor, A Practical Guide to Splines), so its population
    total is a combination of the interval's power sums about its left
    end a. An interval's units are the fewer than STRIDE at each end
    before and after its first and last stride point, summed directly;
    the suffix sum at the first stride point; the blocks after that one;
    and the prefix sum at the last stride point. Each sum is shifted from
    its point to a binomially, with only nonnegative terms, since every
    point lies at or right of a. An interval whose stride points lie in
    one block is summed directly, fewer than MOMENT_BLOCK + 2 * STRIDE
    units. No sum is the difference of two cumulative sums: prefix sums
    of raw powers over the population would cancel, with an error growing
    like eps * N / width^(m-1).

    An order-1 function is the indicator of its interval, so order-1
    totals are unit counts: a build costs one search per knot,
    O(K log N). Orders m >= 2 cost O(K (m^3 + STRIDE m) + m^2 N /
    MOMENT_BLOCK) per knot vector, plus fewer than MOMENT_BLOCK + 2 STRIDE
    units for an interval inside one block. The stride sums cost O(N m)
    once per order, in passes of a bounded number of blocks.
    """

    def __init__(self, z_values):
        self.scale = covariate_scale(z_values)
        z01 = np.sort(np.asarray(z_values, dtype=float))
        z01 -= self.scale.low
        z01 /= self.scale.high - self.scale.low
        self.z01 = z01
        self._sums = np.zeros((0, 0))
        self._anchors = np.zeros(0)
        self._fixed: dict = {}

    @cached_property
    def distinct_count(self) -> int:
        """Number of distinct values of the covariate."""
        return _distinct_count(self.z01)

    def _stride_sums(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The power sums of r < m (at least), one row per r, and the values
        they are taken about: columns 0..P-1 the suffix sums at the
        P = N // STRIDE + 1 stride points, columns P..2P-1 their prefix
        sums."""
        if self._sums.shape[0] < m:
            z, S, per = self.z01, STRIDE, MOMENT_BLOCK // STRIDE
            N = z.size
            points = N // S + 1
            # a stride point past the last unit (N a multiple of STRIDE)
            # has empty sums; its value is the last unit's
            first = np.minimum(np.arange(points) * S, N - 1)
            anchors = np.concatenate((z[first], z[first // MOMENT_BLOCK * MOMENT_BLOCK]))
            sums = np.empty((m, 2 * points))
            step = 64 * per  # stride points per pass, bounding the temporaries
            for s0 in range(0, points, step):
                s1 = min(s0 + step, points)
                blocks = -(-(s1 - s0) // per)
                # the stride groups s0..s1-1, padded to whole blocks by empty
                # groups valued as the last unit; offsets from each group's
                # first value, zero past the last unit
                values = np.full(blocks * per, z[-1])
                values[:s1 - s0] = anchors[s0:s1]
                units = min(s1 * S, N) - s0 * S
                offset = np.zeros((blocks * per, S))
                offset.reshape(-1)[:units] = z[s0 * S:s0 * S + units]
                offset -= values[:, None]
                offset.reshape(-1)[units:] = 0.0
                group = np.empty((m, blocks * per))
                group[0] = np.clip(N - np.arange(s0, s0 + blocks * per) * S, 0, S)
                power = offset.copy()
                for r in range(1, m):
                    group[r] = power.sum(axis=1)
                    power *= offset
                values = values.reshape(blocks, per)
                group = group.reshape(m, blocks, per)
                # suffix sums: each stride point adds the sums 1, 2, 4, ...
                # groups on, shifted back to its own value
                suffix = group.copy()
                span = 1
                while span < per:
                    suffix[..., :-span] += _shift(suffix[..., span:].copy(),
                                                  values[:, span:] - values[:, :-span])
                    span *= 2
                # prefix sums: the groups before the point, about the block's
                # first value, added one after another
                prefix = np.zeros_like(group)
                np.cumsum(_shift(group[..., :-1], values[:, :-1] - values[:, :1]),
                          axis=-1, out=prefix[..., 1:])
                sums[:, s0:s1] = suffix.reshape(m, -1)[:, :s1 - s0]
                sums[:, points + s0:points + s1] = prefix.reshape(m, -1)[:, :s1 - s0]
            self._sums, self._anchors = sums, anchors
        return self._sums, self._anchors

    def _power_sums(self, lo: np.ndarray, hi: np.ndarray, a: np.ndarray,
                    h: np.ndarray, m: int) -> np.ndarray:
        """Sums of ((z - a) / h)^r for r < m over sorted units lo..hi-1, one
        column per (lo, hi, a, h): (m, intervals)."""
        S, per = STRIDE, MOMENT_BLOCK // STRIDE
        first, last = -(-lo // S), hi // S  # the interval's first and last stride points
        spans = (first <= last) & (first // per < last // per)
        # the units summed directly: lo..low_end-1 and high_start..hi-1
        low_end = np.where(spans, first * S, hi)
        high_start = np.where(spans, last * S, hi)
        n_low = low_end - lo
        units = _ragged(n_low + hi - high_start)
        sums = np.zeros((m, lo.size))
        if units is not None:
            owner, at, starts, nonempty = units
            index = np.where(at < n_low[owner], lo[owner] + at,
                             high_start[owner] - n_low[owner] + at)
            t = (self.z01[index] - a[owner]) / h[owner]
            sums[:, nonempty] = np.add.reduceat(_powers(t, m), starts, axis=1)
        # the table sums: the suffix at the first stride point, each later
        # block's suffix at its first unit, and the prefix at the last
        # stride point unless it starts a block (an empty sum)
        n_suffix = np.where(spans, last // per - first // per, 0)
        prefix = spans & (last % per != 0)
        rows = _ragged(n_suffix + prefix)
        if rows is None:
            return sums
        owner, at, starts, nonempty = rows
        table, anchors = self._stride_sums(m)
        index = np.where(at == 0, first[owner], (first[owner] // per + at) * per)
        index = np.where(at == n_suffix[owner], table.shape[1] // 2 + last[owner], index)
        # sums of x^r over a row's units, x = (z - point) / h, shifted to
        # sums of (x + d)^r, d = (point - a) / h >= 0
        scaled = table[:m, index] / _powers(h[owner], m)
        _shift(scaled, (anchors[index] - a[owner]) / h[owner])
        sums[:, nonempty] += np.add.reduceat(scaled, starts, axis=1)
        return sums

    def basis_totals(self, knots: KnotVector, m: int) -> np.ndarray:
        """Population totals of the q = K + m order-m basis functions.

        Equals `basis_matrix(knots, m, z01).sum(axis=0)` up to rounding.
        Intervals follow `basis_matrix`: [t_j, t_{j+1}), so a unit at an
        interior knot counts in the interval to its right, and z = 1 in
        the last one. An order-1 function is the indicator of its
        interval, so its total is the interval's unit count, read off the
        search. For m >= 2 the m nonzero basis functions on each interval
        are polynomials in t = (z - a) / h, whose coefficients the Cox-de
        Boor recursion gives (`_interval_pieces`); each total adds its
        intervals' coefficients times the power sums of t. A stack of R
        knot vectors gives (R, q) totals in one pass, with one search of
        all their breakpoints.
        """
        K = knots.num_interior
        extended = knots.extended(m)
        lead = extended.shape[:-1]
        extended = extended.reshape(-1, K + 2 * m)
        bp = extended[:, m - 1:K + m + 1]
        cuts = np.zeros(bp.shape, dtype=np.intp)
        cuts[:, 1:-1] = np.searchsorted(self.z01, bp[:, 1:-1])
        cuts[:, -1] = self.z01.size
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        if m == 1:
            return (hi - lo).astype(float).reshape(lead + (-1,))
        left, width = bp[:, :-1], bp[:, 1:] - bp[:, :-1]
        sums = self._power_sums(lo.ravel(), hi.ravel(), left.ravel(), width.ravel(), m)
        pieces = _interval_pieces(extended, m).reshape(-1, m, m)
        # [interval, function]: sum_r sums[r] * coefficient of t^r
        parts = sums[0, :, None] * pieces[:, 0]
        for r in range(1, m):
            parts += sums[r, :, None] * pieces[:, r]
        # each total adds its intervals' parts in interval order, from zero
        q = K + m
        band = np.arange(K + 1)[:, None] + np.arange(m)
        index = np.arange(bp.shape[0])[:, None, None] * q + band
        return np.bincount(index.ravel(), parts.ravel(), bp.shape[0] * q).reshape(lead + (q,))

    def fixed_knot_totals(self, spec: SplineSpec) -> tuple[KnotVector, np.ndarray] | None:
        """Knots and read-only basis totals, built once per (order, K, rule),
        of a spec whose knots do not depend on the sample (K = 0,
        `equidistant`, `population_quantile`); None for sample quantiles."""
        if spec.interior_knots > 0 and spec.knot_rule == "sample_quantile":
            return None
        key = (spec.order, spec.interior_knots, spec.knot_rule)
        if key not in self._fixed:
            knots = build_knots(spec, self)
            totals = self.basis_totals(knots, spec.order)
            totals.flags.writeable = False
            self._fixed[key] = knots, totals
        return self._fixed[key]


def _powers(x: np.ndarray, m: int) -> np.ndarray:
    """x^r for r < m, with r on the second-last axis: (..., m, n) for x of
    shape (..., n). x^0 = 1 and x^1 = x exactly; each higher power is the
    one below times x. Unlike numpy's pow, whose vector and scalar loops
    round apart, a product does not depend on the array a value sits in,
    so a value's powers are the same in a padded stack and alone."""
    out = np.empty(x.shape[:-1] + (m, x.shape[-1]))
    out[..., 0, :] = 1.0
    for r in range(1, m):
        np.multiply(out[..., r - 1, :], x, out=out[..., r, :])
    return out


def _shift(sums: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Shift power sums, r < m along the first axis, to a point d below the
    one they are taken about, in place: sum (x + d)^r =
    sum_k C(r, k) d^(r-k) sum x^k, by m (m - 1) / 2 steps of Taylor's
    shift. With d >= 0 and x >= 0 every term is nonnegative."""
    for i in range(1, sums.shape[0]):
        for r in range(sums.shape[0] - 1, i - 1, -1):
            sums[r] += d * sums[r - 1]
    return sums


def _ragged(counts: np.ndarray):
    """Items 0..counts[i]-1 of every row i, laid end to end: each item's row
    (`owner`) and place in it (`at`), and the first item of each nonempty
    row (`starts`) with the mask of those rows (`nonempty`); None when
    there is no item."""
    total = int(counts.sum())
    if not total:
        return None
    nonempty = counts > 0
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(counts.size), counts)
    at = np.arange(total) - (ends - counts)[owner]
    return owner, at, (ends - counts)[nonempty], nonempty


def _interval_pieces(extended: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of the m order-m B-splines (m >= 2) nonzero on each knot
    interval [a, a + h) as polynomials in t = (z - a) / h, one set per row
    of extended knot vectors: (rows, J, m, m), the coefficient of t^r of
    function f of interval j at [.., j, r, f]. Function f of interval j is
    basis function j + f.

    The Cox-de Boor recursion (de Boor's BSPLVB) on coefficient arrays,
    over every row and interval at once. The order-2 pieces are 1 - t and
    t; from the order-k functions N_r nonzero on interval e, with
    x = a + h t, N'_r gains (t_{e+r+1} - x) N_r / d_r and N'_{r+1} gains
    (x - t_{e-k+r+1}) N_r / d_r, where d_r = t_{e+r+1} - t_{e-k+r+1} > 0
    on a nonempty interval."""
    J = extended.shape[-1] - 2 * m + 1
    # knots t_{j+i}, i < 2m, around interval j, whose left end is i = m - 1
    window = extended[:, np.arange(J)[:, None] + np.arange(2 * m)]
    a = window[..., m - 1:m]
    h = (window[..., m] - window[..., m - 1])[..., None, None]
    to_right = (window[..., m:] - a)[..., None, :]
    from_left = (a - window[..., :m])[..., None, :]
    pieces = np.zeros(a.shape[:-1] + (m, 2))
    pieces[..., 0, 0] = pieces[..., 1, 1] = 1.0
    pieces[..., 1, 0] = -1.0
    for k in range(2, m):
        scaled = pieces / (window[..., m:m + k] - window[..., m - k:m])[..., None, :]
        step = h * scaled[..., :-1, :]
        grown = np.zeros(a.shape[:-1] + (m, k + 1))
        grown[..., :k] = to_right[..., :k] * scaled
        grown[..., 1:, :k] -= step
        grown[..., 1:] += from_left[..., m - k:] * scaled
        grown[..., 1:, 1:] += step
        pieces = grown
    return pieces


def penalty_matrix(spec: SplineSpec, knots: KnotVector) -> np.ndarray:
    """Difference-type roughness penalty K^(2p) * D_p' R D_p.

    D_p is the p-th order forward difference operator on the q = K + m
    coefficients and R the Gram matrix of the order (m-p) basis on the same
    interior knots (its entries integrated exactly by per-interval
    Gauss-Legendre quadrature). The scale K^(2p), replaced by 1 when
    K = 0, stands in for the knot spacing of equidistant knots and is kept
    as-is for quantile knots. This is a difference-penalty construction,
    not the integrated squared p-th derivative of the spline, nor a fixed
    multiple of it: with m = 3, p = 1 and three equidistant knots it gives
    0.445 for f(z) = z and 0.539 for f(z) = z^2, where the integrals of
    (f')^2 are 1 and 4/3.
    """
    m, p, K = spec.order, spec.penalty_order, knots.num_interior
    if not 1 <= p <= m - 1:
        raise ValueError("penalty order must be below spline order")
    q = K + m
    order_low = m - p
    gram = _gram_matrix(knots, order_low)
    diff = np.diff(np.eye(q), n=p, axis=0)  # D_p, (q - p) x q
    scale = float(K) ** (2 * p) if K > 0 else 1.0
    D = scale * diff.T @ gram @ diff
    return 0.5 * (D + D.swapaxes(-1, -2))


def _gram_matrix(knots: KnotVector, order: int) -> np.ndarray:
    """Gram matrix of the order-`order` basis, exact piecewise quadrature;
    one per knot vector of a stack.

    The basis is evaluated at every interval's nodes in one call, and the
    intervals' products in one batched matmul; they are added up in
    interval order."""
    q = knots.num_interior + order
    xg, wg = _gauss_legendre(max(order, 1))
    bp = knots.breakpoints()
    half = 0.5 * (bp[..., 1:] - bp[..., :-1])
    pts = bp[..., :-1, None] + half[..., None] * (xg + 1.0)
    vals = basis_matrix(knots, order, pts.reshape(bp.shape[:-1] + (-1,)))
    vals = vals.reshape(pts.shape + (q,))
    parts = (vals * (wg * half[..., None])[..., None]).swapaxes(-1, -2) @ vals
    R = np.zeros(bp.shape[:-1] + (q, q))
    for j in range(parts.shape[-3]):
        R += parts[..., j, :, :]
    return R


@cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per count."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg
