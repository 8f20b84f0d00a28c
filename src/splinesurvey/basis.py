"""B-spline and truncated-power bases on [0,1] with derivative penalty matrices."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
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

    @property
    def dimension(self) -> int:
        """Number of basis functions q = K + m."""
        return self.interior_knots + self.order


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
        if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
            raise ValueError("interior knots must lie strictly inside (0,1)")
        if arr.shape[-1] > 1 and np.any(np.diff(arr, axis=-1) <= 0):
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


def build_knots(spec: SplineSpec, reference=None) -> KnotVector:
    """Place interior knots per the spec's rule.

    `reference` holds values in [0,1] used by the quantile rules: sampled
    covariates for `sample_quantile`, population covariates for
    `population_quantile`. A `CovariateSummary` may stand for the
    population; its sorted values and distinct count are then used as they
    are, so a build does no O(N) work. Quantiles are type-1 (inverted CDF,
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
    if isinstance(reference, CovariateSummary):
        ordered, distinct = reference.z01, reference.distinct_count
    else:
        ordered = np.sort(np.asarray(reference, dtype=float), axis=-1)
        distinct = _distinct_count(ordered)
    if ordered.shape[-1] == 0:
        raise ValueError("quantile knot rule needs a nonempty reference")
    if np.any(distinct < K + 1):
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
    result is (R, n, q).
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
    return np.ascontiguousarray(B.swapaxes(-1, -2))


# Consecutive sorted population units per block of a `CovariateSummary`.
MOMENT_BLOCK = 128


class CovariateSummary:
    """Population covariate summary giving basis totals at O(N / block) cost.

    Holds the min-max `scale`, the covariate mapped onto [0,1] and sorted
    (`z01`), and, for each block of MOMENT_BLOCK consecutive sorted units,
    the power sums of (z - c_b)^r about the block's first value c_b.

    An order-m B-spline is a polynomial of degree m - 1 on each knot
    interval (de Boor, A Practical Guide to Splines), so its population
    total is a combination of the interval's power sums about its left
    end a. Full blocks are shifted from c_b to a binomially, with only
    nonnegative terms since c_b >= a; the partial blocks at either end of
    the interval are summed directly. (Prefix sums of raw powers would
    cancel, with an error growing like eps * N / width^(m-1).)
    """

    def __init__(self, z_values):
        self.scale = covariate_scale(z_values)
        z01 = np.sort(np.asarray(z_values, dtype=float))
        z01 -= self.scale.low
        z01 /= self.scale.high - self.scale.low
        self.z01 = z01
        self._moments = np.zeros((z01.size // MOMENT_BLOCK, 0))
        self._fixed: dict = {}

    @cached_property
    def distinct_count(self) -> int:
        """Number of distinct values of the covariate."""
        return _distinct_count(self.z01)

    def _block_moments(self, m: int) -> np.ndarray:
        """Sums of (z - c_b)^r for r < m (at least), one row per full block."""
        if self._moments.shape[1] < m:
            B, blocks = MOMENT_BLOCK, self._moments.shape[0]
            moments = np.empty((blocks, m))
            step = 64  # blocks per pass, bounding the temporaries
            for b in range(0, blocks, step):
                chunk = self.z01[b * B:min(b + step, blocks) * B].reshape(-1, B)
                offset = chunk - chunk[:, :1]
                power = np.ones_like(offset)
                for r in range(m):
                    moments[b:b + chunk.shape[0], r] = power.sum(axis=1)
                    power *= offset
            self._moments = moments
        return self._moments

    def _power_sums(self, lo: np.ndarray, hi: np.ndarray, a: np.ndarray,
                    h: np.ndarray, m: int) -> np.ndarray:
        """Sums of ((z - a) / h)^r for r < m over sorted units lo..hi-1, one
        row per (lo, hi, a, h)."""
        B = MOMENT_BLOCK
        powers = np.arange(m)
        first = -(-lo // B)
        stop = np.maximum(first, hi // B)  # the full blocks inside: first..stop-1
        # the partial blocks at either end, low then high, zero-padded;
        # powers along the units (as numpy's pow loop reads an exponent
        # array), summed one unit after another as a column sum is
        n_low = np.minimum(first * B, hi) - lo
        n_end = n_low + np.maximum(hi - stop * B, 0)
        at = np.arange(n_end.max(initial=0))
        units = np.where(at < n_low[:, None], lo[:, None] + at,
                         (stop * B - n_low)[:, None] + at)
        valid = at < n_end[:, None]
        units[~valid] = 0
        ends = _powers((self.z01[units] - a[:, None]) / h[:, None], m)
        ends *= valid[:, None, :]
        sums = np.zeros((lo.size, m)) if not at.size else np.cumsum(ends, axis=-1)[..., -1]
        blocks = stop - first
        if not blocks.any():
            return sums
        at = np.arange(blocks.max())
        index = np.where(at < blocks[:, None], first[:, None] + at, 0)
        shift = _powers((self.z01[index * B] - a[:, None]) / h[:, None], m)
        shift = np.ascontiguousarray(shift.swapaxes(-1, -2))
        local = self._block_moments(m)[index, :m] / (h[:, None] ** powers)[:, None, :]
        # [k, p]: sum_b ((c_b - a)/h)^k ((z - c_b)/h)^p, one product per row
        cross = np.stack([s[:b].T @ l[:b] for s, l, b in zip(shift, local, blocks)])
        for r in range(m):
            sums[:, r] += sum(comb(r, p) * cross[:, r - p, p] for p in range(r + 1))
        return sums

    def basis_totals(self, knots: KnotVector, m: int) -> np.ndarray:
        """Population totals of the q = K + m order-m basis functions.

        Equals `basis_matrix(knots, m, z01).sum(axis=0)` up to rounding.
        Intervals follow `basis_matrix`: [t_j, t_{j+1}), so a unit at an
        interior knot counts in the interval to its right, and z = 1 in
        the last one. On each interval the m nonzero basis functions are
        recovered as polynomials in t = (z - a) / h from m evaluations.
        A stack of R knot vectors gives (R, q) totals in one pass, with one
        search of all their breakpoints.
        """
        lead = knots.breakpoints().shape[:-1]
        bp = knots.breakpoints().reshape(-1, knots.num_interior + 2)
        left, width = bp[:, :-1], np.diff(bp, axis=-1)
        J = left.shape[1]
        cuts = np.zeros(bp.shape, dtype=np.intp)
        cuts[:, 1:-1] = np.searchsorted(self.z01, bp[:, 1:-1])
        cuts[:, -1] = self.z01.size
        # each interval's left end and m - 1 Chebyshev points inside it
        inner = (np.arange(m - 1) + 0.5) * np.pi / max(m - 1, 1)
        nodes = np.concatenate(([0.0], 0.5 - 0.5 * np.cos(inner)))
        points = left[..., None] + width[..., None] * nodes
        values = basis_matrix(knots, m, points.reshape(lead + (J * m,)))
        values = values.reshape(bp.shape[0], J, m, -1)
        # intervals too narrow to hold m distinct points in floating point
        narrow = (np.diff(points, axis=-1) <= 0).any(axis=-1) | (points[..., -1] >= bp[:, 1:])
        # piece coefficients of t^r on every interval; the constant term is
        # the value at a
        at = np.stack([values[:, j, :, j:j + m] for j in range(J)], axis=1)
        t = (points[..., 1:] - left[..., None]) / width[..., None]
        vandermonde = t[..., None] ** np.arange(1, m)
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        skip = (lo == hi) | narrow
        vandermonde[skip] = np.eye(m - 1)  # unused; kept regular
        pieces = np.concatenate((at[..., :1, :], np.linalg.solve(
            vandermonde, at[..., 1:, :] - at[..., :1, :])), axis=-2)
        sums = self._power_sums(lo.ravel(), hi.ravel(), left.ravel(), width.ravel(), m)
        parts = (sums.reshape(lo.shape + (1, m)) @ pieces)[..., 0, :]
        parts[skip] = 0.0
        totals = np.zeros((bp.shape[0], knots.num_interior + m))
        for j in range(J):
            totals[:, j:j + m] += parts[:, j]
            for r in np.flatnonzero(narrow[:, j] & (lo[:, j] < hi[:, j])).tolist():
                # sum the basis values over the distinct units instead
                distinct, counts = np.unique(self.z01[lo[r, j]:hi[r, j]],
                                             return_counts=True)
                row = knots if not lead else knots.row(r)
                totals[r, j:j + m] += counts @ basis_matrix(row, m, distinct)[:, j:j + m]
        return totals.reshape(lead + totals.shape[1:])

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
    shape (..., n). x^0 = 1 and x^1 = x exactly; higher powers come from
    numpy's general pow loop, given a full exponent array (a scalar
    exponent 2 would take its square shortcut, which can differ from pow
    in the last place)."""
    out = np.empty(x.shape[:-1] + (m, x.shape[-1]))
    out[..., 0, :] = 1.0
    out[..., 1:2, :] = x[..., None, :]
    if m > 2:
        exponents = np.repeat(np.arange(2, m)[:, None], x.shape[-1], axis=1)
        out[..., 2:, :] = x[..., None, :] ** exponents
    return out


def basis_row(knots: KnotVector, m: int, z: float) -> np.ndarray:
    """Single basis evaluation; see `basis_matrix`."""
    return basis_matrix(knots, m, [z])[0]


def difference_operator(p: int, q: int) -> np.ndarray:
    """p-th order forward difference operator as a (q-p) x q matrix."""
    return np.diff(np.eye(q), n=p, axis=0)


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
    diff = difference_operator(p, q)
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


def truncated_power_matrix(knots: KnotVector, m: int, z_values) -> np.ndarray:
    """Truncated-power basis 1, z, ..., z^(m-1), (z - knot)_+^(m-1).

    Spans the same spline space as the B-spline basis; degree-0 truncations
    are right-closed step indicators, matching the interval convention of
    `basis_matrix`.
    """
    z = np.atleast_1d(np.asarray(z_values, dtype=float))
    if z.size and (z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("covariate out of range")
    deg = m - 1
    cols = [z**r for r in range(m)]
    for xi in knots.interior:
        if deg == 0:
            cols.append((z >= xi).astype(float))
        else:
            cols.append(np.where(z > xi, (z - xi) ** deg, 0.0))
    return np.column_stack(cols)


def truncated_power_row(knots: KnotVector, m: int, z: float) -> np.ndarray:
    """Single truncated-power evaluation; see `truncated_power_matrix`."""
    return truncated_power_matrix(knots, m, [z])[0]
