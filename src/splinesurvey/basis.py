"""B-spline and truncated-power bases on [0,1] with derivative penalty matrices."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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
    """Interior knots strictly inside (0,1); boundaries at 0 and 1."""

    interior: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.interior, dtype=float)
        if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
            raise ValueError("interior knots must lie strictly inside (0,1)")
        if arr.size > 1 and np.any(np.diff(arr) <= 0):
            raise ValueError("interior knots must be strictly increasing")

    @property
    def num_interior(self) -> int:
        return len(self.interior)

    def breakpoints(self) -> np.ndarray:
        """Distinct knots including the boundaries: 0, interior..., 1."""
        return np.concatenate(([0.0], np.asarray(self.interior, dtype=float), [1.0]))

    def extended(self, order: int) -> np.ndarray:
        """Knot vector with boundary knots repeated to multiplicity `order`."""
        return np.concatenate(
            (np.zeros(order), np.asarray(self.interior, dtype=float), np.ones(order))
        )


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
    warning, reducing the effective knot count.
    """
    K = spec.interior_knots
    if K == 0:
        return KnotVector(())
    if spec.knot_rule == "equidistant":
        return KnotVector(tuple((np.arange(1, K + 1) / (K + 1)).tolist()))
    if isinstance(reference, CovariateSummary):
        ordered, distinct = reference.z01, reference.distinct_count
    else:
        ordered = np.sort(np.asarray(reference, dtype=float), axis=None)
        distinct = _distinct_count(ordered)
    if ordered.size == 0:
        raise ValueError("quantile knot rule needs a nonempty reference")
    if distinct < K + 1:
        raise ValueError("insufficient support for K knots")
    levels = np.arange(1, K + 1) / (K + 1)
    # the smallest order statistic whose rank is at least n * level
    index = np.ceil(ordered.size * levels - 1).astype(np.intp)
    knots = np.unique(ordered[index])
    keep = knots[(knots > 0.0) & (knots < 1.0)]
    if keep.size < K:
        logger.warning(
            "collapsed %d duplicate/boundary quantile knots; K reduced to %d",
            K - keep.size,
            keep.size,
        )
    return KnotVector(tuple(keep.tolist()))


def _distinct_count(ordered: np.ndarray) -> int:
    """Number of distinct values in a sorted array."""
    return int(ordered.size > 0) + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def basis_matrix(knots: KnotVector, m: int, z_values) -> np.ndarray:
    """Evaluate the q = K + m spline basis functions of order m at each z.

    Rows are nonnegative, sum to one, and have at most m nonzero entries.
    Uses the stable order-recursion starting from interval indicators, with
    the final interval closed on the right so z = 1 is handled.
    """
    z = np.atleast_1d(np.asarray(z_values, dtype=float))
    if z.size and (z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("covariate out of range")
    t = knots.extended(m)
    n_intervals = len(t) - 1
    B = np.zeros((z.size, n_intervals))
    nonempty = [j for j in range(n_intervals) if t[j] < t[j + 1]]
    for j in nonempty:
        B[:, j] = (z >= t[j]) & (z < t[j + 1])
    B[z == 1.0, nonempty[-1]] = 1.0
    for order in range(2, m + 1):
        nb = len(t) - order
        Bn = np.zeros((z.size, nb))
        for j in range(nb):
            left = t[j + order - 1] - t[j]
            right = t[j + order] - t[j + 1]
            acc = np.zeros(z.size)
            if left > 0:
                acc += (z - t[j]) / left * B[:, j]
            if right > 0:
                acc += (t[j + order] - z) / right * B[:, j + 1]
            Bn[:, j] = acc
        B = Bn
    return B


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

    def _power_sums(self, lo: int, hi: int, a: float, h: float,
                    m: int) -> np.ndarray:
        """Sums of ((z - a) / h)^r for r < m over sorted units lo..hi-1."""
        B = MOMENT_BLOCK
        powers = np.arange(m)
        first = -(-lo // B)
        stop = max(first, hi // B)  # the full blocks inside: first..stop-1
        ends = np.concatenate((self.z01[lo:min(first * B, hi)],
                               self.z01[stop * B:hi]))
        sums = (((ends - a) / h)[:, None] ** powers).sum(axis=0)
        shift = ((self.z01[first * B:stop * B:B] - a) / h)[:, None] ** powers
        local = self._block_moments(m)[first:stop, :m] / h ** powers
        cross = shift.T @ local  # [k, p]: sum_b ((c_b - a)/h)^k ((z - c_b)/h)^p
        for r in range(m):
            sums[r] += sum(comb(r, p) * cross[r - p, p] for p in range(r + 1))
        return sums

    def basis_totals(self, knots: KnotVector, m: int) -> np.ndarray:
        """Population totals of the q = K + m order-m basis functions.

        Equals `basis_matrix(knots, m, z01).sum(axis=0)` up to rounding.
        Intervals follow `basis_matrix`: [t_j, t_{j+1}), so a unit at an
        interior knot counts in the interval to its right, and z = 1 in
        the last one. On each interval the m nonzero basis functions are
        recovered as polynomials in t = (z - a) / h from m evaluations.
        """
        bp = knots.breakpoints()
        left, width = bp[:-1], np.diff(bp)
        cuts = np.concatenate(([0], np.searchsorted(self.z01, bp[1:-1]),
                               [self.z01.size]))
        # each interval's left end and m - 1 Chebyshev points inside it
        inner = (np.arange(m - 1) + 0.5) * np.pi / max(m - 1, 1)
        nodes = np.concatenate(([0.0], 0.5 - 0.5 * np.cos(inner)))
        points = left[:, None] + width[:, None] * nodes
        values = basis_matrix(knots, m, points.ravel()).reshape(left.size, m, -1)
        # intervals too narrow to hold m distinct points in floating point
        narrow = (np.diff(points, axis=1) <= 0).any(axis=1) | (points[:, -1] >= bp[1:])
        powers = np.arange(1, m)
        totals = np.zeros(knots.num_interior + m)
        for j, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            if lo == hi:
                continue
            if narrow[j]:
                # sum the basis values over the distinct units instead
                distinct, counts = np.unique(self.z01[lo:hi], return_counts=True)
                totals[j:j + m] += counts @ basis_matrix(knots, m, distinct)[:, j:j + m]
                continue
            # piece coefficients of t^r; the constant term is the value at a
            at = values[j][:, j:j + m]
            t = (points[j, 1:] - left[j]) / width[j]
            pieces = np.vstack((at[0], np.linalg.solve(t[:, None] ** powers,
                                                       at[1:] - at[0])))
            sums = self._power_sums(lo, hi, left[j], width[j], m)
            totals[j:j + m] += sums @ pieces
        return totals

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
    return 0.5 * (D + D.T)


def _gram_matrix(knots: KnotVector, order: int) -> np.ndarray:
    """Gram matrix of the order-`order` basis, exact piecewise quadrature."""
    q = knots.num_interior + order
    nodes_per_interval = max(order, 1)
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_interval)
    bp = knots.breakpoints()
    R = np.zeros((q, q))
    for a, b in zip(bp[:-1], bp[1:]):
        half = 0.5 * (b - a)
        pts = a + half * (xg + 1.0)
        vals = basis_matrix(knots, order, pts)
        R += (vals * (wg * half)[:, None]).T @ vals
    return R


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
