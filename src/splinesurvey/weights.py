"""Survey weight families: Horvitz-Thompson, poststratified, GREG, B-spline.

Each family produces a single weight vector per sample that is reused for
every study variable and every parameter estimated from that sample. All
but HT calibrate on a spline system (`SplineSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .basis import (
    SplineSpec,
    basis_matrix,
    build_knots,  # noqa: F401 - kept importable from this module
    knot_groups,
    normalize_covariate,  # noqa: F401 - kept importable from this module
    penalty_matrix,
)

from .functionals import WeightedMeasure, as_scalar, matvec, total

RCOND_SINGULAR = 1e-12


class SingularSystemError(ValueError):
    """A spline system whose normal matrix is numerically singular."""


@dataclass(eq=False)
class WeightSet:
    """Weights w_ks for the sampled units, with provenance and diagnostics.

    `indices` and `weights` have the shape of the draw's indices: (n,) for
    one sample, (R, n) for a stack. `system` is the spline system the
    weights were built from (None for HT). It also serves the variance
    residual fits of every parameter estimated with these weights, so a
    sample's system is built once per estimator. `diagnostics` is computed
    from the system and the weights when read.
    """

    indices: np.ndarray
    weights: np.ndarray
    family: str
    system: SplineSystem | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights length mismatch")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")

    @property
    def total_mass(self):
        """Sum of the weights (of each sample of a stack)."""
        return as_scalar(self.weights.sum(axis=-1))

    @property
    def diagnostics(self) -> dict:
        """The calibration residuals, negative-weight count, minimum weight
        and rcond (one entry per sample of a stack); {} without a system."""
        if self.system is None:
            return {}
        w = self.weights
        return {
            "calibration_residuals": self.system.calibration_residuals(w),
            "negative_weight_count": np.sum(w < 0, axis=-1).tolist(),
            "min_weight": w.min(axis=-1).tolist(),
            "rcond": np.asarray(self.system.rcond).tolist(),
        }


def ht_weights(draw) -> WeightSet:
    """Inverse inclusion-probability weights 1/pi_k: the draw's own
    read-only `design_weights` array, not a copy."""
    return WeightSet(draw.indices, draw.design_weights, "HT")


def weighted_total(weights: WeightSet, values_on_sample):
    """Weighted sum over the sample (of each sample of a stack): the `total`
    of the values at the weights, summed as the `total` kind sums it."""
    v = np.asarray(values_on_sample, dtype=float)
    if v.shape != weights.weights.shape:
        raise ValueError("values and weights length mismatch")
    return total(WeightedMeasure(v, weights.weights))


class SplineSystem:
    """Sample spline system shared by weight building and coefficient fits.

    Holds the knots, the sample and population basis summaries, and the
    factor-ready normal matrix B_s' Pi^-1 B_s + lambda D_p, whose Pi^-1 is
    the draw's `design_weights`, the array the HT weights are. The basis
    is evaluated at the draw's `scaled_z`, and sample-quantile knots are
    placed on the draw's one sort of them (`sorted_scaled_z`), which every
    system on the draw shares. The system behind a sample's weights also
    gives the fits of the linearized variables whose residuals enter the
    variance (`WeightSet.system`).
    The population side comes from the population's cached
    `covariate_summary`, so a build costs O(K (m^3 + STRIDE m) +
    m^2 N / MOMENT_BLOCK) there instead of O(N m q): a few table reads and
    fewer than STRIDE units per knot interval end, and one step per block
    of 1 024 units inside an interval. It costs O(K log N) at order 1
    (poststrata, whose totals are the cell counts), and nothing when the
    knots do not depend on the sample (`CovariateSummary.fixed_knot_totals`).

    A stack of draws gives one system per sample, every array with a
    leading replicate axis, factored and solved as one batch. Samples
    whose quantile knots collapse cannot share that shape; they form
    groups of their own (`knot_groups`), and `weight_vector`, `fitted`
    and `rcond` put the groups' rows back in stack order. The knots and
    basis attributes exist when there is one group.
    """

    def __init__(self, draw, spec: SplineSpec):
        self.spec = spec
        covariate = draw.population.covariate_summary
        z_s = draw.scaled_z
        inv_pi = draw.design_weights
        fixed = covariate.fixed_knot_totals(spec)
        if fixed is None:
            groups = [(rows, knots, covariate.basis_totals(knots, spec.order))
                      for rows, knots in knot_groups(spec, draw.sorted_scaled_z)]
        else:
            groups = [(..., *fixed)]
        self._shape = inv_pi.shape
        self._groups = [(rows, _SplineFit(spec, knots, totals, z_s[rows], inv_pi[rows]))
                        for rows, knots, totals in groups]

    @property
    def _only(self) -> _SplineFit:
        if len(self._groups) > 1:
            raise ValueError("the stacked samples' knot counts differ; "
                             "the system has no single knot vector")
        return self._groups[0][1]

    knots = property(lambda self: self._only.knots)
    basis_sample = property(lambda self: self._only.basis_sample)
    basis_pop_total = property(lambda self: self._only.basis_pop_total)

    @property
    def rcond(self):
        """Reciprocal condition number of the normal matrix, per sample."""
        return as_scalar(self._by_rows(attrgetter("rcond")))

    def knot_counts(self) -> str:
        """The effective interior knot count, or each group's, as text."""
        return "|".join(str(fit.knots.num_interior) for _, fit in self._groups)

    def _by_rows(self, method, *arrays) -> np.ndarray:
        """`method` of each group on the group's rows of `arrays`, put
        back in stack order."""
        if len(self._groups) == 1:
            return method(self._groups[0][1], *arrays)
        parts = [(rows, method(fit, *(a[rows] for a in arrays))) for rows, fit in self._groups]
        out = np.empty(self._shape[:1] + parts[0][1].shape[1:])
        for rows, part in parts:
            out[rows] = part
        return out

    def coefficients(self, values_on_sample) -> np.ndarray:
        """Design-based ridge coefficients for the given sample values."""
        return self._only.coefficients(np.asarray(values_on_sample, dtype=float))

    def fitted(self, values_on_sample) -> np.ndarray:
        """Fitted values at the sampled covariates."""
        return self._by_rows(_SplineFit.fitted,
                             np.asarray(values_on_sample, dtype=float))

    def weight_vector(self) -> np.ndarray:
        """Model-assisted weights for the penalized spline fit."""
        return self._by_rows(_SplineFit.weight_vector)

    def projection_weight_vector(self) -> np.ndarray:
        """Unpenalized projection form; valid only at lambda = 0."""
        if self.spec.lam != 0:
            raise ValueError("projection weights require lambda = 0")
        return self._by_rows(_SplineFit.projection_weight_vector)

    def calibration_residuals(self, w: np.ndarray) -> list:
        """B_s' w minus the population totals, over 1 + |totals|, as a list
        (one list per sample of a stack)."""
        out = [None] * int(np.prod(self._shape[:-1], dtype=int))
        for rows, fit in self._groups:
            totals = fit.basis_pop_total
            resid = (matvec(fit.basis_sample.swapaxes(-1, -2), w[rows]) - totals)
            values = (resid / (1.0 + np.abs(totals))).tolist()
            if rows is ...:
                return values
            for r, v in zip(np.arange(len(out))[rows].tolist(), values):
                out[r] = v
        return out


class _SplineFit:
    """One group of a `SplineSystem`: knots shared in shape, arrays with the
    group's leading axes (none for one sample)."""

    def __init__(self, spec: SplineSpec, knots, basis_pop_total, z_s, inv_pi):
        self.knots = knots
        self.basis_pop_total = basis_pop_total
        self.basis_sample = basis_matrix(knots, spec.order, z_s)
        self.inv_pi = inv_pi
        # the weighted basis with the units last, (..., q, n): its sums over
        # the units are contiguous pairwise reductions
        bw = np.multiply(self.basis_sample.swapaxes(-1, -2), inv_pi[..., None, :], order="C")
        A = self.basis_sample.swapaxes(-1, -2) @ bw.swapaxes(-1, -2)
        if spec.lam > 0:
            A = A + spec.lam * penalty_matrix(spec, knots)
        self.normal_matrix = A
        cond = np.linalg.cond(A)
        self.rcond = np.where(np.isfinite(cond) & (cond > 0), 1.0 / cond, 0.0)
        if (self.rcond < RCOND_SINGULAR).any():
            raise SingularSystemError("singular basis system: reduce K or set lambda>0")
        self._weighted_basis = bw

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.normal_matrix, rhs[..., None])[..., 0]

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        return self.solve(matvec(self._weighted_basis, v))

    def fitted(self, v: np.ndarray) -> np.ndarray:
        return matvec(self.basis_sample, self.coefficients(v))

    def weight_vector(self) -> np.ndarray:
        gap = self._weighted_basis.sum(axis=-1) - self.basis_pop_total
        return self.inv_pi - matvec(self._weighted_basis.swapaxes(-1, -2), self.solve(gap))

    def projection_weight_vector(self) -> np.ndarray:
        totals = np.broadcast_to(self.basis_pop_total,
                                 self.normal_matrix.shape[:-1])
        return matvec(self._weighted_basis.swapaxes(-1, -2), self.solve(totals))


def _spline_weights(draw, spec: SplineSpec, tag: str, singular: str | None = None,
                    vector=SplineSystem.weight_vector) -> WeightSet:
    """The weights `vector` of the spline system of `spec` on `draw`,
    tagged `tag` with the system's knot counts as {K}, the order as {m}
    and the penalty as {lam}. `singular` renames the system's singular
    refusal."""
    try:
        system = SplineSystem(draw, spec)
    except SingularSystemError as err:
        if singular is None:
            raise
        raise ValueError(singular) from err
    tag = tag.format(K=system.knot_counts(), m=spec.order, lam=spec.lam)
    return WeightSet(draw.indices, vector(system), tag, system=system)


# The `SplineSystem` method behind each form of the B-spline weights.
_FORMS = {"general": SplineSystem.weight_vector,
          "projection": SplineSystem.projection_weight_vector}


def bspline_weights(draw, spec: SplineSpec, *, form: str = "general") -> WeightSet:
    """Penalized B-spline calibration weights.

    `form` selects the general penalized expression or, at lambda = 0, the
    algebraically equivalent projection expression.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown weight form {form!r}")
    return _spline_weights(draw, spec, "BS(m={m},K={K},lam={lam:g})", vector=_FORMS[form])


# The splines of poststratification and GREG, which `post_weights`,
# `greg_weights` and their `simulate.FAMILIES` entries all read.

def post_spline(K: int) -> SplineSpec:
    """The order-1 unpenalized spline with K cut points."""
    return SplineSpec(order=1, interior_knots=K)


def greg_spline() -> SplineSpec:
    """The order-2 spline without interior knots: it spans {1, z}."""
    return SplineSpec(order=2, interior_knots=0)


def post_weights(draw, K: int) -> WeightSet:
    """Poststratified weights on `post_spline(K)`. Its normal matrix is
    diagonal, one cell's HT size per entry, so the system's singular
    refusal is an empty poststratum."""
    return _spline_weights(draw, post_spline(K), "POST(K={K})", "empty poststratum")


def greg_weights(draw) -> WeightSet:
    """Linear-model calibration on (1, z): Sum w = N and Sum w z = Sum_U z,
    on the spline system of `greg_spline()`."""
    if np.count_nonzero(np.ptp(draw.sample_z, axis=-1) == 0):
        raise ValueError("collinear design: sample covariate is constant")
    return _spline_weights(draw, greg_spline(), "GREG", "collinear design")
