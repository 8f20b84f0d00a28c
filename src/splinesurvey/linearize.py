"""Linearized variables (influence functions) and their spline residuals.

Nonlinear parameters are reduced to surrogate totals of per-unit linearized
variables u_k; variance estimation then treats the residuals of u_k against
a spline fit on the covariate as if they were the study variable. Every
linearization takes the measure its functional is evaluated at (one
`WeightedMeasure` of one weight set: the census at unit masses, a sample at
its HT weights), of one sample, (n,), or of a stack, (R, n), row by row;
the measure brings its masses and its sort, so nothing is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SplineSpec
from .functionals import (
    WeightedMeasure,
    _common_weights,
    as_column,
    as_scalar,
    cdf_value,
    gini,
    matvec,
    quantile,
    row_dot,
    total,
)
from .weights import SplineSystem, WeightSet


@dataclass(eq=False)
class LinearizedVariables:
    """Per-unit influence values for one functional."""

    values: np.ndarray
    functional: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ValueError("linearized variables must be finite")


@dataclass(eq=False)
class ResidualFit:
    """Spline fit of linearized variables and its residuals on the sample."""

    fitted: np.ndarray
    residuals: np.ndarray
    spec: SplineSpec


def linearized_total(values) -> LinearizedVariables:
    """A total is linear: the influence value is the value itself."""
    return LinearizedVariables(np.asarray(values, dtype=float), "total")


def linearized_ratio(measure_y: WeightedMeasure,
                     measure_x: WeightedMeasure | None = None) -> LinearizedVariables:
    """Influence values of the ratio of two totals: (y - R x) / t_x, with R
    and t_x estimated at the masses of `measure_y` (ones for the census,
    HT weights on a sample). `measure_x` holds x on the same masses;
    without it x is 1, and the ratio is the mean."""
    y, w = measure_y.values, measure_y.masses
    if measure_x is not None:
        _common_weights(measure_y, measure_x)
    x = np.ones_like(y) if measure_x is None else measure_x.values
    tx = as_scalar(row_dot(w, x))
    if np.count_nonzero(tx == 0):
        raise ValueError("ratio linearization undefined: zero denominator")
    R = as_scalar(row_dot(w, y)) / tx
    return LinearizedVariables((y - as_column(R) * x) / as_column(tx), "ratio")


def linearized_gini(measure: WeightedMeasure) -> LinearizedVariables:
    """Influence values of the Gini index under the weak-CDF convention.

    u_k = 2 F(y_k) (y_k - ybar_k) / t_y - y_k (1 + G) / t_y + (1 - G) / N
    with ybar_k the mass-weighted sum of values strictly below y_k divided
    by the mass weakly at or below y_k. That pairing (strict numerator,
    weak denominator) is the one validated against the finite-difference
    influence value of the tests' references (`reference.influence_oracle`).
    F and ybar are read off the measure's sort, which the Gini itself reads.
    """
    y = measure.values
    if measure.size < 2:
        raise ValueError("Gini undefined for a single atom")
    nhat = measure.total_mass
    ty = total(measure)
    if np.count_nonzero(ty == 0) or np.count_nonzero(nhat == 0):
        raise ValueError("Gini linearization undefined: zero total")
    G = as_column(gini(measure))
    nhat, ty = as_column(nhat), as_column(ty)
    F = measure.mass_at_most_own() / nhat
    below = measure.weighted_sum_below_own() / nhat
    u = (2.0 * (F * y - below) / ty
         - y * (1.0 + G) / ty
         + (1.0 - G) / nhat)
    return LinearizedVariables(u, "gini")


def silverman_bandwidth(measure: WeightedMeasure):
    """Rule-of-thumb kernel bandwidth for a weighted sample (for positive
    weights): 0.9 min(sd, IQR / 1.349) n_eff^-0.2. The quartiles are
    `quantile` of the measure, read off its sort."""
    y, weights = measure.values, measure.masses
    total_w = weights.sum(axis=-1)
    w = weights / as_column(total_w)
    mu = as_scalar(row_dot(w, y))
    sd = np.sqrt(np.maximum(row_dot(w, (y - as_column(mu)) ** 2), 0.0))
    q25, q75 = (quantile(measure, level) for level in (0.25, 0.75))
    spread = as_scalar(np.where(q75 > q25, np.minimum(sd, (q75 - q25) / 1.349), sd))
    n_eff = as_scalar(total_w ** 2 / (weights**2).sum(axis=-1))
    # a constant sample's sd can round above zero
    constant = measure._sorted_y[..., 0] == measure._sorted_y[..., -1]
    if np.count_nonzero((spread <= 0) | constant) or np.count_nonzero(n_eff <= 0):
        raise ValueError("degenerate sample for bandwidth selection")
    return 0.9 * spread * n_eff ** (-0.2)


def weighted_gaussian_density(y_points, measure: WeightedMeasure, bandwidth) -> np.ndarray:
    """Weighted Gaussian kernel density estimate of the measure at the given
    points (a stack takes a row of points and a bandwidth per sample)."""
    y, weights = measure.values, measure.masses
    pts = np.atleast_1d(np.asarray(y_points, dtype=float))
    u = (pts[..., :, None] - y[..., None, :]) / as_column(as_column(bandwidth))
    kern = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    return matvec(kern, weights) / as_column(weights.sum(axis=-1) * bandwidth)


def linearized_poverty_rate(measure: WeightedMeasure, fraction: float = 0.6,
                            level: float = 0.5) -> LinearizedVariables:
    """Influence values of the low-income proportion.

    Accounts for the estimated threshold through a kernel density at the
    threshold and at the quantile. The formula follows the standard
    linearization from the poverty-measurement literature, not a display
    in the source material for the rest of this package; reports flag it
    accordingly. The quantile is `quantile` and the proportion P is
    `cdf_value` at the threshold, as in `poverty_rate`; the bandwidth and
    the density read the same measure.
    """
    y = measure.values
    if measure.size < 10:
        raise ValueError("poverty-rate linearization needs n >= 10")
    nhat = measure.total_mass
    q = quantile(measure, level)
    t = fraction * q
    P = cdf_value(measure, t)
    h = silverman_bandwidth(measure)
    density = weighted_gaussian_density(np.stack([t, q], axis=-1), measure, h)
    f_t, f_q = density[..., 0], density[..., 1]
    if np.count_nonzero(f_q < 1e-12):
        raise ValueError("density too small at the quantile")
    adj = fraction * f_t / f_q
    t, q, P, adj = map(as_column, (t, q, P, adj))
    u = ((y <= t).astype(float) - P - adj * ((y <= q).astype(float) - level)) / as_column(nhat)
    return LinearizedVariables(u, "poverty_rate")


def residual_fit(draw, spec: SplineSpec, u_on_sample) -> ResidualFit:
    """Spline fit of linearized variables on the sampled covariates."""
    u = np.asarray(u_on_sample, dtype=float)
    system = SplineSystem(draw, spec)
    fitted = system.fitted(u)
    return ResidualFit(fitted=fitted, residuals=u - fitted, spec=spec)


def variance_fit(weights: WeightSet, u_on_sample) -> np.ndarray:
    """Fit of linearized variables whose residuals enter an estimator's
    variance: the fit on the weights' own spline system (the same fit as
    `residual_fit` with its spec; for GREG the order-2 spline without
    interior knots, which spans {1, z}), and zero for HT.
    """
    u = np.asarray(u_on_sample, dtype=float)
    if weights.system is not None:
        return weights.system.fitted(u)
    if weights.family == "HT":
        return np.zeros_like(u)
    raise ValueError(f"no variance fit for weight family {weights.family!r}")
