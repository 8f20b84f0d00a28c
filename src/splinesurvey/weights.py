"""Survey weight families: Horvitz-Thompson, poststratified, GREG, B-spline.

Each family produces a single weight vector per sample that is reused for
every study variable and every parameter estimated from that sample. All
but HT calibrate on a spline system (`SplineSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    SplineSpec,
    basis_matrix,
    build_knots,
    normalize_covariate,  # noqa: F401 - kept importable from this module
    penalty_matrix,
)

RCOND_SINGULAR = 1e-12


@dataclass
class WeightSet:
    """Weights w_ks for the sampled units, with provenance and diagnostics.

    `system` is the spline system the weights were built from (None for
    HT). It also serves the variance residual fits of every parameter
    estimated with these weights, so a sample's system is built once per
    estimator.
    """

    indices: np.ndarray
    weights: np.ndarray
    family: str
    diagnostics: dict = field(default_factory=dict)
    system: SplineSystem | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.indices.size != self.weights.size:
            raise ValueError("indices and weights length mismatch")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def ht_weights(draw) -> WeightSet:
    """Inverse inclusion-probability weights 1/pi_k."""
    return WeightSet(draw.indices, 1.0 / draw.pi, "HT")


def weighted_total(weights: WeightSet, values_on_sample) -> float:
    """Weighted sum over the sample."""
    v = np.asarray(values_on_sample, dtype=float)
    if v.size != weights.weights.size:
        raise ValueError("values and weights length mismatch")
    return float(weights.weights @ v)


class SplineSystem:
    """Sample spline system shared by weight building and coefficient fits.

    Holds the knots, the sample and population basis summaries, and the
    factor-ready normal matrix B_s' Pi^-1 B_s + lambda D_p. The system
    behind a sample's weights also gives the fits of the linearized
    variables whose residuals enter the variance (`WeightSet.system`).
    The population side comes from the population's cached
    `covariate_summary`, so a build costs O(K m^2 + N / block) there
    instead of O(N m q), and nothing when the knots do not depend on the
    sample (`CovariateSummary.fixed_knot_totals`).
    """

    def __init__(self, draw, spec: SplineSpec):
        self.spec = spec
        covariate = draw.population.covariate_summary
        self.scale = covariate.scale
        z_s = self.scale.apply(draw.sample_z)
        m = spec.order
        fixed = covariate.fixed_knot_totals(spec)
        if fixed is None:
            self.knots = build_knots(spec, z_s)
            self.basis_pop_total = covariate.basis_totals(self.knots, m)
        else:
            self.knots, self.basis_pop_total = fixed
        self.basis_sample = basis_matrix(self.knots, m, z_s)
        self.inv_pi = 1.0 / draw.pi
        bw = self.basis_sample * self.inv_pi[:, None]
        A = self.basis_sample.T @ bw
        if spec.lam > 0:
            A = A + spec.lam * penalty_matrix(spec, self.knots)
        self.normal_matrix = A
        cond = np.linalg.cond(A)
        self.rcond = 1.0 / cond if np.isfinite(cond) and cond > 0 else 0.0
        if self.rcond < RCOND_SINGULAR:
            raise ValueError("singular basis system: reduce K or set lambda>0")
        self._weighted_basis = bw

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.normal_matrix, rhs)

    def coefficients(self, values_on_sample) -> np.ndarray:
        """Design-based ridge coefficients for the given sample values."""
        v = np.asarray(values_on_sample, dtype=float)
        return self.solve(self._weighted_basis.T @ v)

    def fitted(self, values_on_sample) -> np.ndarray:
        """Fitted values at the sampled covariates."""
        return self.basis_sample @ self.coefficients(values_on_sample)

    def weight_vector(self) -> np.ndarray:
        """Model-assisted weights for the penalized spline fit."""
        gap = self._weighted_basis.T.sum(axis=1) - self.basis_pop_total
        return self.inv_pi - self._weighted_basis @ self.solve(gap)

    def projection_weight_vector(self) -> np.ndarray:
        """Unpenalized projection form; valid only at lambda = 0."""
        if self.spec.lam != 0:
            raise ValueError("projection weights require lambda = 0")
        return self._weighted_basis @ self.solve(self.basis_pop_total)


def bspline_weights(draw, spec: SplineSpec, *, form: str = "general") -> WeightSet:
    """Penalized B-spline calibration weights.

    `form` selects the general penalized expression or, at lambda = 0, the
    algebraically equivalent projection expression.
    """
    system = SplineSystem(draw, spec)
    if form == "general":
        w = system.weight_vector()
    elif form == "projection":
        w = system.projection_weight_vector()
    else:
        raise ValueError(f"unknown weight form {form!r}")
    tag = f"BS(m={spec.order},K={system.knots.num_interior},lam={spec.lam:g})"
    return _calibrated(draw, system, tag, w)


def post_weights(draw, K: int) -> WeightSet:
    """Poststratified weights: order-1 unpenalized spline with K cut points."""
    spec = SplineSpec(order=1, interior_knots=K, knot_rule="sample_quantile",
                      lam=0.0)
    system = SplineSystem(draw, spec)
    occupancy = (system.basis_sample > 0).sum(axis=0)
    if np.any(occupancy == 0):
        raise ValueError("empty poststratum")
    return _calibrated(draw, system, f"POST(K={system.knots.num_interior})",
                       system.weight_vector())


def greg_weights(draw) -> WeightSet:
    """Linear-model calibration on (1, z): Sum w = N and Sum w z = Sum_U z,
    on the order-2 spline system without interior knots (it spans {1, z})."""
    if np.ptp(draw.sample_z) == 0:
        raise ValueError("collinear design: sample covariate is constant")
    try:
        system = SplineSystem(draw, SplineSpec(order=2, interior_knots=0))
    except ValueError as err:  # with a nonconstant covariate: singular
        raise ValueError("collinear design") from err
    return _calibrated(draw, system, "GREG", system.weight_vector())


def _calibrated(draw, system: SplineSystem, family: str,
                w: np.ndarray) -> WeightSet:
    """The weight set of weights `w` built from a spline system, with the
    calibration diagnostics."""
    resid = system.basis_sample.T @ w - system.basis_pop_total
    scale = 1.0 + np.abs(system.basis_pop_total)
    diagnostics = {
        "calibration_residuals": (resid / scale).tolist(),
        "negative_weight_count": int(np.sum(w < 0)),
        "min_weight": float(w.min()),
        "rcond": system.rcond,
    }
    return WeightSet(draw.indices, w, family, diagnostics=diagnostics,
                     system=system)


def fit_coefficients(draw, spec: SplineSpec, values_on_sample) -> np.ndarray:
    """Design-based spline coefficients for arbitrary sample values."""
    return SplineSystem(draw, spec).coefficients(values_on_sample)
