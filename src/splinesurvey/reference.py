"""Independent references that the tests compare the library against.

Each function recomputes, by a route of its own, a quantity the estimation
modules compute another way: the truncated-power basis spans the B-splines'
space, the SRSWOR closed form is one stratum of the variances' cells,
`joint_prob` reads pi_kl pair by pair, the finite-difference influence
value checks the analytic linearized variables, and the indicator-family
distance bounds how far a weighted measure lies from the census one.

Nothing on the estimation path imports this module; the package's
`__init__` re-exports its names. The influence value and the distance take
one sample's measures and refuse a stack.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .basis import KnotVector
from .functionals import WeightedMeasure, as_scalar
from .variance import VarianceEstimate


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


def joint_prob(draw, k: int, l: int) -> float:
    """Second-order inclusion probability pi_kl of population units k and
    l under the design of the `SampleDraw`; pi_k on the diagonal."""
    N = draw.population.size
    if not (0 <= k < N and 0 <= l < N):
        raise ValueError("unknown unit")
    if k == l:
        return float(draw.pi_full[k])
    group, within = draw.joint_groups([k, l])
    if group[0] == group[1]:
        return float(within[group[0]])
    return float(draw.pi_full[k] * draw.pi_full[l])


def srswor_variance(N: int, n: int, residuals) -> VarianceEstimate:
    """Closed form N^2 (1 - n/N) s^2 / n for SRSWOR of n from N units."""
    e = np.asarray(residuals, dtype=float)
    if not 1 <= n <= N:
        raise ValueError(f"sample size {n} out of range for N={N}")
    if n < 2:
        raise ValueError("variance needs n >= 2")
    if e.shape[-1] != n:
        raise ValueError("residuals length must equal n")
    s2 = as_scalar(np.var(e, axis=-1, ddof=1))
    return VarianceEstimate(N**2 * (1.0 - n / N) * s2 / n, "srswor_closed")


def influence_oracle(functional: Callable[[WeightedMeasure], float],
                     measure: WeightedMeasure, k: int, eps: float,
                     richardson: bool = False) -> float:
    """Finite-difference influence value: [T(M + eps*delta) - T(M)] / eps,
    with delta the point mass at unit k's value.

    Ground truth for the analytic linearized variables. `richardson`
    extrapolates the pair (eps, eps/2) to cancel the leading error term.
    """
    if measure.values.ndim != 1:
        raise ValueError("influence_oracle takes one sample's measure, not an (R, n) stack")
    if eps <= 0:
        raise ValueError("perturbation size must be positive")
    base = functional(measure)

    def diff(e: float) -> float:
        perturbed = WeightedMeasure(np.append(measure.values, measure.values[k]),
                                    np.append(measure.masses, e))
        return (functional(perturbed) - base) / e

    if richardson:
        return 2.0 * diff(eps / 2.0) - diff(eps)
    return diff(eps)


def tv_proxy_distance(measure_a: WeightedMeasure, measure_b: WeightedMeasure,
                      grid_size: int = 200) -> float:
    """Indicator-family lower bound on the total-variation distance.

    Both measures are scaled by the total mass of the reference measure
    (the second argument) and compared through half-line indicators with
    cut points at quantiles of the pooled support.
    """
    if measure_a.values.ndim != 1 or measure_b.values.ndim != 1:
        raise ValueError("tv_proxy_distance takes one sample's measures, not (R, n) stacks")
    if grid_size < 2:
        raise ValueError("grid size must be >= 2")
    ref_mass = measure_b.total_mass
    if ref_mass == 0:
        raise ValueError("reference measure has zero mass")
    support = np.concatenate((measure_a.values, measure_b.values))
    cuts = np.unique(np.quantile(support, np.linspace(0.0, 1.0, grid_size)))
    gaps = measure_a.mass_at_most(cuts) - measure_b.mass_at_most(cuts)
    return float(np.max(np.abs(gaps))) / abs(ref_mass)
