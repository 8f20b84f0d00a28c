"""Design-based variance estimation and normal-approximation intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import SampleDraw, Srswor, StratifiedSrswor


@dataclass
class VarianceEstimate:
    """A variance value with its computation route and sign flag."""

    value: float
    method: str
    negative: bool = False

    def __post_init__(self):
        self.negative = self.value < 0


def ht_variance_double_sum(draw: SampleDraw, residuals) -> VarianceEstimate:
    """General double-sum variance estimator over sampled pairs.

    Sum over k,l in s of (Delta_kl / pi_kl) (e_k / pi_k) (e_l / pi_l).
    May be negative for pathological joint probabilities; the sign is
    flagged, never clipped.
    """
    e = np.asarray(residuals, dtype=float)
    if e.size != draw.size:
        raise ValueError("residuals length must match the sample size")
    pi = draw.pi
    pkl = draw.joint_matrix()
    if np.any(pkl <= 0):
        raise ValueError("zero joint inclusion probability encountered")
    # Delta_kl / pi_kl in one work array, so at most two n x n arrays live
    work = np.outer(pi, pi)
    np.subtract(pkl, work, out=work)
    np.fill_diagonal(work, pi * (1.0 - pi))
    np.divide(work, pkl, out=work)
    t = e / pi
    value = float(t @ work @ t)
    return VarianceEstimate(value, "double_sum")


def srswor_variance(N: int, n: int, residuals) -> VarianceEstimate:
    """Closed form N^2 (1 - n/N) s^2 / n for SRSWOR."""
    e = np.asarray(residuals, dtype=float)
    if n < 2:
        raise ValueError("variance needs n >= 2")
    if e.size != n:
        raise ValueError("residuals length must equal n")
    s2 = float(np.var(e, ddof=1))
    return VarianceEstimate(N**2 * (1.0 - n / N) * s2 / n, "srswor_closed")


def stsi_variance(per_stratum) -> VarianceEstimate:
    """Sum of per-stratum SRSWOR closed forms.

    `per_stratum` maps stratum label -> (N_h, residual vector on s_h).
    """
    value = 0.0
    for h, (Nh, e_h) in per_stratum.items():
        e_h = np.asarray(e_h, dtype=float)
        nh = e_h.size
        if nh < 2:
            raise ValueError(f"variance needs n_h >= 2 in stratum {h!r}")
        value += srswor_variance(Nh, nh, e_h).value
    return VarianceEstimate(value, "stsi_closed")


def closed_form_variance(draw: SampleDraw, residuals) -> VarianceEstimate:
    """Design-matched closed form dispatcher for SRSWOR and stratified SRSWOR."""
    e = np.asarray(residuals, dtype=float)
    d = draw.design
    if isinstance(d, Srswor):
        return srswor_variance(draw.population.size, d.n, e)
    if isinstance(d, StratifiedSrswor):
        strata = np.asarray(draw.population.strata, dtype=object)
        labels = strata[draw.indices]
        per = {}
        for h in d.allocations:
            Nh = int(np.sum(strata == h))
            per[h] = (Nh, e[labels == h])
        return stsi_variance(per)
    raise TypeError("no closed form for this design; use the double sum")


def population_residual_variance(draw: SampleDraw, residuals_U) -> float:
    """Design variance of the HT total of given population-level residuals.

    Uses the closed forms with population (not sample) dispersion; this is
    the simulation-truth asymptotic variance for a plug-in estimator whose
    population residuals are supplied.
    """
    e = np.asarray(residuals_U, dtype=float)
    N = draw.population.size
    if e.size != N:
        raise ValueError("needs one residual per population unit")
    d = draw.design
    if isinstance(d, Srswor):
        if d.n == N:
            return 0.0
        S2 = float(np.var(e, ddof=1))
        return N**2 * (1.0 - d.n / N) * S2 / d.n
    if isinstance(d, StratifiedSrswor):
        strata = np.asarray(draw.population.strata, dtype=object)
        out = 0.0
        for h, nh in d.allocations.items():
            e_h = e[strata == h]
            Nh = e_h.size
            if nh == Nh:
                continue
            out += Nh**2 * (1.0 - nh / Nh) * float(np.var(e_h, ddof=1)) / nh
        return out
    raise TypeError("no closed form for this design")


def population_asymptotic_variance(population, design, u_values, spec) -> float:
    """Simulation-truth variance: census spline fit of u, then the HT
    design variance of the total of the population residuals.
    """
    from .basis import basis_matrix, build_knots, normalize_covariate, penalty_matrix

    u = np.asarray(u_values, dtype=float)
    if u.size != population.size:
        raise ValueError("needs one linearized value per population unit")
    z01, _ = normalize_covariate(population.z)
    knots = build_knots(spec, z01)
    B = basis_matrix(knots, spec.order, z01)
    A = B.T @ B
    if spec.lam > 0:
        A = A + spec.lam * penalty_matrix(spec, knots)
    theta = np.linalg.solve(A, B.T @ u)
    residuals = u - B @ theta
    draw = _census_like(population, design)
    return population_residual_variance(draw, residuals)


def _census_like(population, design) -> SampleDraw:
    """A draw object used only for its design dispatch, seed-independent."""
    from .designs import draw as _draw

    return _draw(population, design, 0)


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF via a rational approximation (~1e-9).

    Self-contained so interval endpoints are bit-stable across platforms.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie in (0,1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if prob < p_low:
        q = np.sqrt(-2.0 * np.log(prob))
        x = ((((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5])
             / ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0))
    elif prob <= 1.0 - p_low:
        q = prob - 0.5
        r = q * q
        x = ((((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5])*q
             / (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1.0))
    else:
        q = np.sqrt(-2.0 * np.log(1.0 - prob))
        x = -((((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5])
              / ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0))
    # one Halley refinement on the complementary error function identity
    import math
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - prob
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return float(x - u / (1.0 + x * u / 2.0))


def confidence_interval(estimate: float, variance: float | VarianceEstimate,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval: estimate +/- z * sqrt(variance)."""
    v = variance.value if isinstance(variance, VarianceEstimate) else variance
    if v < 0:
        raise ValueError("negative variance estimate; interval undefined")
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * np.sqrt(v)
    return (estimate - half, estimate + half)
