"""Design-based variance estimation and normal-approximation intervals.

Residuals come as one sample's, (n,), or a stack's, (R, n); the estimates
are then one float, or one value per sample. Leading axes before those
(the residuals of several variables, (P, n) or (P, R, n)) lead the
estimates, one row per variable, each computed as that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .designs import SampleDraw, Srswor, StratumCodes
from .functionals import as_scalar
from .weights import SplineSystem


@dataclass
class VarianceEstimate:
    """A variance value with its computation route and sign flag (arrays,
    one entry per sample, for a stack); the flag is derived from the value."""

    value: float | np.ndarray
    method: str
    negative: bool | np.ndarray = field(init=False)

    def __post_init__(self):
        self.negative = self.value < 0


def _cell_spreads(draw: SampleDraw, e: np.ndarray) -> tuple:
    """The kernel of both variance routes: the draw's cells
    (`SampleDraw.pair_cells`) and, per cell, the mean tbar of t = e / pi
    over its units and their spread R = sum (t - tbar)^2, both 0 in an
    empty cell. Each nonempty cell is one segment of the units sorted by
    cell, so each sum is one `np.add.reduceat` over the segments. Axes of
    `e` before the draw's (several variables' residuals) lead tbar and R,
    and each row's sums are that row's alone."""
    cells = draw.pair_cells
    t = (e / draw.pi).reshape(e.shape[:-draw.indices.ndim] + (-1,))
    if not isinstance(cells.order, slice):  # `take` is numpy's fast gather along an axis
        t = t.take(cells.order, axis=-1)
    size = cells.count[cells.occupied]
    mean = np.add.reduceat(t, cells.starts, axis=-1) / size
    r = t - np.repeat(mean, size, axis=-1)
    tbar, spread = np.zeros((2, *t.shape[:-1], cells.count.size))
    tbar[..., cells.occupied] = mean
    spread[..., cells.occupied] = np.add.reduceat(r * r, cells.starts, axis=-1)
    return cells, tbar, spread


def ht_variance_double_sum(draw: SampleDraw, residuals) -> VarianceEstimate:
    """General double-sum variance estimator over sampled pairs, in O(n).

    Sum over k,l in s of (Delta_kl / pi_kl) (e_k / pi_k) (e_l / pi_l),
    evaluated from the design's joint-probability groups
    (`SampleDraw.joint_groups`) without any n x n array. Between groups
    pi_kl = pi_k pi_l, so those pairs add nothing. Inside group g, with
    n_g sampled units, one first-order probability p_g, pair probability
    c_g, t = e / pi, group mean tbar_g and centred sum of squares
    R_g = sum (t - tbar_g)^2, the group contributes

        (d_g - a_g) R_g + n_g tbar_g^2 (d_g + (n_g - 1) a_g),

    with d_g = 1 - p_g and a_g = (c_g - p_g^2) / c_g, the same coefficient
    the pairwise sum uses. The first term, the spread term, is the whole
    of `closed_form_variance`. The bracket of the second, the level term,
    cancels exactly for SRSWOR groups, so in floating point that term is of
    order eps * n_g tbar_g^2 (1 - p_g), and the relative rounding error
    grows like eps * (tbar / sd(t))^2. Measured against an 80-bit
    evaluation of the pairwise sum with the same pi_kl (SRSWOR, n = 500 of
    N = 2000, residual mean in units of their sd): 1e-15 up to 3 sd, 9e-15
    at 10, 9e-13 at 100 and 9e-11 at 1000; the float64 pairwise sum gave
    1e-15, 3e-14, 1e-12 and 2e-10.

    Everything that depends on the draw alone (the cells, n_g, d_g - a_g
    and d_g + (n_g - 1) a_g, and the checks on pi) is built once per draw
    (`SampleDraw.pair_cells`) and shared by all of its variances; a call
    computes t, tbar_g and R_g over the nonempty cells (`_cell_spreads`,
    the closed form's kernel too) and the terms.

    May be negative for pathological joint probabilities; the sign is
    flagged, never clipped.
    """
    e = np.asarray(residuals, dtype=float)
    if e.shape[-draw.indices.ndim:] != draw.indices.shape:
        raise ValueError("residuals length must match the sample size")
    cells, tbar, spread = _cell_spreads(draw, e)
    terms = cells.spread_coef * spread + cells.count * tbar * tbar * cells.level_coef
    value = terms.reshape(e.shape[:-1] + (-1,)).sum(axis=-1)
    return VarianceEstimate(as_scalar(value), "double_sum")


def closed_form_variance(draw: SampleDraw, residuals) -> VarianceEstimate:
    """The SRSWOR closed form N_h^2 (1 - n_h/N_h) s_h^2 / n_h summed over the
    strata the draw's design states (`design.strata`; SRSWOR is one
    stratum), labelled `design.closed_form`.

    It is the SRSWOR case of `ht_variance_double_sum`: each stratum is a
    joint group whose level coefficient d + (n_h - 1) a is zero, so the
    closed form is the spread term alone, the sum over the draw's cells of
    (d - a) R, from the same per-draw cells and kernel (`_cell_spreads`).
    Every stratum of every sample needs n_h >= 2 or to be a census
    (n_h = N_h), the rule `check_variance` applies to a design; the first
    stratum short of that, an unsampled one included, is named. A census
    stratum adds 0, since its finite-population factor 1 - n_h/N_h is 0.
    """
    e = np.asarray(residuals, dtype=float)
    d = draw.design
    if d.closed_form is None:
        raise TypeError("no closed form for this design; use the double sum")
    # checked here: the per-stratum message names a stratum
    if draw.size < 2 and draw.size < draw.population.size:
        raise ValueError("variance needs n >= 2")
    if e.shape[-draw.indices.ndim:] != draw.indices.shape:
        raise ValueError("residuals length must equal n")
    strata = draw.strata[0]
    count = draw.pair_cells.count.reshape(-1, len(strata.labels))
    short = ((count < 2) & (count < strata.sizes)).any(axis=0)
    if short.any():
        raise ValueError(f"variance needs n_h >= 2 in stratum "
                         f"{strata.labels[short.argmax()]!r}")
    cells, _, spread = _cell_spreads(draw, e)
    value = (cells.spread_coef * spread).reshape(e.shape[:-1] + (-1,)).sum(axis=-1)
    return VarianceEstimate(as_scalar(value), d.closed_form)


# How each variance route (`simulate.VARIANCE_METHODS`) names itself when refused.
_REFUSED_AS = {"closed": "variance", "double_sum": "double-sum variance"}


def check_variance(method: str, strata: StratumCodes, sizes: list) -> None:
    """Refuse the variance `method` for a design whose strata (`strata`,
    with sample sizes `sizes`, as `design.strata` gives them) include one
    with a single sampled unit out of several (n_h = 1 < N_h), naming it.
    No two units of such a stratum are ever sampled together (pi_kl = 0),
    so no variance estimator is unbiased: the closed form has no s_h^2 and
    the HT double sum is biased. Every other stratum has n_h >= 2 or is a
    census (n_h = N_h), which adds 0 to either route. Poisson sampling
    states no strata and is not checked."""
    for h, nh, Nh in zip(strata.labels, sizes, strata.sizes.tolist()):
        if nh < 2 and nh < Nh:
            if h is None:
                raise ValueError(f"{_REFUSED_AS[method]} needs n >= 2 (n = {nh} of N = {Nh})")
            raise ValueError(f"{_REFUSED_AS[method]} needs n_h >= 2 in stratum {h!r} "
                             f"(n_h = {nh} of N_h = {Nh})")


def population_asymptotic_variance(population, design, u_values, spec) -> float:
    """Simulation-truth variance: census spline fit of u, then the HT
    design variance of the total of the population residuals.

    The census fit is the `SplineSystem` fit of a draw holding every unit
    with pi_k = 1. The design variance is the SRSWOR closed form with the
    population dispersion of the residuals, summed over the strata the
    design states (`design.strata`; SRSWOR is one stratum).
    """
    if design.closed_form is None:
        raise TypeError("no closed form for this design")
    u = np.asarray(u_values, dtype=float)
    N = population.size
    if u.size != N:
        raise ValueError("needs one linearized value per population unit")
    strata, sizes = design.strata(population)
    census = SampleDraw(population, Srswor(N), np.arange(N), np.ones(N))
    residuals = u - SplineSystem(census, spec).fitted(u)
    return sum(_population_closed_form(members.size, nh, residuals[members])
               for members, nh in zip(strata.members, sizes))


def _population_closed_form(N: int, n: int, e: np.ndarray) -> float:
    """N^2 (1 - n/N) S^2 / n with the population dispersion S^2 of e."""
    return 0.0 if n == N else N**2 * (1.0 - n / N) * float(np.var(e, ddof=1)) / n


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF (`statistics.NormalDist().inv_cdf`)."""
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie in (0,1)")
    return NormalDist().inv_cdf(prob)


def check_level(level: float) -> None:
    """Refuse a confidence level outside (0,1)."""
    if not 0 < level < 1:
        raise ValueError(f"confidence level must lie in (0,1), got {level!r}")


def confidence_interval(estimate, variance, level: float = 0.95) -> tuple:
    """Normal-approximation interval: estimate +/- z * sqrt(variance); for a
    stack, arrays of lower and upper ends. `level` must lie in (0,1)."""
    check_level(level)
    v = variance.value if isinstance(variance, VarianceEstimate) else variance
    if np.count_nonzero(v < 0):
        raise ValueError("negative variance estimate; interval undefined")
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * np.sqrt(v)
    return (estimate - half, estimate + half)
