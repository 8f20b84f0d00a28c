"""Monte Carlo harness: synthetic populations, estimator comparisons,
relative bias / RRMSE / coverage tables, and measure-distance diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .basis import SplineSpec
from .designs import Population, SampleDraw, draw, replicate_seed
from .functionals import (
    Ordering,
    WeightedMeasure,
    gini,
    mean,
    poverty_rate,
    ratio,
    total,
)
from .linearize import (
    linearized_gini,
    linearized_poverty_rate,
    linearized_ratio,
    linearized_total,
    residual_fit,  # noqa: F401 - kept importable from this module
    variance_fit,
)
from .variance import (
    VarianceEstimate,
    closed_form_variance,
    confidence_interval,
    ht_variance_double_sum,
)
from .weights import WeightSet, bspline_weights, greg_weights, ht_weights, post_weights


@dataclass(frozen=True)
class SynthConfig:
    """Wage-like synthetic population generator settings.

    The auxiliary variable is a truncated lognormal "last year's wage"; the
    study variables follow it near-linearly with heteroscedastic noise.
    Truths are computed from the generated population at the start of each
    `run_monte_carlo` call, never hard-coded.
    """

    size: int = 19378
    log_mean: float = 7.3
    log_sd: float = 0.5
    truncate_percentile: float = 99.5
    slope: float = 1.0
    curvature: float = 0.0
    noise_scale: float = 7.0
    x_noise_scale: float = 3.0
    strata_count: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("population size must be >= 1")
        if self.log_sd <= 0 or self.noise_scale < 0:
            raise ValueError("invalid generator configuration")


def synth_population(config: SynthConfig, seed) -> Population:
    """Generate a deterministic synthetic population from the config."""
    rng = np.random.default_rng(seed)
    z = rng.lognormal(config.log_mean, config.log_sd, config.size)
    cap = np.percentile(z, config.truncate_percentile)
    z = np.minimum(z, cap)
    zbar = z.mean()
    noise = rng.standard_normal(config.size)
    y = (config.slope * z
         + config.curvature * (z - zbar) ** 2 / zbar
         + config.noise_scale * np.sqrt(z) * noise)
    x = z + config.x_noise_scale * np.sqrt(z) * rng.standard_normal(config.size)
    variables = {"y": y, "x": x}
    strata = None
    if config.strata_count > 1:
        labels = rng.integers(0, config.strata_count, config.size)
        strata = tuple(f"h{int(v)}" for v in labels)
    ids = tuple(str(i) for i in range(config.size))
    return Population(ids=ids, z=z, variables=variables, strata=strata)


FAMILIES = ("HT", "GREG", "POST", "BS")


@dataclass(frozen=True)
class EstimatorSpec:
    """One entry of the estimator roster."""

    family: str  # HT | GREG | POST | BS
    order: int = 2
    knots: int = 2
    lam: float = 0.0
    penalty_order: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown estimator family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")

    @property
    def label(self) -> str:
        if self.family == "HT" or self.family == "GREG":
            return self.family
        if self.family == "POST":
            return f"POST(K={self.knots})"
        lam = f",lam={self.lam:g}" if self.lam else ""
        if self.lam and self.penalty_order != 1:
            lam += f",p={self.penalty_order}"
        return f"BS({self.order},K={self.knots}{lam})"

    def spline_spec(self) -> SplineSpec:
        order = 1 if self.family == "POST" else self.order
        return SplineSpec(order=order, interior_knots=self.knots,
                          knot_rule="sample_quantile", lam=self.lam,
                          penalty_order=self.penalty_order)

    def build_weights(self, sample: SampleDraw) -> WeightSet:
        return family_weights(sample, self.family, self.spline_spec())


def family_weights(sample: SampleDraw, family: str, spec: SplineSpec) -> WeightSet:
    """Weights of an estimator family (HT, GREG, POST or BS) on a sample.
    Only BS reads the whole spec, POST its knot count, HT and GREG none."""
    if family == "HT":
        return ht_weights(sample)
    if family == "GREG":
        return greg_weights(sample)
    if family == "POST":
        return post_weights(sample, spec.interior_knots)
    if family == "BS":
        return bspline_weights(sample, spec)
    raise ValueError(f"unknown estimator family {family!r}")


@dataclass(frozen=True)
class ParameterSpec:
    """A finite-population parameter to estimate."""

    kind: str  # total | mean | ratio | gini | poverty_rate
    variable: str = "y"
    denominator: str = "x"
    fraction: float = 0.6
    level: float = 0.5
    # poverty_rate: < instead of <= at the threshold. The label does not
    # show it, and the linearization (hence variances and coverage) keeps
    # the weak indicator, which differs only by mass exactly at the threshold.
    strict: bool = False

    def __post_init__(self):
        if self.kind not in ("total", "mean", "ratio", "gini", "poverty_rate"):
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "ratio":
            return f"ratio({self.variable}/{self.denominator})"
        return f"{self.kind}({self.variable})"

    def evaluate(self, values: dict, masses: np.ndarray,
                 orderings: dict | None = None) -> float:
        """The parameter at the measure with `masses` on the sample `values`
        (variable name -> array). `orderings` maps variable names to an
        `Ordering` built on the same arrays, so that every estimator on one
        sample shares one sort of each variable."""
        ordering = orderings.get(self.variable) if orderings else None
        m = WeightedMeasure(values[self.variable], masses, ordering)
        if self.kind == "total":
            return total(m)
        if self.kind == "mean":
            return mean(m)
        if self.kind == "ratio":
            return ratio(m, WeightedMeasure(values[self.denominator], masses))
        if self.kind == "gini":
            return gini(m)
        return poverty_rate(m, self.fraction, self.level, self.strict)

    def truth(self, population: Population, orderings: dict | None = None) -> float:
        return self.evaluate(population.variables, np.ones(population.size),
                             orderings)

    def linearized(self, values: dict, weights: np.ndarray,
                   orderings: dict | None = None) -> np.ndarray:
        """Linearized variable on the sample; `orderings` as in `evaluate`."""
        y = np.asarray(values[self.variable], dtype=float)
        ordering = orderings.get(self.variable) if orderings else None
        if self.kind == "total":
            return linearized_total(y).values
        if self.kind == "mean":
            # mean = ratio with a unit denominator variable
            return linearized_ratio(y, np.ones_like(y), weights).values
        if self.kind == "ratio":
            x = np.asarray(values[self.denominator], dtype=float)
            return linearized_ratio(y, x, weights).values
        if self.kind == "gini":
            return linearized_gini(y, weights, ordering).values
        return linearized_poverty_rate(y, weights, self.fraction,
                                       self.level, ordering).values


@dataclass(frozen=True)
class SimulationPlan:
    """Full Monte Carlo protocol: design, roster, parameters, replication."""

    design: object
    estimators: tuple
    parameters: tuple
    replicates: int
    level: float = 0.95
    master_seed: int = 0
    variance_method: str = "closed"  # closed | double_sum

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if not 0 < self.level < 1:
            raise ValueError(f"confidence level must lie in (0,1), got {self.level!r}")
        if self.variance_method not in ("closed", "double_sum"):
            raise ValueError(f"unknown variance method {self.variance_method!r}; "
                             "choose closed or double_sum")
        if not self.estimators:
            raise ValueError("estimator roster must be nonempty")
        if not any(e.family == "HT" for e in self.estimators):
            raise ValueError("roster must include HT (RRMSE reference)")
        # results are keyed by label, so a repeat would merge two cells
        for kind, specs in (("parameter", self.parameters),
                            ("estimator", self.estimators)):
            labels = [spec.label for spec in specs]
            if len(set(labels)) != len(labels):
                raise ValueError(f"{kind} labels must be distinct: {labels}")


@dataclass
class MetricRow:
    """Summary metrics for one (parameter, estimator) pair."""

    rb_percent: float
    rrmse_percent: float
    coverage_percent: float
    negative_variances: int
    mean_runtime: float
    absolute_bias_flag: bool = False


class MetricsTable:
    """Per-(parameter, estimator) Monte Carlo metrics with table rendering."""

    def __init__(self, rows: dict, truths: dict, replicates: int):
        self.rows = rows
        self.truths = truths
        self.replicates = replicates

    def row(self, parameter: str, estimator: str) -> MetricRow:
        return self.rows[(parameter, estimator)]

    def render(self) -> str:
        params = sorted({p for p, _ in self.rows})
        ests = []
        for _, e in self.rows:
            if e not in ests:
                ests.append(e)
        width = max(len(e) for e in ests) + 2
        lines = [f"replicates: {self.replicates}"]
        for p in params:
            lines.append(f"\n{p}  (truth {self.truths[p]:.6g})")
            lines.append("  " + "estimator".ljust(width)
                         + "RRMSE (RB)".rjust(16) + "coverage".rjust(10)
                         + "neg-var".rjust(9))
            for e in ests:
                r = self.rows[(p, e)]
                cell = f"{r.rrmse_percent:.0f} ({r.rb_percent:.1f})"
                lines.append("  " + e.ljust(width) + cell.rjust(16)
                             + f"{r.coverage_percent:.1f}".rjust(10)
                             + str(r.negative_variances).rjust(9))
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            wr = csv.writer(fh)
            wr.writerow(["parameter", "estimator", "truth", "rb_percent",
                         "rrmse_percent", "coverage_percent",
                         "negative_variances", "mean_runtime_s"])
            for (p, e), r in sorted(self.rows.items(), key=lambda kv: kv[0]):
                wr.writerow([p, e, self.truths[p], r.rb_percent,
                             r.rrmse_percent, r.coverage_percent,
                             r.negative_variances, r.mean_runtime])


@dataclass(frozen=True)
class Estimate:
    """One parameter estimated with one weight set on one sample.

    `u` is the parameter's linearized variable at the HT weights and
    `fitted` its fit on the weights' spline system; the variance is that
    of the residuals `u - fitted`. `interval` is None when the variance
    is negative.
    """

    point: float
    u: np.ndarray
    fitted: np.ndarray
    variance: VarianceEstimate
    interval: tuple | None

    @property
    def residuals(self) -> np.ndarray:
        return self.u - self.fitted


class SampleData:
    """What every estimator on one sample shares: the sample values, one
    `Ordering` per variable (one sort of each, built on first use) and
    each parameter's linearized variable at the HT weights."""

    def __init__(self, sample: SampleDraw, parameters: Sequence):
        self.sample = sample
        self.values = {name: vals[sample.indices]
                       for name, vals in sample.population.variables.items()}
        self.orderings = {name: Ordering(vals) for name, vals in self.values.items()}
        ht = 1.0 / sample.pi
        self.linearized = {p.label: p.linearized(self.values, ht, self.orderings)
                           for p in parameters}

    def estimate(self, ws: WeightSet, parameter: ParameterSpec,
                 variance_method: str, level: float) -> Estimate:
        """Point estimate with weights `ws`, variance of the residuals of the
        linearized variable on the weights' own fit by `variance_method`
        ("closed" or "double_sum"), and the normal interval at `level`."""
        point = parameter.evaluate(self.values, ws.weights, self.orderings)
        u = self.linearized[parameter.label]
        fitted = variance_fit(ws, u)
        resid = u - fitted
        if variance_method == "double_sum":
            v = ht_variance_double_sum(self.sample, resid)
        else:
            v = closed_form_variance(self.sample, resid)
        interval = None if v.negative else confidence_interval(point, v, level)
        return Estimate(point, u, fitted, v, interval)


def run_monte_carlo(plan: SimulationPlan, population: Population) -> MetricsTable:
    """Run the full replication protocol and aggregate the metric table.

    Replicates are driven by seeds derived from the master seed and the
    replicate index, so results do not depend on execution order. Each
    variable is sorted at most once for the truths and once per replicate:
    the truths share one `Ordering` per variable, and every estimator on a
    sample shares its `SampleData`. Each cell keeps only (point, interval)
    per replicate.
    """
    census = {name: Ordering(vals) for name, vals in population.variables.items()}
    truths = {p.label: p.truth(population, census) for p in plan.parameters}
    del census  # the population-sized sort is not needed past the truths
    est_labels = [e.label for e in plan.estimators]
    outcomes: dict = {(p.label, e): [] for p in plan.parameters for e in est_labels}
    runtime: dict = {e: 0.0 for e in est_labels}

    for i in range(plan.replicates):
        sample = draw(population, plan.design, replicate_seed(plan.master_seed, i))
        data = SampleData(sample, plan.parameters)
        for est in plan.estimators:
            tic = time.perf_counter()
            ws = est.build_weights(sample)
            for p in plan.parameters:
                e = data.estimate(ws, p, plan.variance_method, plan.level)
                outcomes[(p.label, est.label)].append((e.point, e.interval))
            runtime[est.label] += time.perf_counter() - tic

    rows: dict = {}
    for p in plan.parameters:
        theta = truths[p.label]
        rmse_ht = _rmse([point for point, _ in outcomes[(p.label, "HT")]], theta)
        for e in est_labels:
            key = (p.label, e)
            vals = np.asarray([point for point, _ in outcomes[key]])
            intervals = [ci for _, ci in outcomes[key] if ci is not None]
            covered = sum(1 for lo, hi in intervals if lo <= theta <= hi)
            if theta != 0:
                rb = 100.0 * float(np.mean(vals - theta)) / theta
                abs_flag = False
            else:
                rb = float(np.mean(vals - theta))
                abs_flag = True
            rrmse = 100.0 * (_rmse(vals, theta) / rmse_ht) if rmse_ht > 0 else np.nan
            cov = 100.0 * covered / len(intervals) if intervals else np.nan
            rows[key] = MetricRow(
                rb_percent=rb,
                rrmse_percent=float(rrmse),
                coverage_percent=float(cov),
                negative_variances=len(outcomes[key]) - len(intervals),
                mean_runtime=runtime[e] / plan.replicates,
                absolute_bias_flag=abs_flag,
            )
    return MetricsTable(rows, truths, plan.replicates)


def _rmse(values, theta: float) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean((v - theta) ** 2)))


def tv_proxy_distance(measure_a: WeightedMeasure, measure_b: WeightedMeasure,
                      grid_size: int = 200) -> float:
    """Indicator-family lower bound on the total-variation distance.

    Both measures are scaled by the total mass of the reference measure
    (the second argument) and compared through half-line indicators with
    cut points at quantiles of the pooled support.
    """
    if grid_size < 2:
        raise ValueError("grid size must be >= 2")
    ref_mass = measure_b.total_mass
    if ref_mass == 0:
        raise ValueError("reference measure has zero mass")
    support = np.concatenate((measure_a.values, measure_b.values))
    cuts = np.unique(np.quantile(support, np.linspace(0.0, 1.0, grid_size)))
    gaps = measure_a.mass_at_most(cuts) - measure_b.mass_at_most(cuts)
    return float(np.max(np.abs(gaps))) / abs(ref_mass)
