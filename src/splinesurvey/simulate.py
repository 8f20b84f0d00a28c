"""Monte Carlo harness: synthetic populations, estimator comparisons,
relative bias / RRMSE / coverage tables, and measure-distance diagnostics.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import SplineSpec
from .designs import GivenProbabilities, Population, SampleDraw, draw, replicate_seed
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
    check_level,
    closed_form_variance,
    confidence_interval,
    ht_variance_double_sum,
)
from .weights import WeightSet, bspline_weights, greg_weights, ht_weights, post_weights

# Annotation of a spec field -> (the types its value may have, its name in
# a message). A bool is neither a whole number nor a number here.
FIELD_TYPES = {"str": (str, "a string"), "bool": (bool, "a bool"),
               "int": (numbers.Integral, "a whole number"),
               "float": (numbers.Real, "a number")}


def _check_types(spec) -> None:
    """Refuse, with a ValueError naming the field and the value, a field of
    the dataclass `spec` whose value is not of its annotated type."""
    for f in fields(spec):
        if f.type in FIELD_TYPES:
            value = getattr(spec, f.name)
            kind, name = FIELD_TYPES[f.type]
            if not isinstance(value, kind) or isinstance(value, bool) != (f.type == "bool"):
                raise ValueError(f"{f.name} must be {name}, got {value!r}")


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
        _check_types(self)
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


class EstimatorFamily(NamedTuple):
    """How a family of estimators builds its weights.

    `settings` names the `EstimatorSpec` fields it reads. `spline(spec)` is
    the `SplineSpec` it calibrates on (None for no spline), and
    `weights(sample, spline)` its weight set on a sample or a stack, given
    that spline. `label(spec)` names a roster entry in the tables.
    """

    settings: tuple
    spline: Callable
    weights: Callable
    label: Callable = lambda spec: spec.family


def _bs_label(spec) -> str:
    lam = f",lam={spec.lam:g}" if spec.lam else ""
    if spec.lam and spec.penalty_order != 1:
        lam += f",p={spec.penalty_order}"
    return f"BS({spec.order},K={spec.knots}{lam})"


# Family name -> EstimatorFamily. GREG and POST are the spline system's
# order-2 case without interior knots and its order-1 case. The entries
# look the weight functions up in this module when called, as KINDS does.
FAMILIES = {
    "HT": EstimatorFamily((), lambda e: None, lambda sample, spline: ht_weights(sample)),
    "GREG": EstimatorFamily((), lambda e: SplineSpec(order=2, interior_knots=0),
                            lambda sample, spline: greg_weights(sample)),
    "POST": EstimatorFamily(("knots",), lambda e: SplineSpec(order=1, interior_knots=e.knots),
                            lambda sample, spline: post_weights(sample, spline.interior_knots),
                            lambda e: f"POST(K={e.knots})"),
    "BS": EstimatorFamily(("order", "knots", "lam", "penalty_order"),
                          lambda e: SplineSpec(order=e.order, interior_knots=e.knots,
                                               lam=e.lam, penalty_order=e.penalty_order),
                          lambda sample, spline: bspline_weights(sample, spline), _bs_label),
}


@dataclass(frozen=True)
class EstimatorSpec:
    """One entry of the estimator roster. Its family (a key of FAMILIES)
    reads only some of the spline settings, but every one is range-checked
    as given."""

    family: str
    order: int = 2
    knots: int = 2
    lam: float = 0.0
    penalty_order: int = 1

    def __post_init__(self):
        _check_types(self)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown estimator family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")
        SplineSpec(order=self.order, interior_knots=self.knots, lam=self.lam,
                   penalty_order=self.penalty_order)

    @property
    def label(self) -> str:
        return FAMILIES[self.family].label(self)

    def spline_spec(self) -> SplineSpec | None:
        """The spline the family calibrates on (None: no spline)."""
        return FAMILIES[self.family].spline(self)

    def build_weights(self, sample: SampleDraw) -> WeightSet:
        return FAMILIES[self.family].weights(sample, self.spline_spec())


class ParameterKind(NamedTuple):
    """How a kind of parameter is computed from one weight system.

    `reads` names the `ParameterSpec` fields that hold the variables it
    reads. Both halves take the measures of those variables at one weight
    system, in that order: `functional(spec, *measures)` is the parameter
    at the measures, and `linearized(spec, *measures)` its linearized
    variable there (at the HT weights for a variance, at unit masses for
    the census). `source` cites a linearization that is taken from the
    literature rather than derived here. `settings` names the other
    `ParameterSpec` fields it reads.
    """

    reads: tuple
    functional: Callable
    linearized: Callable
    source: str | None = None
    settings: tuple = ()


# Kind name -> ParameterKind; each half reads the measures of the kind's
# variables. The entries look `total`, `linearized_gini` and the rest up in
# this module when called, so that a wrapper put on one of these names
# (bench/spans.py) sees every call.
KINDS = {
    "total": ParameterKind(("variable",), lambda p, m: total(m),
                           lambda p, m: linearized_total(m.values)),
    # mean = ratio with a unit denominator variable
    "mean": ParameterKind(("variable",), lambda p, m: mean(m),
                          lambda p, m: linearized_ratio(m)),
    "ratio": ParameterKind(("variable", "denominator"), lambda p, my, mx: ratio(my, mx),
                           lambda p, my, mx: linearized_ratio(my, mx)),
    "gini": ParameterKind(("variable",), lambda p, m: gini(m),
                          lambda p, m: linearized_gini(m)),
    "poverty_rate": ParameterKind(
        ("variable",),
        lambda p, m: poverty_rate(m, p.fraction, p.level, p.strict),
        lambda p, m: linearized_poverty_rate(m, p.fraction, p.level),
        "external literature (kernel-density threshold adjustment)",
        settings=("fraction", "level", "strict")),
}


@dataclass(frozen=True)
class ParameterSpec:
    """A finite-population parameter to estimate."""

    kind: str  # a key of KINDS
    variable: str = "y"
    denominator: str = "x"
    fraction: float = 0.6
    level: float = 0.5
    # poverty_rate: < instead of <= at the threshold. The label does not
    # show it, and the linearization (hence variances and coverage) keeps
    # the weak indicator, which differs only by mass exactly at the threshold.
    strict: bool = False

    def __post_init__(self):
        for name, high in (("level", 1), ("fraction", math.inf)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and 0 < value < high):
                raise ValueError(f"{name} must be a number in (0, {high}), got {value!r}")
        _check_types(self)
        if self.kind not in KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}({'/'.join(self.variables)})"

    @cached_property
    def variables(self) -> tuple:
        """The study variables the parameter reads (cached: every cell of
        a Monte Carlo run is keyed by the label, which joins them)."""
        return tuple(getattr(self, name) for name in KINDS[self.kind].reads)

    def measures(self, values: dict, masses: np.ndarray | None,
                 orderings: dict | None = None) -> list:
        """The measures with `masses` (None: unit masses) on the sample
        `values` (variable name -> array) of the variables the parameter
        reads, in `reads` order. `orderings` maps variable names to an
        `Ordering` built on the same arrays, so that every measure on one
        sample shares one sort of each variable."""
        return [WeightedMeasure(values[name], masses, (orderings or {}).get(name))
                for name in self.variables]

    def evaluate(self, values: dict, masses: np.ndarray | None,
                 orderings: dict | None = None) -> float:
        """The parameter at its `measures`: a float for one sample, one
        value per row for an (R, n) stack."""
        return KINDS[self.kind].functional(self, *self.measures(values, masses, orderings))

    def truth(self, population: Population) -> float:
        """The parameter of the census: the measure at unit masses, whose
        quantiles and CDF values select and count instead of sorting."""
        return self.evaluate(population.variables, None)

    def linearized(self, values: dict, weights: np.ndarray | None,
                   orderings: dict | None = None) -> np.ndarray:
        """Linearized variable at its `measures` with masses `weights`."""
        return KINDS[self.kind].linearized(self, *self.measures(values, weights, orderings)).values


# The variance routes `SampleData.estimate` takes: the design's closed form
# and the Horvitz-Thompson double sum.
VARIANCE_METHODS = ("closed", "double_sum")


@dataclass(frozen=True)
class SimulationPlan:
    """Full Monte Carlo protocol: design, roster, parameters, replication."""

    design: object
    estimators: tuple
    parameters: tuple
    replicates: int = 1000
    level: float = 0.95
    master_seed: int = 0
    variance_method: str = "closed"  # one of VARIANCE_METHODS

    def __post_init__(self):
        _check_types(self)
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        check_level(self.level)
        if self.variance_method not in VARIANCE_METHODS:
            raise ValueError(f"unknown variance method {self.variance_method!r}; "
                             f"choose from {', '.join(VARIANCE_METHODS)}")
        if self.design.closed_form is None and self.variance_method == "closed":
            raise ValueError("Poisson sampling (GivenProbabilities) has no closed-form "
                             "variance; use variance_method='double_sum'")
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

    def csv_rows(self) -> list:
        """The header and one row per (parameter, estimator), sorted."""
        return [["parameter", "estimator", "truth", "rb_percent", "rrmse_percent",
                 "coverage_percent", "negative_variances", "mean_runtime_s"]] + [
            [p, e, self.truths[p], r.rb_percent, r.rrmse_percent, r.coverage_percent,
             r.negative_variances, r.mean_runtime]
            for (p, e), r in sorted(self.rows.items(), key=lambda kv: kv[0])]

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(self.csv_rows())


@dataclass(frozen=True, eq=False)
class Estimate:
    """One parameter estimated with one weight set on one sample, or on
    each sample of a stack (then every field has a leading replicate axis).

    `u` is the parameter's linearized variable at the HT weights and
    `fitted` its fit on the weights' spline system; the variance is that
    of the residuals `u - fitted`. `interval` is None when the variance
    is negative; for a stack it holds arrays of lower and upper ends, NaN
    where the variance is negative.
    """

    point: float | np.ndarray
    u: np.ndarray
    fitted: np.ndarray
    variance: VarianceEstimate
    interval: tuple | None

    @property
    def residuals(self) -> np.ndarray:
        return self.u - self.fitted


class SampleData:
    """What every estimator on one sample, or on each sample of a stack,
    shares: the sample values of the variables the parameters read, one
    `Ordering` per variable (one sort of each, built on first use), and
    one measure per variable and weight set. The measures at the HT
    weights 1/pi give each parameter's linearized variable, and a weight
    set equal to those weights (the HT estimator's) reads them too."""

    def __init__(self, sample: SampleDraw, parameters: Sequence):
        self.sample = sample
        names = dict.fromkeys(name for p in parameters for name in p.variables)
        self.values = {name: sample.sample_values(name) for name in names}
        self.orderings = {name: Ordering(vals) for name, vals in self.values.items()}
        # (weights, {variable: measure}) at the HT weights, and at the last
        # weight set estimated with, whose parameters all read its measures
        ht = 1.0 / sample.pi
        self._ht = self._last = (ht, self._measures(ht))
        self.linearized = {p.label: KINDS[p.kind].linearized(p, *map(self._ht[1].get, p.variables))
                           for p in parameters}

    def _measures(self, weights: np.ndarray) -> dict:
        """{variable: its measure at `weights`, on its shared ordering}."""
        return {name: WeightedMeasure(vals, weights, self.orderings[name])
                for name, vals in self.values.items()}

    def estimate(self, ws: WeightSet, parameter: ParameterSpec,
                 variance_method: str, level: float) -> Estimate:
        """Point estimate with weights `ws`, variance of the residuals of the
        linearized variable on the weights' own fit by `variance_method`
        (one of VARIANCE_METHODS), and the normal interval at `level`."""
        weights, measures = self._last
        if ws.weights is not weights:  # a new weight set: measure it once
            measures = (self._ht[1] if np.array_equal(ws.weights, self._ht[0])
                        else self._measures(ws.weights))
            self._last = (ws.weights, measures)
        point = KINDS[parameter.kind].functional(parameter,
                                                 *map(measures.get, parameter.variables))
        u = self.linearized[parameter.label].values
        fitted = variance_fit(ws, u)
        resid = u - fitted
        if variance_method == "double_sum":
            v = ht_variance_double_sum(self.sample, resid)
        else:
            v = closed_form_variance(self.sample, resid)
        if not getattr(v.value, "ndim", 0):
            interval = None if v.negative else confidence_interval(point, v, level)
        else:
            interval = confidence_interval(point, np.where(v.negative, np.nan, v.value),
                                           level)
        return Estimate(point, u, fitted, v, interval)


# Bound on the units of one stacked chunk of replicates (R * n): 16
# replicates at n = 500, so a short batch is one chunk and the memory a
# chunk holds stays small.
CHUNK_UNITS = 8192


def run_monte_carlo(plan: SimulationPlan, population: Population) -> MetricsTable:
    """Run the full replication protocol and aggregate the metric table.

    Replicate i is drawn from its own seed, derived from the master seed
    and i (`replicate_seed`), so results do not depend on execution order.
    Replicates are stacked: a chunk of R of them is drawn as one (R, n)
    sample (`draw` with a list of seeds) and carried through the weights,
    functionals, linearizations, variances and intervals as arrays with a
    leading replicate axis, one pass per layer. CHUNK_UNITS bounds R * n.
    Every chunk is a stack, R = 1 included: a Poisson sample, which varies
    in size, is a stack of one, and so is a last chunk of one replicate.
    The numbers do not depend on the chunking: each row is computed as
    that sample alone is, to rounding. A chunk in which some sample fails
    is rerun one seed at a time, each a stack of one, so a run raises what
    the first failing replicate raises alone.

    Each variable is sorted once per chunk, row by row: every estimator on
    a chunk shares its `SampleData`. The truths sort no census for totals,
    means, ratios and the poverty rate (unit-mass quantiles select and the
    CDF at a point counts); a Gini truth sorts its variable once. Each cell
    keeps a (4, replicates) block whose rows are the point, the variance
    and the interval's lower and upper ends (NaN where the variance is
    negative), one column per replicate, written chunk by chunk by slice;
    RB, RRMSE, coverage and the negative-variance count reduce those rows.
    `mean_runtime` is each estimator's time per replicate, timed per chunk.
    """
    # the design's strata check it against the population before the truths
    if isinstance(plan.design, GivenProbabilities):
        per_chunk = 1
    else:
        per_chunk = max(1, CHUNK_UNITS // sum(plan.design.strata(population)[1]))
    truths = {p.label: p.truth(population) for p in plan.parameters}
    est_labels = [e.label for e in plan.estimators]
    blocks = {(p.label, e): np.empty((4, plan.replicates))
              for p in plan.parameters for e in est_labels}
    runtime: dict = {e: 0.0 for e in est_labels}

    for start in range(0, plan.replicates, per_chunk):
        seeds = [replicate_seed(plan.master_seed, i)
                 for i in range(start, min(start + per_chunk, plan.replicates))]
        try:
            chunks = [(start, _estimate_chunk(plan, population, seeds))]
        except Exception:
            if len(seeds) == 1:
                raise
            chunks = [(start + r, _estimate_chunk(plan, population, [seed]))
                      for r, seed in enumerate(seeds)]
        for at, (cells, times) in chunks:
            for key, e in cells.items():
                blocks[key][:, at:at + len(e.point)] = e.point, e.variance.value, *e.interval
            for label, seconds in times.items():
                runtime[label] += seconds

    rows: dict = {}
    for p in plan.parameters:
        theta = truths[p.label]
        rmse_ht = _rmse(blocks[p.label, "HT"][0], theta)
        for e in est_labels:
            point, variance, lower, upper = blocks[p.label, e]
            negatives = int(np.count_nonzero(variance < 0))
            covered = np.count_nonzero((lower <= theta) & (theta <= upper))
            if theta != 0:
                rb = 100.0 * float(np.mean(point - theta)) / theta
                abs_flag = False
            else:
                rb = float(np.mean(point - theta))
                abs_flag = True
            rrmse = 100.0 * (_rmse(point, theta) / rmse_ht) if rmse_ht > 0 else np.nan
            intervals = plan.replicates - negatives
            cov = 100.0 * covered / intervals if intervals else np.nan
            rows[p.label, e] = MetricRow(
                rb_percent=rb,
                rrmse_percent=float(rrmse),
                coverage_percent=float(cov),
                negative_variances=negatives,
                mean_runtime=runtime[e] / plan.replicates,
                absolute_bias_flag=abs_flag,
            )
    return MetricsTable(rows, truths, plan.replicates)


def _estimate_chunk(plan: SimulationPlan, population: Population, seeds: list) -> tuple:
    """Draw the samples of `seeds` as one (R, n) stack, R = len(seeds) >= 1,
    and estimate every cell: ({(parameter, estimator): stacked Estimate},
    {estimator: seconds})."""
    sample = draw(population, plan.design, seeds)
    data = SampleData(sample, plan.parameters)
    cells, times = {}, {}
    for est in plan.estimators:
        tic = time.perf_counter()
        ws = est.build_weights(sample)
        for p in plan.parameters:
            cells[(p.label, est.label)] = data.estimate(ws, p, plan.variance_method,
                                                        plan.level)
        del ws  # free this system before the next one is built
        times[est.label] = time.perf_counter() - tic
    return cells, times


def _rmse(values: np.ndarray, theta: float) -> float:
    return float(np.sqrt(np.mean((values - theta) ** 2)))


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
