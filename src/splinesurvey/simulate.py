"""Monte Carlo harness: synthetic populations, estimator comparisons, and
relative bias / RRMSE / coverage tables.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .basis import SplineSpec
from .designs import (
    GivenProbabilities,
    Population,
    PositionalIds,
    SampleDraw,
    draw,
    replicate_seed,
)
from .functionals import (
    Ordering,
    WeightedMeasure,
    as_scalar,
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
    check_variance,
    closed_form_variance,
    confidence_interval,
    ht_variance_double_sum,
)
from .weights import (WeightSet, bspline_weights, greg_spline, greg_weights, ht_weights,
                      post_spline, post_weights)

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
    """Generate a deterministic synthetic population from the config.

    Its ids are `PositionalIds`, "0".."N-1", and with `strata_count` > 1
    each unit's stratum label "h0", "h1", ... is one shared string object
    per stratum, so the population holds no string per unit."""
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
        labels = [f"h{j}" for j in range(config.strata_count)]
        codes = rng.integers(0, config.strata_count, config.size)
        strata = tuple(map(labels.__getitem__, codes.tolist()))
    return Population(ids=PositionalIds(config.size), z=z, variables=variables,
                      strata=strata)


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
# order-2 case without interior knots and its order-1 case (`greg_spline`,
# `post_spline`). The entries look the weight functions up in this module
# when called, as KINDS does.
FAMILIES = {
    "HT": EstimatorFamily((), lambda e: None, lambda sample, spline: ht_weights(sample)),
    "GREG": EstimatorFamily((), lambda e: greg_spline(),
                            lambda sample, spline: greg_weights(sample)),
    "POST": EstimatorFamily(("knots",), lambda e: post_spline(e.knots),
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

    def at(self, measures: dict):
        """The parameter at `measures` ({variable: measure}, one for each
        variable it reads, all at one weight system): a float for one
        sample, one value per row for an (R, n) stack."""
        return KINDS[self.kind].functional(self, *map(measures.get, self.variables))

    def influence(self, measures: dict) -> np.ndarray:
        """The parameter's linearized variable at `measures`, as `at`
        reads them."""
        return KINDS[self.kind].linearized(self, *map(measures.get, self.variables)).values

    def evaluate(self, values: dict, masses: np.ndarray | None) -> float:
        """The parameter at the measures with `masses` (None: unit masses)
        on the sample `values` (variable name -> array); each measure sorts
        its values on its own."""
        return self.at(measure_map(values, masses, self.variables))

    def truth(self, population: Population, census: dict | None = None) -> float:
        """The parameter of the census: the functional at the unit-mass
        measures of the variables it reads, taken from `census` (variable
        name -> measure, one per variable as `census_measures` builds it,
        which `run_monte_carlo` shares among its truths) or built here.
        Each measure checked its entries finite by its row sum, which is
        its total; its quantiles and CDF values select and count instead
        of sorting, and a Gini sorts the values, not their positions."""
        if census is None:
            census = census_measures(population, (self,))
        return self.at(census)

    def linearized(self, values: dict, weights: np.ndarray | None) -> np.ndarray:
        """Linearized variable at the measures `evaluate` builds."""
        return self.influence(measure_map(values, weights, self.variables))


def _variables(parameters: Sequence) -> dict:
    """The variables the parameters read, each once, in order of first use
    (a dict with no values)."""
    return dict.fromkeys(name for p in parameters for name in p.variables)


def measure_map(values: dict, masses: np.ndarray | None, names,
                orderings: dict | None = None) -> dict:
    """{name: the measure with `masses` (None: unit masses) on values[name]}
    for each of `names`, on orderings[name] when `orderings` is given."""
    return {name: WeightedMeasure(values[name], masses,
                                  None if orderings is None else orderings[name])
            for name in names}


def census_measures(population: Population, parameters: Sequence) -> dict:
    """{variable: its unit-mass measure on the census}, one per variable the
    parameters read. Each checks its entries finite by its row sum, which
    is its total, and sorts nothing until a Gini sorts its values."""
    return measure_map(population.variables, None, _variables(parameters))


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
        """The table as text, one block per parameter: RRMSE and, in
        parentheses, RB in percent, or "abs" and the absolute bias where
        the truth is 0 (`absolute_bias_flag`)."""
        params = sorted({p for p, _ in self.rows})
        ests = list(dict.fromkeys(e for _, e in self.rows))
        width = max(len(e) for e in ests) + 2
        lines = [f"replicates: {self.replicates}"]
        for p in params:
            lines.append(f"\n{p}  (truth {self.truths[p]:.6g})")
            lines.append("  " + "estimator".ljust(width)
                         + "RRMSE (RB)".rjust(16) + "coverage".rjust(10)
                         + "neg-var".rjust(9))
            for e in ests:
                r = self.rows[(p, e)]
                # a truth of 0 has an absolute bias, not a percent
                rb = f"abs {r.rb_percent:.3g}" if r.absolute_bias_flag else f"{r.rb_percent:.1f}"
                cell = f"{r.rrmse_percent:.0f} ({rb})"
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


@dataclass(frozen=True, eq=False)
class Estimate:
    """One parameter estimated with one weight set on one sample, or on
    each sample of a stack (then every field has a leading replicate axis),
    as one entry of `SampleData.estimate`.

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
    shares: the parameters, the sample values of the variables they read,
    one `Ordering` per variable (one sort of each, built on first use), the
    measures at the draw's design weights (`SampleDraw.design_weights`),
    and the parameters' linearized variables there, stacked as one
    (P, *R, n) array in the parameters' order (`linearized`). The HT weight
    set is that very design-weights array, recognised by identity, so it
    reads those measures; any other weight set is measured once in its
    `estimate` call."""

    def __init__(self, sample: SampleDraw, parameters: Sequence):
        self.sample = sample
        self.parameters = tuple(parameters)
        self.values = {name: sample.sample_values(name) for name in _variables(parameters)}
        self.orderings = {name: Ordering(vals) for name, vals in self.values.items()}
        self.design_measures = self._measures(sample.design_weights)
        self.linearized = np.stack([p.influence(self.design_measures) for p in parameters])

    def _measures(self, weights: np.ndarray) -> dict:
        """{variable: its measure at `weights`, on its shared ordering}."""
        return measure_map(self.values, weights, self.values, self.orderings)

    def estimate(self, ws: WeightSet, variance_method: str, level: float) -> list:
        """One `Estimate` per parameter, in the parameters' order: the point
        estimate with weights `ws`, the variance of the residuals of the
        linearized variable on the weights' own fit by `variance_method`
        (one of VARIANCE_METHODS), and the normal interval at `level`. The
        parameters go through one fit, one variance and one interval on
        their stacked linearized variables, each parameter's row computed
        as it would be alone. Either method is refused on a draw with a
        stratum of one sampled unit out of several (`check_variance`)."""
        if not isinstance(self.sample.design, GivenProbabilities):
            check_variance(variance_method, *self.sample.strata)
        measures = (self.design_measures if ws.weights is self.sample.design_weights
                    else self._measures(ws.weights))
        points = [p.at(measures) for p in self.parameters]
        u = self.linearized
        fitted = variance_fit(ws, u)
        v = (ht_variance_double_sum if variance_method == "double_sum"
             else closed_form_variance)(self.sample, u - fitted)
        lower, upper = confidence_interval(np.array(points),
                                           np.where(v.negative, np.nan, v.value), level)
        # one sample with a negative variance has no interval
        return [Estimate(point, u[i], fitted[i], VarianceEstimate(as_scalar(v.value[i]), v.method),
                         None if np.ndim(point) == 0 and v.negative[i] else (lower[i], upper[i]))
                for i, point in enumerate(points)]


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
    a chunk shares its `SampleData`, and each estimator's weight set is
    one `SampleData.estimate` pass for all the parameters. The truths read
    one unit-mass census measure per variable (`census_measures`), dropped
    before the first chunk; each checks its entries finite by its row sum,
    which is its total. They sort no census for totals, means, ratios and
    the poverty rate (unit-mass quantiles select and the CDF at a point
    counts); a Gini truth sorts its variable once, by value, with no
    positions. Every cell is written, chunk by chunk by slice, into one
    (parameters, estimators, 4, replicates) array whose third axis holds
    the point, the variance and the interval's lower and upper ends (NaN
    where the variance is negative); RB, RRMSE, coverage and the
    negative-variance counts reduce it over all cells at once
    (`_metric_rows`).
    `mean_runtime` is each estimator's time per replicate, timed per chunk.
    """
    # the design's strata check it against the population, and the
    # variance against a stratum of one sampled unit, before the truths
    if isinstance(plan.design, GivenProbabilities):
        per_chunk = 1
    else:
        strata, sizes = plan.design.strata(population)
        check_variance(plan.variance_method, strata, sizes)
        per_chunk = max(1, CHUNK_UNITS // sum(sizes))
    census = census_measures(population, plan.parameters)
    truths = {p.label: p.truth(population, census) for p in plan.parameters}
    del census  # not held through the replicates
    est_labels = [e.label for e in plan.estimators]
    at_cell = {(p.label, e): (i, j) for i, p in enumerate(plan.parameters)
               for j, e in enumerate(est_labels)}
    table = np.empty((len(plan.parameters), len(est_labels), 4, plan.replicates))
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
                table[at_cell[key] + (slice(None), slice(at, at + len(e.point)))] = (
                    e.point, e.variance.value, *e.interval)
            for label, seconds in times.items():
                runtime[label] += seconds
    return MetricsTable(_metric_rows(table, truths, est_labels, runtime),
                        truths, plan.replicates)


def _metric_rows(table: np.ndarray, truths: dict, estimators: list, runtime: dict) -> dict:
    """{(parameter, estimator): MetricRow} from the (P, E, 4, R) `table` of
    a run: for the parameters in the order of `truths` and the `estimators`
    (labels, "HT" among them), the point, the variance and the interval's
    lower and upper ends (NaN where the variance is negative) of each of R
    replicates. Every metric is reduced over all cells at once, each cell's
    numbers as the cell alone gives them: RB is the mean error over the
    truth in percent, or the mean error itself when the truth is 0 (then
    `absolute_bias_flag`); RRMSE is the RMSE over HT's in percent (NaN when
    HT's is 0); coverage is over the replicates with a nonnegative variance
    (NaN when there are none). `runtime` holds each estimator's seconds."""
    R = table.shape[-1]
    theta = np.array(list(truths.values()))[:, None]
    point, variance, lower, upper = (table[:, :, k] for k in range(4))
    error = point - theta[..., None]
    bias = np.add.reduce(error, axis=-1) / R
    rmse = np.sqrt(np.add.reduce(error ** 2, axis=-1) / R)
    negatives = np.add.reduce(variance < 0, axis=-1)
    covered = np.add.reduce((lower <= theta[..., None]) & (theta[..., None] <= upper), axis=-1)
    intervals = R - negatives
    rmse_ht = rmse[:, estimators.index("HT"), None]
    # each quotient only where its divisor is nonzero: else the mean error
    # itself (a truth of 0) or NaN
    rb = np.divide(100.0 * bias, theta, out=bias, where=theta != 0)
    rrmse = 100.0 * np.divide(rmse, rmse_ht, out=np.full(rmse.shape, np.nan), where=rmse_ht > 0)
    coverage = np.divide(100.0 * covered, intervals, out=np.full(rmse.shape, np.nan),
                         where=intervals > 0)
    absolute = np.broadcast_to(theta == 0, rb.shape)
    keys = [(p, e) for p in truths for e in estimators]
    cells = zip(*(a.ravel().tolist() for a in (rb, rrmse, coverage, negatives, absolute)))
    return {(p, e): MetricRow(b, rr, c, neg, runtime[e] / R, flag)
            for (p, e), (b, rr, c, neg, flag) in zip(keys, cells)}


def _estimate_chunk(plan: SimulationPlan, population: Population, seeds: list) -> tuple:
    """Draw the samples of `seeds` as one (R, n) stack, R = len(seeds) >= 1,
    and estimate every cell, one `SampleData.estimate` call per estimator:
    ({(parameter, estimator): stacked Estimate}, {estimator: seconds})."""
    sample = draw(population, plan.design, seeds)
    data = SampleData(sample, plan.parameters)
    cells, times = {}, {}
    for est in plan.estimators:
        tic = time.perf_counter()
        ws = est.build_weights(sample)
        estimates = data.estimate(ws, plan.variance_method, plan.level)
        cells.update(zip([(p.label, est.label) for p in plan.parameters], estimates))
        del ws  # free this system before the next one is built
        times[est.label] = time.perf_counter() - tic
    return cells, times
