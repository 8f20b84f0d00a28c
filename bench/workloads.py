"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks every operation's output must pass.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in WORKLOADS.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from splinesurvey import (
    EstimatorSpec,
    ParameterSpec,
    Population,
    SimulationPlan,
    SplineSpec,
    Srswor,
    StratifiedSrswor,
    SynthConfig,
    bspline_weights,
    closed_form_variance,
    draw,
    residual_fit,
    run_monte_carlo,
    synth_population,
)
from splinesurvey import cli

REL_TOL = 1e-9
# The table computes HT's RRMSE as 100 * rmse / rmse, two roundings that
# leave it within two units in the last place of 100 (100.00000000000001
# occurs); anything further off is not the reference cell.
HT_ULPS = 2 * math.ulp(100.0)
WARMUP = -1  # operation index of the warm-up in set-up; never a timed index


def derived_seed(seed: int, index: int) -> int:
    """Seed of operation `index` in a run started with `seed`."""
    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


# -- reference values -------------------------------------------------------

def reference_value(parameter: ParameterSpec, variables: dict) -> float:
    """Census value of a parameter computed from the raw arrays, without the
    library's functionals: the check the Monte Carlo truths must meet."""
    y = np.asarray(variables[parameter.variable], dtype=float)
    if parameter.kind == "total":
        return float(y.sum())
    if parameter.kind == "mean":
        return float(y.mean())
    if parameter.kind == "ratio":
        return float(y.sum() / np.asarray(variables[parameter.denominator]).sum())
    s = np.sort(y)
    if parameter.kind == "gini":
        cdf = np.searchsorted(s, s, side="right") / s.size
        return float(((2.0 * cdf - 1.0) * s).sum() / s.sum())
    if parameter.kind == "poverty_rate":
        median = s[math.ceil(parameter.level * s.size) - 1]
        line = parameter.fraction * median
        return float(np.searchsorted(s, line, side="right") / s.size)
    raise ValueError(f"no reference for parameter kind {parameter.kind!r}")


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def table_problems(table, plan: SimulationPlan, truths: dict) -> list:
    """Problems with a Monte Carlo table: missing or non-finite cells, an HT
    RRMSE other than 100, or a truth that misses the reference."""
    problems = []
    if table.replicates != plan.replicates:
        problems.append(f"table has {table.replicates} replicates, "
                        f"plan {plan.replicates}")
    for p in plan.parameters:
        got = table.truths.get(p.label)
        if got is None or not close(got, truths[p.label]):
            problems.append(f"truth of {p.label} is {got}, "
                            f"reference {truths[p.label]!r}")
        for e in plan.estimators:
            row = table.rows.get((p.label, e.label))
            if row is None:
                problems.append(f"missing cell {p.label} / {e.label}")
            elif not (math.isfinite(row.rb_percent)
                      and math.isfinite(row.rrmse_percent)):
                problems.append(f"non-finite RB or RRMSE in {p.label} / {e.label}")
            elif e.family == "HT" and abs(row.rrmse_percent - 100.0) > HT_ULPS:
                problems.append(f"HT RRMSE of {p.label} is {row.rrmse_percent!r}")
    return problems


def paper_pattern_problems(table) -> list:
    """Criterion 10's qualitative pattern on the paper's table."""
    bs = EstimatorSpec("BS", order=2, knots=2).label
    post = EstimatorSpec("POST", knots=2).label

    def rrmse(parameter: str, estimator: str) -> float:
        return table.row(parameter, estimator).rrmse_percent

    g_bs, g_post = rrmse("gini(y)", bs), rrmse("gini(y)", post)
    g_greg = rrmse("gini(y)", "GREG")
    m_greg, m_bs = rrmse("mean(y)", "GREG"), rrmse("mean(y)", bs)
    expected = {
        "gini: BS below POST": g_bs < g_post,
        "gini: POST below HT": g_post < 100.0,
        "gini: GREG within 10 of HT": abs(g_greg - 100.0) <= 10.0,
        "mean: GREG below 60": m_greg < 60.0,
        "mean: BS within 5 of GREG": abs(m_bs - m_greg) <= 5.0,
    }
    return [f"pattern broken: {rule} (gini BS={g_bs:.1f} POST={g_post:.1f} "
            f"GREG={g_greg:.1f}; mean GREG={m_greg:.1f} BS={m_bs:.1f})"
            for rule, holds in expected.items() if not holds]


# -- workloads ----------------------------------------------------------------

class MonteCarlo:
    """One operation is one `run_monte_carlo` batch job of a fixed plan;
    each batch draws its replicates from its own master seed.

    With `pattern_replicates`, the run's first batch has that many
    replicates and must also show criterion 10's pattern, which needs
    hundreds of replicates to hold reliably; later batches stay short, so
    that the reference tasks timed either side of each stay close to it.
    """

    traced_kind = "replicate"
    replicate_boundaries = True

    def __init__(self, population: Population, design, estimators, parameters,
                 replicates: int, variance_method: str, seed: int,
                 min_ops: int, pattern_replicates: int = 0):
        self._parts = (population.ids, population.z, population.variables,
                       population.strata)
        self.population_rows = population.size
        self.population = population
        self.design = design
        self.estimators = estimators
        self.parameters = parameters
        self.replicates = replicates
        self.variance_method = variance_method
        self.seed = seed
        self.min_ops = min_ops
        self.pattern_replicates = pattern_replicates
        self.truths = {p.label: reference_value(p, population.variables)
                       for p in parameters}

    def plan(self, index: int, replicates: int) -> SimulationPlan:
        return SimulationPlan(design=self.design, estimators=self.estimators,
                              parameters=self.parameters, replicates=replicates,
                              master_seed=derived_seed(self.seed, index),
                              variance_method=self.variance_method)

    def setup(self) -> None:
        """Build the population object from its arrays and warm up with a
        two-replicate batch."""
        ids, z, variables, strata = self._parts
        self.population = Population(ids=ids, z=z, variables=variables,
                                     strata=strata)
        run_monte_carlo(self.plan(WARMUP, 2), self.population)

    def run(self, index: int):
        first = index == 0 and self.pattern_replicates
        plan = self.plan(index, self.pattern_replicates if first else self.replicates)
        return plan, run_monte_carlo(plan, self.population)

    @staticmethod
    def units(result) -> int:
        return result[1].replicates

    def problems(self, index: int, result) -> list:
        plan, table = result
        problems = table_problems(table, plan, self.truths)
        if index == 0 and self.pattern_replicates and not problems:
            problems += paper_pattern_problems(table)
        return problems


class CliEstimate:
    """One operation is one in-process `splinesurvey estimate` call on the
    population CSV, each with its own draw seed (closed loop, one client)."""

    traced_kind = "call"
    replicate_boundaries = False

    def __init__(self, population: Population, workdir: str, n: int,
                 spec: SplineSpec, parameters: tuple, seed: int, min_ops: int):
        self.population = population
        self.population_rows = population.size
        self.n = n
        self.spec = spec
        self.parameters = parameters
        self.seed = seed
        self.min_ops = min_ops
        self.csv_path = os.path.join(workdir, "population.csv")
        names = list(population.variables)
        with open(self.csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "z", *names])
            columns = [population.z, *(population.variables[v] for v in names)]
            for uid, *values in zip(population.ids, *columns):
                writer.writerow([uid, *map(repr, map(float, values))])

    def args(self, index: int) -> list:
        spec = self.spec
        out = ["estimate", "--population", self.csv_path, "--family", "bs",
               "-m", str(spec.order), "-K", str(spec.interior_knots),
               "--lam", repr(spec.lam), "--n", str(self.n),
               "--seed", str(derived_seed(self.seed, index))]
        for p in self.parameters:
            token = (f"ratio:{p.variable}/{p.denominator}" if p.kind == "ratio"
                     else f"{p.kind}:{p.variable}")
            out += ["--parameter", token]
        return out

    def setup(self) -> None:
        """Warm up with one call."""
        self.run(WARMUP)

    def run(self, index: int) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(self.args(index), standalone_mode=False)
        return out.getvalue()

    @staticmethod
    def units(result) -> int:
        return 1

    def library_path(self, index: int) -> list:
        """(label, estimate, variance) per parameter, computed through the
        library: draw, B-spline weights, evaluate, residual fit, closed form."""
        sample = draw(self.population, Srswor(self.n), derived_seed(self.seed, index))
        weights = bspline_weights(sample, self.spec).weights
        values = {name: v[sample.indices]
                  for name, v in self.population.variables.items()}
        ht = 1.0 / sample.pi
        out = []
        for p in self.parameters:
            u = p.linearized(values, ht)
            resid = residual_fit(sample, self.spec, u).residuals
            out.append((p.label, p.evaluate(values, weights),
                        closed_form_variance(sample, resid).value))
        return out

    def problems(self, index: int, result: str) -> list:
        reports = json.loads(result)
        expected = self.library_path(index)
        if len(reports) != len(expected):
            return [f"{len(reports)} reports for {len(expected)} parameters"]
        problems = []
        for report, (label, estimate, variance) in zip(reports, expected):
            if report["parameter"] != label:
                problems.append(f"report {report['parameter']!r}, expected {label!r}")
            elif not close(report["estimate"], estimate):
                problems.append(f"{label} estimate {report['estimate']!r}, "
                                f"library path {estimate!r}")
            elif not close(report["variance"], variance):
                problems.append(f"{label} variance {report['variance']!r}, "
                                f"library path {variance!r}")
        return problems


def proportional_allocation(population: Population, total: int) -> dict:
    labels, sizes = np.unique(np.asarray(population.strata), return_counts=True)
    return {str(h): int(round(total * Nh / population.size))
            for h, Nh in zip(labels, sizes)}


PAPER_ROSTER = (EstimatorSpec("HT"), EstimatorSpec("GREG"),
                EstimatorSpec("POST", knots=2), EstimatorSpec("BS", order=2, knots=2))
STRATA_ROSTER = (EstimatorSpec("HT"), EstimatorSpec("GREG"),
                 EstimatorSpec("BS", order=3, knots=4, lam=1.0))
CLI_PARAMETERS = (ParameterSpec("mean", "y"), ParameterSpec("ratio", "y", "x"),
                  ParameterSpec("gini", "y"), ParameterSpec("poverty_rate", "y"))

NAMES = ("mc_paper_table", "mc_strata_doublesum", "cli_estimate_csv")


def build(name: str, seed: int, workdir: str, toy: bool = False):
    """Make workload `name` with its inputs generated from `seed`.

    `toy` shrinks the population and sample so that one operation takes a
    fraction of a second; the self-test uses it.
    """
    if name == "mc_paper_table":
        # 500 replicates keep criterion 10's tightest margin (POST's Gini
        # RRMSE below 100, about 9.5 +- 2.8 points at 250 replicates) some
        # four standard deviations clear.
        N, n, checked = (4000, 200, 100) if toy else (19378, 500, 500)
        pop = synth_population(SynthConfig(size=N), seed)
        return MonteCarlo(pop, Srswor(n), PAPER_ROSTER,
                          (ParameterSpec("mean", "y"), ParameterSpec("gini", "y")),
                          10, "closed", seed, min_ops=1 if toy else 10,
                          pattern_replicates=checked)
    if name == "mc_strata_doublesum":
        N, n = (6000, 120) if toy else (100000, 1200)
        pop = synth_population(SynthConfig(size=N, strata_count=6), seed)
        design = StratifiedSrswor(proportional_allocation(pop, n))
        return MonteCarlo(pop, design, STRATA_ROSTER,
                          (ParameterSpec("ratio", "y", "x"),
                           ParameterSpec("poverty_rate", "y")),
                          1, "double_sum", seed, min_ops=1 if toy else 10)
    if name == "cli_estimate_csv":
        N, n = (1500, 150) if toy else (19378, 800)
        pop = synth_population(SynthConfig(size=N), seed)
        spec = SplineSpec(order=3, interior_knots=4, knot_rule="sample_quantile",
                          lam=0.5, penalty_order=1)
        # the printed p90 needs at least ten calls beyond it
        return CliEstimate(pop, workdir, n, spec, CLI_PARAMETERS, seed,
                           min_ops=3 if toy else 100)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
