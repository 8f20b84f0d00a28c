"""Command line interface: basis inspection, weight export, estimation,
and the Monte Carlo simulation driver.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import MISSING, fields, replace

import click
import numpy as np
from click.core import ParameterSource

from .basis import SplineSpec, basis_matrix, build_knots
from .designs import Population, Srswor, StratifiedSrswor, draw
from .simulate import (
    KINDS,
    EstimatorSpec,
    ParameterSpec,
    SampleData,
    SimulationPlan,
    SynthConfig,
    family_weights,
    run_monte_carlo,
    synth_population,
)

# Kept only because bench/spans.py hooks them on this module, as it hooks
# `draw`; ROADMAP item 1 re-points or drops those hooks.
from .functionals import WeightedMeasure  # noqa: F401
from .variance import (  # noqa: F401
    closed_form_variance,
    confidence_interval,
    ht_variance_double_sum,
)
from .weights import bspline_weights, greg_weights, ht_weights, post_weights  # noqa: F401


def _spline_options(f):
    f = click.option("--order", "-m", default=2, show_default=True,
                     help="Spline order (degree + 1).")(f)
    f = click.option("--knots", "-K", default=2, show_default=True,
                     help="Number of interior knots.")(f)
    f = click.option("--knot-rule", default="sample_quantile", show_default=True,
                     type=click.Choice(["equidistant", "sample_quantile",
                                        "population_quantile"]))(f)
    f = click.option("--lam", "--lambda", "lam", default=0.0, show_default=True,
                     help="Roughness penalty weight.")(f)
    f = click.option("--penalty-order", "-p", default=1, show_default=True)(f)
    return f


def _design_options(f):
    f = click.option("--design", default="srswor", show_default=True,
                     type=click.Choice(["srswor", "stratified"]))(f)
    f = click.option("--n", default=200, show_default=True,
                     help="Sample size (srswor).")(f)
    f = click.option("--allocation", multiple=True,
                     help="Stratum allocation label=n (repeatable).")(f)
    f = click.option("--seed", default=0, show_default=True)(f)
    return f


# The setting each design kind needs: its plan key and command-line option.
DESIGN_SETTINGS = {"srswor": ("n", "--n"),
                   "stratified": ("allocations", "--allocation label=n")}


def _make_design(config):
    """The design a plan's "design" object describes. The --design, --n and
    --allocation options reach it as the same object. A size that is not a
    whole number is a usage error."""
    kind = config.get("kind")
    if kind not in DESIGN_SETTINGS:
        raise click.UsageError(f"unknown design kind {kind!r}; choose from "
                               f"{', '.join(DESIGN_SETTINGS)}")
    key, option = DESIGN_SETTINGS[kind]
    if key not in config:
        raise click.UsageError(f"a {kind} design needs {key!r} in a plan, "
                               f"{option} on the command line")
    try:
        if kind == "srswor":
            return Srswor(config["n"])
        return StratifiedSrswor(config["allocations"])
    except ValueError as err:
        raise click.UsageError(str(err)) from err


def _option_design(design, n, allocation):
    """The design of the --design, --n and --allocation options. Each
    --allocation token reads label=n, and names a stratum at most once."""
    config = {"kind": design, "n": n}
    if allocation:
        allocations = config["allocations"] = {}
        for token in allocation:
            match = re.fullmatch(r"([^=]+)=(\d+)", token)
            if match is None:
                raise click.UsageError(f"--allocation {token}: expected label=n "
                                       "with a whole number n")
            label, count = match.groups()
            if label in allocations:
                raise click.UsageError(f"--allocation {token}: stratum {label!r} "
                                       "is allocated twice")
            allocations[label] = int(count)
    return _make_design(config)


def _load_population(path, source: str) -> Population:
    """`Population.from_csv(path)`; a file it refuses is a usage error."""
    try:
        return Population.from_csv(path)
    except ValueError as err:
        raise click.UsageError(f"{source} {path}: {err}") from err


def _sample_and_weights(population, design, seed, family, spec):
    """Draw a sample and build its `family` weights. What the population or
    the sample cannot support is a usage error with the library's message:
    a sample size outside 1..N, a stratum without allocation, no strata,
    too few distinct covariate values for the knots, an empty poststratum,
    a singular system or a collinear design."""
    try:
        sample = draw(population, design, seed)
        return sample, family_weights(sample, family.upper(), spec)
    except ValueError as err:
        raise click.UsageError(str(err)) from err


# Options each --family or --design value has no use for: HT and GREG take
# no spline options at all, poststratification (order 1, unpenalized, sample
# quantile cut points) uses only the knot count, SRSWOR takes no
# --allocation and stratified SRSWOR no --n.
IGNORED_OPTIONS = {
    "ht": ("order", "knots", "knot_rule", "lam", "penalty_order"),
    "greg": ("order", "knots", "knot_rule", "lam", "penalty_order"),
    "post": ("order", "knot_rule", "lam", "penalty_order"),
    "srswor": ("allocation",),
    "stratified": ("n",),
}


def _reject_ignored_options() -> None:
    """Refuse options given explicitly that the chosen --family or --design
    would ignore."""
    ctx = click.get_current_context()
    for choice in ("family", "design"):
        value = ctx.params[choice]
        ignored = IGNORED_OPTIONS.get(value, ())
        for param in ctx.command.params:
            if (param.name in ignored and ctx.get_parameter_source(param.name)
                    not in (ParameterSource.DEFAULT, ParameterSource.DEFAULT_MAP)):
                raise click.UsageError(f"{'/'.join(param.opts)} has no effect "
                                       f"with --{choice} {value}", ctx)


def _make_spec(order, knots, knot_rule, lam, penalty_order) -> SplineSpec:
    return SplineSpec(order=order, interior_knots=knots, knot_rule=knot_rule,
                      lam=lam, penalty_order=penalty_order)


@click.group()
def main():
    """Model-assisted survey estimation with penalized B-spline weights."""


@main.command()
@_spline_options
@click.option("--grid", default=101, show_default=True,
              help="Number of evaluation points on [0,1].")
@click.option("--output", "-o", type=click.Path(), default="-",
              help="CSV destination ('-' for stdout).")
def basis(order, knots, knot_rule, lam, penalty_order, grid, output):
    """Evaluate the spline basis on a grid and emit CSV."""
    # no sample at hand here, so quantile rules fall back to equidistant knots
    spec = _make_spec(order, knots, "equidistant", lam, penalty_order)
    kv = build_knots(spec)
    z = np.linspace(0.0, 1.0, grid)
    B = basis_matrix(kv, order, z)
    rows = [["z"] + [f"B{j+1}" for j in range(B.shape[1])]]
    rows += [[f"{zi:.10g}"] + [f"{v:.12g}" for v in row] for zi, row in zip(z, B)]
    _write_csv(output, rows)


@main.command()
@click.option("--population", "pop_path", required=True, type=click.Path(exists=True))
@click.option("--family", default="bs", show_default=True,
              type=click.Choice(["ht", "greg", "post", "bs"]))
@_design_options
@_spline_options
@click.option("--output", "-o", type=click.Path(), default="-")
@click.option("--diagnostics", type=click.Path(), default=None,
              help="Optional JSON file with calibration diagnostics.")
def weights(pop_path, family, design, n, allocation, seed, order, knots,
            knot_rule, lam, penalty_order, output, diagnostics):
    """Draw a sample and emit the weight vector as CSV."""
    _reject_ignored_options()
    sampling = _option_design(design, n, allocation)
    pop = _load_population(pop_path, "--population")
    sample, ws = _sample_and_weights(pop, sampling, seed, family,
                                     _make_spec(order, knots, knot_rule, lam, penalty_order))
    rows = [["id", "pi", "weight", "family"]]
    for idx, w in zip(ws.indices, ws.weights):
        rows.append([pop.ids[idx], f"{sample.pi_of(idx):.10g}", f"{w:.12g}",
                     ws.family])
    _write_csv(output, rows)
    if diagnostics:
        with open(diagnostics, "w", encoding="utf-8") as fh:
            json.dump(ws.diagnostics, fh, indent=2)


@main.command()
@click.option("--population", "pop_path", required=True, type=click.Path(exists=True))
@click.option("--family", default="bs", show_default=True,
              type=click.Choice(["ht", "greg", "post", "bs"]))
@click.option("--parameter", "parameters", multiple=True, required=True,
              help="Parameter kind[:variable], e.g. gini:y or ratio:y/x.")
@_design_options
@_spline_options
@click.option("--level", default=0.95, show_default=True)
@click.option("--variance-method", default="closed", show_default=True,
              type=click.Choice(["closed", "double_sum"]))
@click.option("--strict-poverty", is_flag=True,
              help="Use strict < at the low-income threshold.")
@click.option("--emit-linearized", type=click.Path(), default=None,
              help="CSV audit file of linearized values and residuals.")
@click.option("--output", "-o", type=click.Path(), default="-")
def estimate(pop_path, family, parameters, design, n, allocation, seed, order,
             knots, knot_rule, lam, penalty_order, level, variance_method,
             strict_poverty, emit_linearized, output):
    """Estimate parameters with variance and confidence interval (JSON)."""
    _reject_ignored_options()
    pspecs = [_parse_parameter(token, strict_poverty) for token in parameters]
    sampling = _option_design(design, n, allocation)
    pop = _load_population(pop_path, "--population")
    _require_variables(pop, [(f"--parameter {token}", pspec)
                             for token, pspec in zip(parameters, pspecs)])
    sample, ws = _sample_and_weights(pop, sampling, seed, family,
                                     _make_spec(order, knots, knot_rule, lam, penalty_order))
    data = SampleData(sample, pspecs)
    reports = []
    audit_rows = [["id", "parameter", "u", "fitted", "residual"]]
    for pspec in pspecs:
        est = data.estimate(ws, pspec, variance_method, level)
        report = {
            "parameter": pspec.label,
            "estimate": est.point,
            "variance": est.variance.value,
            "variance_method": est.variance.method,
            "negative_variance": est.variance.negative,
            "level": level,
            "metadata": {
                "design": type(sample.design).__name__,
                "weight_family": ws.family,
                "sample_size": sample.size,
                "population_size": pop.size,
            },
        }
        if est.interval is not None:
            report["ci"] = list(est.interval)
        if KINDS[pspec.kind].source:
            report["metadata"]["linearization_source"] = KINDS[pspec.kind].source
        reports.append(report)
        if emit_linearized:
            for idx, uk, gk, ek in zip(sample.indices, est.u, est.fitted,
                                       est.residuals):
                audit_rows.append([pop.ids[idx], pspec.label, f"{uk:.12g}",
                                   f"{gk:.12g}", f"{ek:.12g}"])
    text = json.dumps(reports, indent=2)
    if output == "-":
        click.echo(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if emit_linearized:
        _write_csv(emit_linearized, audit_rows)


def _require_variables(population: Population, sources) -> None:
    """Refuse, as a usage error naming its source, a parameter that reads a
    variable the population lacks; `sources` yields (source, spec) pairs."""
    for source, spec in sources:
        missing = [name for name in spec.variables if name not in population.variables]
        if missing:
            raise click.UsageError(f"{source}: the population has no variable {missing[0]!r}")


def _parse_parameter(token: str, strict_poverty: bool) -> ParameterSpec:
    """The parameter of a `kind[:variable]` token: a kind that reads two
    variables takes `kind:first/second`, and an omitted name keeps the
    spec's default (y, then x)."""
    kind, _, var = token.partition(":")
    reads = KINDS[kind].reads if kind in KINDS else ("variable",)
    names = {field: name for field, name in zip(reads, var.split("/", len(reads) - 1))
             if name}
    try:
        return ParameterSpec(kind, **names, strict=strict_poverty and kind == "poverty_rate")
    except ValueError as err:
        raise click.UsageError(f"--parameter {token}: {err}") from err


@main.command()
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True),
              help="JSON plan: population, design, estimators, parameters.")
@click.option("--out-csv", type=click.Path(), default=None,
              help="Machine-readable per-cell metrics CSV.")
def simulate(plan_path, out_csv):
    """Run the Monte Carlo protocol described by a plan file."""
    with open(plan_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    design = _make_design(cfg["design"])
    for what, spec_type in (("estimator", EstimatorSpec), ("parameter", ParameterSpec)):
        for entry in cfg[f"{what}s"]:
            _check_entry(what, entry, spec_type)
    replicates = cfg.get("replicates", 1000)
    if isinstance(replicates, bool) or not isinstance(replicates, int):
        raise click.UsageError(f"plan replicates {json.dumps(replicates)}: "
                               "not a whole number")
    estimators = tuple(EstimatorSpec(**e) for e in cfg["estimators"])
    parameters = tuple(_plan_parameter(p) for p in cfg["parameters"])
    pop = _plan_population(cfg["population"])
    _require_variables(pop, [(f"plan parameter {json.dumps(entry)}", spec)
                             for entry, spec in zip(cfg["parameters"], parameters)])
    plan = SimulationPlan(
        design=design,
        estimators=estimators,
        parameters=parameters,
        replicates=replicates,
        level=cfg.get("level", 0.95),
        master_seed=cfg.get("master_seed", 0),
        variance_method=cfg.get("variance_method", "closed"),
    )
    table = run_monte_carlo(plan, pop)
    click.echo(table.render())
    if out_csv:
        table.to_csv(out_csv)


def _check_entry(what: str, entry, spec_type, extra=()) -> None:
    """Refuse, as a usage error naming it, a plan entry that is not a JSON
    object, or that has a key `spec_type` does not take (besides `extra`)
    or lacks one it needs."""
    if not isinstance(entry, dict):
        raise click.UsageError(f"plan {what} {json.dumps(entry)}: not a JSON object")
    names = {f.name for f in fields(spec_type)}.union(extra)
    required = {f.name for f in fields(spec_type) if f.default is MISSING}
    for problem, keys in (("unknown", entry.keys() - names),
                          ("missing", required - entry.keys())):
        if keys:
            raise click.UsageError(f"plan {what} {json.dumps(entry)}: {problem} "
                                   f"key {min(keys)!r}")


def _plan_parameter(entry: dict) -> ParameterSpec:
    """The parameter of a plan entry. A setting the spec refuses (a level
    or fraction out of range, a value of the wrong type) is a usage error
    naming the entry."""
    spec = ParameterSpec(entry["kind"])
    try:
        return replace(spec, **entry)
    except ValueError as err:
        raise click.UsageError(f"plan parameter {json.dumps(entry)}: {err}") from err


def _plan_population(cfg) -> Population:
    if "file" in cfg:
        return _load_population(cfg["file"], "plan population file")
    _check_entry("generator", cfg["generator"], SynthConfig, extra=("seed",))
    gen = dict(cfg["generator"])
    seed = gen.pop("seed", 0)
    return synth_population(SynthConfig(**gen), seed)


def _write_csv(destination, rows) -> None:
    if destination == "-":
        for row in rows:
            click.echo(",".join(str(c) for c in row))
        return
    with open(destination, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


if __name__ == "__main__":
    main()
