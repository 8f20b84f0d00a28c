"""Command line interface: basis inspection, weight export, estimation,
and the Monte Carlo simulation driver.
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import contextmanager
from dataclasses import MISSING, fields

import click
import numpy as np
from click.core import ParameterSource

from .basis import KNOT_RULES, SplineSpec, basis_matrix, build_knots
from .designs import Population, Srswor, StratifiedSrswor, draw
from .simulate import (
    FAMILIES,
    KINDS,
    VARIANCE_METHODS,
    EstimatorSpec,
    ParameterSpec,
    SampleData,
    SimulationPlan,
    SynthConfig,
    run_monte_carlo,
    synth_population,
)
from .variance import check_level, check_variance

# Kept only because bench/spans.py hooks them on this module, as it hooks
# `draw`; ROADMAP item 1 re-points or drops those hooks.
from .functionals import WeightedMeasure  # noqa: F401
from .variance import (  # noqa: F401
    closed_form_variance,
    confidence_interval,
    ht_variance_double_sum,
)
from .weights import bspline_weights, greg_weights, ht_weights, post_weights  # noqa: F401


def _default(spec_type, name: str):
    """The default of the field `name` of the dataclass `spec_type`."""
    return next(f.default for f in fields(spec_type) if f.name == name)


def _shape_options(f):
    """The spline options that shape a basis: its order and interior knots."""
    f = click.option("--order", "-m", default=_default(EstimatorSpec, "order"),
                     show_default=True, help="Spline order (degree + 1).")(f)
    f = click.option("--knots", "-K", default=_default(EstimatorSpec, "knots"),
                     show_default=True, help="Number of interior knots.")(f)
    return f


def _fit_options(f):
    """The spline options that place the knots on a sample and penalize
    the fit."""
    f = click.option("--knot-rule", default=_default(SplineSpec, "knot_rule"),
                     show_default=True, type=click.Choice(KNOT_RULES))(f)
    f = click.option("--lam", "--lambda", "lam", default=_default(EstimatorSpec, "lam"),
                     show_default=True, help="Roughness penalty weight.")(f)
    f = click.option("--penalty-order", "-p",
                     default=_default(EstimatorSpec, "penalty_order"), show_default=True)(f)
    return f


# Each design kind: the setting it needs (its plan key and command-line
# option) and the design class that takes that setting.
DESIGN_SETTINGS = {"srswor": ("n", "--n", Srswor),
                   "stratified": ("allocations", "--allocation label=n", StratifiedSrswor)}


def _design_options(f):
    f = click.option("--design", default="srswor", show_default=True,
                     type=click.Choice(list(DESIGN_SETTINGS)))(f)
    f = click.option("--n", default=200, show_default=True,
                     help="Sample size (srswor).")(f)
    f = click.option("--allocation", multiple=True,
                     help="Stratum allocation label=n (repeatable).")(f)
    f = click.option("--seed", default=0, show_default=True)(f)
    return f


@contextmanager
def _usage_errors(source: str = ""):
    """Report a ValueError raised in the block as a usage error with its
    message, after `source` when one is given."""
    try:
        yield
    except ValueError as err:
        raise click.UsageError(f"{source}: {err}" if source else str(err)) from err


def _make_design(config, source: str = ""):
    """The design a plan's "design" object describes. The --design, --n and
    --allocation options reach it as the same object. A part that is not an
    object, an unknown kind, a kind without its setting, a key the kind
    does not read and a size that is not a whole number are usage errors,
    after `source` when one is given; they are checked in that order."""
    with _usage_errors(source):
        if not isinstance(config, dict):
            raise ValueError("not a JSON object")
        kind = config.get("kind")
        if kind not in DESIGN_SETTINGS:
            raise ValueError(f"unknown design kind {kind!r}; choose from "
                             f"{', '.join(DESIGN_SETTINGS)}")
        key, option, design_type = DESIGN_SETTINGS[kind]
        if key not in config:
            raise ValueError(f"a {kind} design needs {key!r} in a plan, "
                             f"{option} on the command line")
        unknown = config.keys() - {"kind", key}
        if unknown:
            raise ValueError(f"unknown key {min(unknown)!r}")
        return design_type(config[key])


def _option_design(design, n, allocation):
    """The design of the --design, --n and --allocation options. Each
    --allocation token reads label=n, and names a stratum at most once.
    The options a design ignores are refused before this, so --n is the
    setting when --allocation is not given: a stratified design without
    --allocation is refused as lacking its allocations."""
    config = {"kind": design}
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
    else:
        config["n"] = n
    return _make_design(config)


def _load_population(path, source: str) -> Population:
    """`Population.from_csv(path)`; a file it refuses or cannot read is a
    usage error naming it."""
    with _usage_errors(f"{source} {path}"):
        try:
            return Population.from_csv(path)
        except OSError as err:
            raise ValueError(err.strerror or str(err)) from err


def _sample_and_weights(population, design, seed, family, spec):
    """Draw a sample and build its `family` weights. What the population or
    the sample cannot support is a usage error with the library's message:
    a sample size outside 1..N, a stratum without allocation, an allocation
    to a stratum the population lacks, no strata, too few distinct
    covariate values for the knots, an empty poststratum (POST's singular
    system), a singular system or a collinear design (GREG's). The
    weights' diagnostics are computed when read."""
    with _usage_errors():
        sample = draw(population, design, seed)
        return sample, FAMILIES[family.upper()].weights(sample, spec)


# The --family values, and each spline option with the roster setting it
# goes with. --knot-rule goes with the order: a family that takes the order
# as given takes the knot rule too, and one that fixes its spline (order 1
# at sample-quantile cut points for poststrata) ignores both.
FAMILY_CHOICES = [name.lower() for name in FAMILIES]
SPLINE_OPTIONS = {"order": "order", "knots": "knots", "knot_rule": "order",
                  "lam": "lam", "penalty_order": "penalty_order"}

# Options each --family or --design value has no use for: the spline
# options whose setting the family does not read (FAMILIES), --allocation
# under SRSWOR and --n under stratified SRSWOR.
IGNORED_OPTIONS = {
    **{name.lower(): tuple(option for option, setting in SPLINE_OPTIONS.items()
                           if setting not in family.settings)
       for name, family in FAMILIES.items()},
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
    """The spline of the spline options; a setting `SplineSpec` refuses is
    a usage error naming the options' values."""
    with _usage_errors(f"-m {order} -K {knots} --lam {lam:g} -p {penalty_order}"):
        return SplineSpec(order=order, interior_knots=knots, knot_rule=knot_rule,
                          lam=lam, penalty_order=penalty_order)


# An output file, or '-' for standard output (`_write`): a directory is
# refused before any work. The metavar stays PATH, as `click.Path()` shows it.
OUTPUT_PATH = click.Path(dir_okay=False)


@click.group()
def main():
    """Model-assisted survey estimation with penalized B-spline weights."""


@main.command()
@_shape_options
@click.option("--grid", default=101, show_default=True, type=click.IntRange(min=0),
              help="Number of evaluation points on [0,1].")
@click.option("--output", "-o", type=OUTPUT_PATH, metavar="PATH", default="-",
              help="CSV destination ('-' for stdout).")
def basis(order, knots, grid, output):
    """Evaluate the spline basis on a grid and emit CSV."""
    # no sample at hand, so the knots follow the first rule, equidistant,
    # which reads none
    with _usage_errors(f"-m {order} -K {knots}"):
        spec = SplineSpec(order=order, interior_knots=knots, knot_rule=KNOT_RULES[0])
    kv = build_knots(spec)
    z = np.linspace(0.0, 1.0, grid)
    B = basis_matrix(kv, order, z)
    rows = [["z"] + [f"B{j+1}" for j in range(B.shape[1])]]
    rows += [[f"{zi:.10g}"] + [f"{v:.12g}" for v in row] for zi, row in zip(z, B)]
    _write_csv(output, rows)


@main.command()
@click.option("--population", "pop_path", required=True, metavar="PATH",
              type=click.Path(exists=True, dir_okay=False))
@click.option("--family", default="bs", show_default=True,
              type=click.Choice(FAMILY_CHOICES))
@_design_options
@_fit_options
@_shape_options
@click.option("--output", "-o", type=OUTPUT_PATH, metavar="PATH", default="-")
@click.option("--diagnostics", type=OUTPUT_PATH, metavar="PATH", default=None,
              help="Optional JSON file with calibration diagnostics ('-' for stdout).")
def weights(pop_path, family, design, n, allocation, seed, order, knots,
            knot_rule, lam, penalty_order, output, diagnostics):
    """Draw a sample and emit the weight vector as CSV."""
    _reject_ignored_options()
    sampling = _option_design(design, n, allocation)
    pop = _load_population(pop_path, "--population")
    sample, ws = _sample_and_weights(pop, sampling, seed, family,
                                     _make_spec(order, knots, knot_rule, lam, penalty_order))
    rows = [["id", "pi", "weight", "family"]]
    for idx, pi, w in zip(ws.indices, sample.pi, ws.weights):
        rows.append([pop.ids[idx], f"{pi:.10g}", f"{w:.12g}", ws.family])
    _write_csv(output, rows)
    if diagnostics:
        _write(diagnostics, json.dumps(ws.diagnostics, indent=2))


@main.command()
@click.option("--population", "pop_path", required=True, metavar="PATH",
              type=click.Path(exists=True, dir_okay=False))
@click.option("--family", default="bs", show_default=True,
              type=click.Choice(FAMILY_CHOICES))
@click.option("--parameter", "parameters", multiple=True, required=True,
              help="Parameter kind[:variable], e.g. gini:y or ratio:y/x.")
@_design_options
@_fit_options
@_shape_options
@click.option("--level", default=_default(SimulationPlan, "level"), show_default=True)
@click.option("--variance-method", default=_default(SimulationPlan, "variance_method"),
              show_default=True, type=click.Choice(VARIANCE_METHODS))
@click.option("--strict-poverty", is_flag=True,
              help="Use strict < at the low-income threshold.")
@click.option("--emit-linearized", type=OUTPUT_PATH, metavar="PATH", default=None,
              help="CSV audit file of linearized values and residuals ('-' for stdout).")
@click.option("--output", "-o", type=OUTPUT_PATH, metavar="PATH", default="-")
def estimate(pop_path, family, parameters, design, n, allocation, seed, order,
             knots, knot_rule, lam, penalty_order, level, variance_method,
             strict_poverty, emit_linearized, output):
    """Estimate parameters with variance and confidence interval (JSON)."""
    _reject_ignored_options()
    with _usage_errors("--level"):
        check_level(level)
    pspecs = [_parse_parameter(token, strict_poverty) for token in parameters]
    sampling = _option_design(design, n, allocation)
    pop = _load_population(pop_path, "--population")
    _require_variables(pop, [(f"--parameter {token}", pspec)
                             for token, pspec in zip(parameters, pspecs)])
    sample, ws = _sample_and_weights(pop, sampling, seed, family,
                                     _make_spec(order, knots, knot_rule, lam, penalty_order))
    # what the sample cannot support (a poverty rate on fewer than 10 units,
    # a variance on one) is a usage error with the library's message
    with _usage_errors():
        data = SampleData(sample, pspecs)
        estimates = [data.estimate(ws, pspec, variance_method, level) for pspec in pspecs]
    reports = []
    audit_rows = [["id", "parameter", "u", "fitted", "residual"]]
    for pspec, est in zip(pspecs, estimates):
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
    _write(output, json.dumps(reports, indent=2) + "\n")
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
    known = KINDS.get(kind)
    reads = known.reads if known else ("variable",)
    names = {field: name for field, name in zip(reads, var.split("/", len(reads) - 1))
             if name}
    strict = strict_poverty and known is not None and "strict" in known.settings
    with _usage_errors(f"--parameter {token}"):
        return ParameterSpec(kind, **names, strict=strict)


# Each kind of plan entry: the spec it builds, the key that names its
# family or kind, and the other keys that family or kind reads.
PLAN_SPECS = {
    "estimator": (EstimatorSpec, "family", lambda name: FAMILIES[name].settings),
    "parameter": (ParameterSpec, "kind", lambda name: KINDS[name].reads + KINDS[name].settings),
}


@main.command()
@click.option("--plan", "plan_path", required=True, metavar="PATH",
              type=click.Path(exists=True, dir_okay=False),
              help="JSON plan: population, design, estimators, parameters.")
@click.option("--out-csv", type=OUTPUT_PATH, metavar="PATH", default=None,
              help="Machine-readable per-cell metrics CSV ('-' for stdout).")
def simulate(plan_path, out_csv):
    """Run the Monte Carlo protocol described by a plan file."""
    with _usage_errors(f"--plan {plan_path}"):
        with open(plan_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    _check_entry("plan", cfg, SimulationPlan, required=("population",))
    design = _make_design(cfg["design"], f"plan design {json.dumps(cfg['design'])}")
    for what, (spec_type, _, _) in PLAN_SPECS.items():
        entries = cfg[f"{what}s"]
        if not isinstance(entries, list):
            raise click.UsageError(f"plan {what}s {json.dumps(entries)}: not a JSON array")
        for entry in entries:
            _check_entry(f"plan {what} {json.dumps(entry)}", entry, spec_type)
    replicates = cfg.get("replicates")
    if "replicates" in cfg and (isinstance(replicates, bool)
                                or not isinstance(replicates, int)):
        raise click.UsageError(f"plan replicates {json.dumps(replicates)}: "
                               "not a whole number")
    estimators, parameters = (tuple(_plan_spec(what, entry) for entry in cfg[f"{what}s"])
                              for what in PLAN_SPECS)
    # the plan's other keys are SimulationPlan's settings, as given
    settings = {**cfg, "design": design, "estimators": estimators,
                "parameters": parameters}
    del settings["population"]
    with _usage_errors("plan"):
        plan = SimulationPlan(**settings)
    pop = _plan_population(cfg["population"])
    _require_variables(pop, [(f"plan parameter {json.dumps(entry)}", spec)
                             for entry, spec in zip(cfg["parameters"], parameters)])
    # a sample size outside 1..N_h, a stratum without allocation, a
    # population without strata or a variance on a stratum of one sampled
    # unit, before the truths and the replicates
    with _usage_errors(f"plan design {json.dumps(cfg['design'])}"):
        check_variance(plan.variance_method, *design.strata(pop))
    # a replicate's failure is not a usage error
    table = run_monte_carlo(plan, pop)
    click.echo(table.render())
    if out_csv:
        _write_csv(out_csv, table.csv_rows())


def _check_entry(source: str, entry, spec_type, optional=(), required=()) -> None:
    """Refuse, as a usage error after `source`, a plan part that is not a
    JSON object, that has a key other than the fields of `spec_type` and
    the keys `optional` and `required`, or that lacks a field without a
    default or a key of `required`."""
    if not isinstance(entry, dict):
        raise click.UsageError(f"{source}: not a JSON object")
    names = {f.name for f in fields(spec_type)}.union(optional, required)
    needed = {f.name for f in fields(spec_type) if f.default is MISSING}.union(required)
    for problem, keys in (("unknown", entry.keys() - names),
                          ("missing", needed - entry.keys())):
        if keys:
            raise click.UsageError(f"{source}: {problem} key {min(keys)!r}")


def _plan_spec(what: str, entry: dict):
    """The spec of a plan `what` entry ("estimator" or "parameter"). What
    the spec refuses (an unknown family or kind, a value of the wrong type
    or out of range) and a key that its family or kind ignores are usage
    errors naming the entry."""
    spec_type, key, reads = PLAN_SPECS[what]
    source = f"plan {what} {json.dumps(entry)}"
    with _usage_errors(source):
        spec = spec_type(**entry)
    name = getattr(spec, key)
    ignored = entry.keys() - {key, *reads(name)}
    if ignored:
        raise click.UsageError(f"{source}: key {min(ignored)!r} has no effect "
                               f"on a {name} {what}")
    return spec


def _plan_population(part) -> Population:
    """The population of a plan's "population" part: an object with exactly
    one of "file", the path of a population CSV, and "generator",
    `SynthConfig`'s settings and a seed. A part of another shape and a file
    that cannot be read are usage errors naming them."""
    with _usage_errors(f"plan population {json.dumps(part)}"):
        if not isinstance(part, dict):
            raise ValueError("not a JSON object")
        unknown = part.keys() - {"file", "generator"}
        if unknown:
            raise ValueError(f"unknown key {min(unknown)!r}")
        if len(part) != 1:
            raise ValueError("needs exactly one of 'file' and 'generator'")
        if "file" in part:
            if not isinstance(part["file"], str):
                raise ValueError(f"file must be a string, got {part['file']!r}")
            return _load_population(part["file"], "plan population file")
    generator = part["generator"]
    source = f"plan generator {json.dumps(generator)}"
    _check_entry(source, generator, SynthConfig, optional=("seed",))
    settings = dict(generator)
    seed = settings.pop("seed", 0)
    with _usage_errors(source):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be a whole number, got {seed!r}")
        return synth_population(SynthConfig(**settings), seed)


def _write(destination, text: str) -> None:
    """Write `text` to an output option's destination; '-' is standard
    output, where the text ends on a line break."""
    if destination == "-":
        click.echo(text, nl=not text.endswith("\n"))
        return
    with open(destination, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(destination, rows) -> None:
    """Write `rows` as CSV, quoted by `csv.writer`: with its CRLF line ends
    to a file, with LF ones to standard output ('-')."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n" if destination == "-" else "\r\n").writerows(rows)
    _write(destination, text.getvalue())


if __name__ == "__main__":
    main()
