import csv
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from splinesurvey import (
    ParameterSpec,
    Population,
    SplineSpec,
    Srswor,
    closed_form_variance,
    draw,
    residual_fit,
)
from splinesurvey import cli, functionals, simulate
from splinesurvey.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def population_csv(tmp_path, rng):
    N = 300
    z = rng.lognormal(7.0, 0.4, N)
    y = z + 5.0 * np.sqrt(z) * rng.standard_normal(N)
    x = z + 2.0 * np.sqrt(z) * rng.standard_normal(N)
    path = tmp_path / "pop.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "z", "y", "x"])
        for i in range(N):
            wr.writerow([f"u{i}", z[i], y[i], x[i]])
    return path


@pytest.fixture
def stratified_csv(tmp_path, rng):
    N = 300
    z = rng.lognormal(7.0, 0.4, N)
    y = z + 5.0 * np.sqrt(z) * rng.standard_normal(N)
    x = z + 2.0 * np.sqrt(z) * rng.standard_normal(N)
    path = tmp_path / "strata.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "stratum", "z", "y", "x"])
        for i in range(N):
            wr.writerow([f"u{i}", f"h{i % 3}", z[i], y[i], x[i]])
    return path


def test_basis_grid(runner):
    res = runner.invoke(main, ["basis", "-m", "2", "-K", "1", "--grid", "3"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "z,B1,B2,B3"
    assert len(lines) == 4
    mid = [float(v) for v in lines[2].split(",")]
    assert mid[1:] == pytest.approx([0.0, 1.0, 0.0])


def test_weights_csv_and_diagnostics(runner, population_csv, tmp_path):
    diag = tmp_path / "diag.json"
    out = tmp_path / "w.csv"
    res = runner.invoke(main, [
        "weights", "--population", str(population_csv), "--family", "bs",
        "--n", "60", "--seed", "4", "-K", "2", "-o", str(out),
        "--diagnostics", str(diag),
    ])
    assert res.exit_code == 0, res.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    total = sum(float(r["weight"]) for r in rows)
    assert total == pytest.approx(300.0, rel=1e-8)
    d = json.loads(diag.read_text())
    assert "calibration_residuals" in d and "negative_weight_count" in d


def test_estimate_json_report(runner, population_csv, tmp_path):
    audit = tmp_path / "lin.csv"
    res = runner.invoke(main, [
        "estimate", "--population", str(population_csv), "--family", "bs",
        "--n", "80", "--seed", "1", "--parameter", "gini:y",
        "--parameter", "ratio:y/x", "--emit-linearized", str(audit),
    ])
    assert res.exit_code == 0, res.output
    reports = json.loads(res.output)
    assert {r["parameter"] for r in reports} == {"gini(y)", "ratio(y/x)"}
    for r in reports:
        assert r["variance"] >= 0.0
        assert r["ci"][0] <= r["estimate"] <= r["ci"][1]
    lines = audit.read_text().strip().splitlines()
    assert lines[0] == "id,parameter,u,fitted,residual"
    assert len(lines) == 1 + 2 * 80


@pytest.mark.parametrize("family,options,spec", [
    ("bs", ["-m", "3", "-K", "3", "--lam", "0.5"],
     SplineSpec(order=3, interior_knots=3, lam=0.5)),
    ("post", ["-K", "2"], SplineSpec(order=1, interior_knots=2)),
])
def test_estimate_residuals_match_residual_fit(runner, population_csv, tmp_path,
                                               monkeypatch, family, options, spec):
    """The residuals entering the variance, and the emitted audit columns,
    equal a fresh `residual_fit` with the weights' spec."""
    seen = []

    def recording(sample, residuals):
        seen.append(np.array(residuals))
        return closed_form_variance(sample, residuals)

    monkeypatch.setattr(simulate, "closed_form_variance", recording)
    pop = Population.from_csv(population_csv)
    params = (ParameterSpec("mean", "y"), ParameterSpec("gini", "y"))
    for seed in (1, 2, 3):
        audit = tmp_path / f"lin-{family}-{seed}.csv"
        seen.clear()
        res = runner.invoke(main, [
            "estimate", "--population", str(population_csv), "--family", family,
            "--n", "80", "--seed", str(seed), *options,
            "--parameter", "mean:y", "--parameter", "gini:y",
            "--emit-linearized", str(audit),
        ])
        assert res.exit_code == 0, res.output
        sample = draw(pop, Srswor(80), seed)
        values = {name: v[sample.indices] for name, v in pop.variables.items()}
        with open(audit, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for k, p in enumerate(params):
            u = p.linearized(values, 1.0 / sample.pi)
            want = residual_fit(sample, spec, u).residuals
            assert np.max(np.abs(seen[k] - want)) <= 1e-12 * np.max(np.abs(u))
            emitted = np.array([float(r["residual"]) for r in rows
                                if r["parameter"] == p.label])
            # the audit file prints 12 significant digits
            assert emitted == pytest.approx(want, rel=1e-11,
                                            abs=1e-11 * np.max(np.abs(u)))


def test_estimate_double_sum_variance(runner, population_csv):
    res = runner.invoke(main, [
        "estimate", "--population", str(population_csv), "--family", "ht",
        "--n", "40", "--seed", "2", "--parameter", "mean:y",
        "--variance-method", "double_sum",
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)[0]
    assert report["variance_method"] == "double_sum"


# Spline options POST ignores; HT and GREG also ignore -K.
SPLINE_OPTIONS = [
    (["--knot-rule", "equidistant"], "--knot-rule"),
    (["--lam", "5"], "--lam/--lambda"),
    (["-m", "4"], "--order/-m"),
    (["-p", "1"], "--penalty-order/-p"),
]


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("option,flag", SPLINE_OPTIONS)
def test_post_rejects_spline_options_it_ignores(runner, population_csv, command,
                                                option, flag):
    args = [command, "--population", str(population_csv), "--family", "post",
            "--n", "80", "-K", "3"]
    if command == "estimate":
        args += ["--parameter", "mean:y"]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, args + option)
    assert res.exit_code == 2
    assert f"{flag} has no effect with --family post" in res.output


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("family", ["ht", "greg"])
@pytest.mark.parametrize("option,flag",
                         SPLINE_OPTIONS + [(["-K", "3"], "--knots/-K")])
def test_ht_and_greg_reject_spline_options(runner, population_csv, command,
                                           family, option, flag):
    args = [command, "--population", str(population_csv), "--family", family,
            "--n", "80"]
    if command == "estimate":
        args += ["--parameter", "mean:y"]
    assert runner.invoke(main, args).exit_code == 0
    res = runner.invoke(main, args + option)
    assert res.exit_code == 2
    assert f"{flag} has no effect with --family {family}" in res.output


def test_family_choices_and_ignored_options():
    """The --family choices, and the options each --family or --design
    value ignores, written out."""
    for command in (cli.weights, cli.estimate):
        family = next(p for p in command.params if p.name == "family")
        assert list(family.type.choices) == ["ht", "greg", "post", "bs"]
    spline = ("order", "knots", "knot_rule", "lam", "penalty_order")
    expected = {
        "ht": spline,
        "greg": spline,
        "post": ("order", "knot_rule", "lam", "penalty_order"),
        "srswor": ("allocation",),
        "stratified": ("n",),
    }
    for value in ("ht", "greg", "post", "bs", "srswor", "stratified"):
        assert cli.IGNORED_OPTIONS.get(value, ()) == expected.get(value, ())


def test_estimate_strict_poverty(runner, tmp_path):
    # the median is 20, so the threshold 0.6 * 20 = 12 carries whole units
    rng = np.random.default_rng(8)
    N = 400
    z = rng.uniform(1.0, 10.0, N)
    y = rng.choice([6.0, 10.0, 12.0, 18.0, 20.0, 30.0, 40.0], N,
                   p=[0.1, 0.1, 0.15, 0.1, 0.15, 0.2, 0.2])
    path = tmp_path / "ties.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "z", "y"])
        wr.writerows(zip(range(N), z, y))
    args = ["estimate", "--population", str(path), "--family", "ht",
            "--n", "100", "--seed", "4", "--parameter", "poverty_rate:y"]
    weak = json.loads(runner.invoke(main, args).output)[0]
    strict = json.loads(runner.invoke(main, args + ["--strict-poverty"]).output)[0]
    assert weak["parameter"] == strict["parameter"] == "poverty_rate(y)"
    assert strict["estimate"] < weak["estimate"]

    pop = Population.from_csv(path)
    sample = draw(pop, Srswor(100), 4)
    values = {"y": pop.variables["y"][sample.indices]}
    spec = ParameterSpec("poverty_rate", strict=True)
    assert strict["estimate"] == spec.evaluate(values, 1.0 / sample.pi)


def test_strict_poverty_marks_only_poverty_rate():
    assert cli._parse_parameter("poverty_rate:y", True).strict
    for token in ("mean:y", "gini:y", "total:y", "ratio:y/x"):
        assert cli._parse_parameter(token, True) == cli._parse_parameter(token, False)


def test_simulate_plan(runner, tmp_path):
    plan = {
        "population": {"generator": {"size": 800, "seed": 5}},
        "design": {"kind": "srswor", "n": 80},
        "estimators": [{"family": "HT"}, {"family": "BS", "order": 2, "knots": 2}],
        "parameters": [{"kind": "mean", "variable": "y"}],
        "replicates": 30,
        "master_seed": 3,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "metrics.csv"
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path),
                               "--out-csv", str(out)])
    assert res.exit_code == 0, res.output
    assert "RRMSE (RB)" in res.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["estimator"] for r in rows} == {"HT", "BS(2,K=2)"}


def _bad_population_csv(population_csv, bad_line):
    """The population CSV with its fifth data row replaced by `bad_line`,
    which is line 6 of the file."""
    lines = population_csv.read_text().splitlines()
    lines[5] = bad_line
    population_csv.write_text("\n".join(lines) + "\n")
    return population_csv


@pytest.mark.parametrize("bad_line,message", [
    ("u4,1.5,abc,2.5",
     "population CSV line 6, column 'y': could not convert string to float: 'abc'"),
    ("u4,1.5,2.5", "population CSV line 6: 3 cells, but the header has 4"),
    ("u4,1.5,,2.5", "population CSV line 6, column 'y': could not convert string "
                    "to float: ''"),
    ("u4,1.5,nan,2.5", "population CSV line 6, column 'y': not a finite number: 'nan'"),
    ("u4,1e400,2.5,2.5",
     "population CSV line 6, column 'z': not a finite number: '1e400'"),
    ("u4,1.5,2.5,-inf", "population CSV line 6, column 'x': not a finite number: '-inf'"),
])
@pytest.mark.parametrize("command", [
    ["estimate", "--parameter", "mean:y", "--n", "20"],
    ["weights", "--n", "20"],
])
def test_bad_population_csv_is_usage_error(runner, population_csv, command,
                                           bad_line, message):
    path = _bad_population_csv(population_csv, bad_line)
    res = runner.invoke(main, [*command, "--population", str(path)])
    assert res.exit_code == 2
    assert f"Error: --population {path}: {message}" in res.output
    assert "Traceback" not in res.output


def test_population_cell_past_the_csv_field_limit_is_usage_error(runner, tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("id,z,y\n" + "u" * 140_000 + ",1_0,2\nu2,2,3\nu3,3,4\n")
    res = runner.invoke(main, ["estimate", "--population", str(path), "--family", "ht",
                               "--parameter", "mean:y", "--n", "2"])
    assert res.exit_code == 2
    assert (f"Error: --population {path}: population CSV line 2: field larger "
            f"than field limit ({csv.field_size_limit()})") in res.output
    assert "Traceback" not in res.output


def test_bad_plan_population_file_is_usage_error(runner, population_csv, tmp_path):
    path = _bad_population_csv(population_csv, "u4,1.5,2.5,3.5,4.5")
    plan = {
        "population": {"file": str(path)},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 3,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    assert res.exit_code == 2
    assert (f"Error: plan population file {path}: population CSV line 6: "
            "5 cells, but the header has 4") in res.output
    assert "Traceback" not in res.output


def test_non_finite_plan_population_file_is_usage_error(runner, population_csv,
                                                        tmp_path):
    path = _bad_population_csv(population_csv, "u4,1.5,inf,3.5")
    plan = {
        "population": {"file": str(path)},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 3,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    assert res.exit_code == 2
    assert (f"Error: plan population file {path}: population CSV line 6, "
            "column 'y': not a finite number: 'inf'") in res.output
    assert "Traceback" not in res.output


def _fail(*args, **kwargs):
    raise AssertionError("reached after a bad --parameter")


def test_estimate_rejects_unknown_kind_before_loading(runner, population_csv,
                                                     monkeypatch):
    monkeypatch.setattr(cli.Population, "from_csv", _fail)
    res = runner.invoke(main, ["estimate", "--population", str(population_csv),
                               "--parameter", "mean:y", "--parameter", "median:y"])
    assert res.exit_code == 2
    assert "Usage:" in res.output
    assert "--parameter median:y: unknown parameter kind 'median'" in res.output
    assert "Traceback" not in res.output


def test_estimate_rejects_missing_variable_before_drawing(runner, population_csv,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "draw", _fail)
    res = runner.invoke(main, ["estimate", "--population", str(population_csv),
                               "--parameter", "ratio:y/w"])
    assert res.exit_code == 2
    assert "Usage:" in res.output
    assert "--parameter ratio:y/w: the population has no variable 'w'" in res.output
    assert "Traceback" not in res.output


def test_greg_weights_diagnostics(runner, population_csv, tmp_path):
    diag = tmp_path / "diag.json"
    res = runner.invoke(main, [
        "weights", "--population", str(population_csv), "--family", "greg",
        "--n", "60", "--seed", "4", "-o", str(tmp_path / "w.csv"),
        "--diagnostics", str(diag),
    ])
    assert res.exit_code == 0, res.output
    with open(diag) as fh:
        info = json.load(fh)
    assert info["rcond"] > 0
    assert len(info["calibration_residuals"]) == 2
    assert max(map(abs, info["calibration_residuals"])) <= 1e-10


def test_simulate_plan_with_unknown_parameter_kind(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "median"}],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, 'plan parameter {"kind": "median"}: unknown parameter kind \'median\'')


def test_simulate_plan_with_weak_and_strict_poverty_rate(runner, tmp_path):
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "poverty_rate"},
                       {"kind": "poverty_rate", "strict": True}],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, "plan: parameter labels must be distinct")


@pytest.mark.parametrize("plan_change,message", [
    ({"variance_method": "double-sum"}, "unknown variance method 'double-sum'"),
    ({"estimators": [{"family": "HT"}, {"family": "bs"}]},
     "unknown estimator family 'bs'"),
    ({"level": 1.5}, "confidence level must lie in"),
    ({"estimators": [{"family": "HT"},
                     {"family": "BS", "order": 3, "knots": 3},
                     {"family": "BS", "order": 3, "knots": 3, "penalty_order": 2}]},
     "estimator labels must be distinct"),
    ({"level": "0.9"}, "level must be a number, got '0.9'"),
    ({"master_seed": "x"}, "master_seed must be a whole number, got 'x'"),
    ({"population": {"generator": {"size": "300"}}},
     "size must be a whole number, got '300'"),
    ({"estimators": [{"family": "HT"}, {"family": "BS", "knots": "3"}]},
     "knots must be a whole number, got '3'"),
    # spline settings SplineSpec refuses
    ({"estimators": [{"family": "HT"}, {"family": "BS", "order": 0}]},
     'plan estimator {"family": "BS", "order": 0}: spline order must be >= 1'),
    ({"estimators": [{"family": "HT"}, {"family": "BS", "lam": -1.0}]},
     'plan estimator {"family": "BS", "lam": -1.0}: penalty weight must be >= 0'),
    ({"population": {"generator": {"size": 300, "seed": "x"}}},
     'plan generator {"size": 300, "seed": "x"}: seed must be a whole number, got \'x\''),
    # a design the population cannot support, checked before the truths
    ({"design": {"kind": "srswor", "n": 301}},
     'plan design {"kind": "srswor", "n": 301}: sample size 301 out of range for N=300'),
    ({"design": {"kind": "stratified", "allocations": {"h0": 5}}},
     "population has no stratum labels"),
    ({"population": {"generator": {"size": 300, "seed": 5, "strata_count": 2}},
      "design": {"kind": "stratified", "allocations": {"h0": 5, "h1": 5, "h9": 3}}},
     "allocation for stratum 'h9', which the population lacks"),
])
def test_simulate_plan_fails_before_any_replicate(runner, tmp_path, monkeypatch,
                                                  plan_change, message):
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 3,
        **plan_change,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, message)


@pytest.mark.parametrize("tokens,sorts", [
    (("mean:y", "ratio:y/x", "total:y"), []),
    (("gini:y",), [80]),
    (("gini:y", "poverty_rate:y", "mean:y"), [80]),
    (("gini:y", "gini:x"), [80, 80]),
])
def test_estimate_sorts_each_variable_once(runner, population_csv, monkeypatch,
                                           tokens, sorts):
    """The point estimates and the linearizations share one sort per
    variable, and totals, means and ratios never sort."""
    sizes = []
    sort_runs = functionals._sort_runs
    monkeypatch.setattr(functionals, "_sort_runs",
                        lambda v: sizes.append(v.size) or sort_runs(v))
    args = ["estimate", "--population", str(population_csv), "--family", "bs",
            "--n", "80", "--seed", "3"]
    for token in tokens:
        args += ["--parameter", token]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)) == len(tokens)
    assert sizes == sorts


def _usage_error(res, message):
    assert res.exit_code == 2, res.output
    assert "Usage:" in res.output
    assert message in res.output
    assert "Traceback" not in res.output


def _command_args(command, population):
    args = [command, "--population", str(population), "--family", "ht"]
    if command == "estimate":
        args += ["--parameter", "mean:y"]
    return args


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("tokens,message", [
    (("h0",), "--allocation h0: expected label=n with a whole number n"),
    (("h0=x",), "--allocation h0=x: expected label=n with a whole number n"),
    (("=4",), "--allocation =4: expected label=n"),
    (("h0=4", "h1=5", "h0=6"), "--allocation h0=6: stratum 'h0' is allocated twice"),
])
def test_malformed_allocation_is_a_usage_error_before_loading(
        runner, stratified_csv, monkeypatch, command, tokens, message):
    monkeypatch.setattr(cli.Population, "from_csv", _fail)
    args = _command_args(command, stratified_csv) + ["--design", "stratified"]
    for token in tokens:
        args += ["--allocation", token]
    _usage_error(runner.invoke(main, args), message)


@pytest.mark.parametrize("level", ["-0.5", "0", "1", "1.5", "nan"])
def test_level_outside_the_unit_interval_is_a_usage_error_before_loading(
        runner, population_csv, monkeypatch, level):
    monkeypatch.setattr(cli.Population, "from_csv", _fail)
    args = _command_args("estimate", population_csv) + ["--level", level]
    _usage_error(runner.invoke(main, args),
                 f"--level: confidence level must lie in (0,1), got {float(level)!r}")


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("n", ["0", "301"])
def test_sample_size_outside_population_is_a_usage_error(runner, population_csv,
                                                         command, n):
    res = runner.invoke(main, _command_args(command, population_csv) + ["--n", n])
    _usage_error(res, f"sample size {n} out of range for N=300")


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("allocation,message", [
    (("h0=40",), "missing stratum allocation for 'h1'"),
    (("h0=40", "h1=40", "h2=101"), "allocation 101 out of range for stratum 'h2'"),
    (("h0=2", "h1=5", "h2=4", "h9=3"), "allocation for stratum 'h9', which the population lacks"),
])
def test_stratum_allocation_mismatch_is_a_usage_error(runner, stratified_csv,
                                                      command, allocation, message):
    args = _command_args(command, stratified_csv) + ["--design", "stratified"]
    for token in allocation:
        args += ["--allocation", token]
    _usage_error(runner.invoke(main, args), message)


@pytest.mark.parametrize("command", ["estimate", "weights"])
def test_stratified_design_without_strata_is_a_usage_error(runner, population_csv,
                                                           command):
    args = _command_args(command, population_csv) + [
        "--design", "stratified", "--allocation", "h0=10"]
    _usage_error(runner.invoke(main, args), "population has no stratum labels")


@pytest.mark.parametrize("design,message", [
    ({"kind": "srswor"}, "a srswor design needs 'n'"),
    ({"kind": "stratified", "n": 30}, "a stratified design needs 'allocations'"),
    ({"kind": "cluster", "n": 30}, "unknown design kind 'cluster'"),
])
def test_simulate_plan_design_without_its_setting(runner, tmp_path, monkeypatch,
                                                  design, message):
    monkeypatch.setattr(cli, "_plan_population", _fail)
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": design,
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    _usage_error(runner.invoke(main, ["simulate", "--plan", str(plan_path)]), message)


@pytest.mark.parametrize("design,message", [
    ({"kind": "srswor", "n": "50"}, "sample size is not a whole number: '50'"),
    ({"kind": "srswor", "n": 50.0}, "sample size is not a whole number: 50.0"),
    ({"kind": "stratified", "allocations": {"h0": "40", "h1": 30}},
     "allocation of stratum 'h0' is not a whole number: '40'"),
    ({"kind": "stratified", "allocations": {"h1": 30, "h0": 40.0}},
     "allocation of stratum 'h0' is not a whole number: 40.0"),
    ({"kind": "stratified", "allocations": {"h0": True, "h1": 30}},
     "allocation of stratum 'h0' is not a whole number: True"),
    ({"kind": "stratified", "allocations": [40, 30]},
     "allocations must map stratum labels to sample sizes: [40, 30]"),
])
def test_simulate_plan_design_sizes_must_be_whole_numbers(runner, tmp_path,
                                                          monkeypatch, design,
                                                          message):
    monkeypatch.setattr(cli, "_plan_population", _fail)
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": design,
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    _usage_error(runner.invoke(main, ["simulate", "--plan", str(plan_path)]), message)


@pytest.mark.parametrize("entry,message", [
    ({"kind": "poverty_rate", "level": 1.5}, "level must be a number in (0, 1), got 1.5"),
    ({"kind": "poverty_rate", "fraction": -1},
     "fraction must be a number in (0, inf), got -1"),
    ({"kind": "poverty_rate", "fraction": "0.6"},
     "fraction must be a number in (0, inf), got '0.6'"),
    # a non-empty string does not turn on the strict poverty rate
    ({"kind": "poverty_rate", "strict": "no"}, "strict must be a bool, got 'no'"),
    ({"kind": "poverty_rate", "strict": 0}, "strict must be a bool, got 0"),
    ({"kind": "mean", "variable": 3}, "variable must be a string, got 3"),
    ({"kind": "ratio", "denominator": ["x"]}, "denominator must be a string, got ['x']"),
])
def test_simulate_plan_parameter_threshold_is_a_usage_error(runner, tmp_path,
                                                            monkeypatch, entry,
                                                            message):
    monkeypatch.setattr(cli, "_plan_population", _fail)
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}, entry],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, f"plan parameter {json.dumps(entry)}: {message}")


@pytest.mark.parametrize("what,entry,message", [
    ("parameter", {"kind": "mean", "variable": "income"},
     "the population has no variable 'income'"),
    ("parameter", {"kind": "ratio", "denominator": "wealth"},
     "the population has no variable 'wealth'"),
    ("parameter", {"kind": "mean", "varible": "y"},
     "unknown key 'varible'"),
    ("estimator", {"family": "HT", "knot": 2},
     "unknown key 'knot'"),
    ("parameter", {"variable": "y"}, "missing key 'kind'"),
    ("estimator", {"order": 3}, "missing key 'family'"),
    ("parameter", {"kind": "mean", "denominator": "nothere", "fraction": 3.0},
     "key 'denominator' has no effect on a mean parameter"),
    ("parameter", {"kind": "gini", "fraction": 0.5},
     "key 'fraction' has no effect on a gini parameter"),
])
def test_simulate_plan_entry_is_a_usage_error(runner, tmp_path, monkeypatch,
                                              what, entry, message):
    """A parameter reading a variable the population lacks, and an entry
    with a key its spec does not take or without one it needs, are refused
    before any replicate."""
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 2,
    }
    plan[f"{what}s"].append(entry)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, f"plan {what} {json.dumps(entry)}: {message}")


@pytest.mark.parametrize("entry,message", [
    ({"family": "HT", "order": 9, "lam": 2.5}, "key 'lam' has no effect on a HT estimator"),
    ({"family": "GREG", "knots": 7}, "key 'knots' has no effect on a GREG estimator"),
    ({"family": "POST", "knots": 2, "order": 4},
     "key 'order' has no effect on a POST estimator"),
    ({"family": "POST", "knots": 2, "lam": 1.0},
     "key 'lam' has no effect on a POST estimator"),
], ids=["HT-order-lam", "GREG-knots", "POST-order", "POST-lam"])
def test_simulate_plan_estimator_key_its_family_ignores_is_a_usage_error(
        runner, tmp_path, monkeypatch, entry, message):
    monkeypatch.setattr(cli, "_plan_population", _fail)
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}, entry],
        "parameters": [{"kind": "mean"}],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, f"plan estimator {json.dumps(entry)}: {message}")


def test_simulate_plan_takes_every_setting_of_a_bs_estimator(runner, tmp_path):
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 60},
        "estimators": [{"family": "HT"}, {"family": "GREG"}, {"family": "POST", "knots": 2},
                       {"family": "BS", "order": 3, "knots": 3, "lam": 1.0,
                        "penalty_order": 2}],
        "parameters": [{"kind": "mean"}],
        "replicates": 2,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    assert res.exit_code == 0, res.output
    for label in ("HT", "GREG", "POST(K=2)", "BS(3,K=3,lam=1,p=2)"):
        assert f"\n  {label} " in res.output


@pytest.mark.parametrize("change,message", [
    ({"parameters": ["mean"]}, 'plan parameter "mean": not a JSON object'),
    ({"estimators": [{"family": "HT"}, ["BS"]]},
     'plan estimator ["BS"]: not a JSON object'),
    ({"replicates": "3"}, 'plan replicates "3": not a whole number'),
    ({"replicates": 2.0}, "plan replicates 2.0: not a whole number"),
    ({"replicates": True}, "plan replicates true: not a whole number"),
    ({"population": {"generator": {"sise": 300}}},
     'plan generator {"sise": 300}: unknown key \'sise\''),
], ids=["parameter-not-an-object", "estimator-not-an-object", "replicates-text",
        "replicates-float", "replicates-bool", "generator-unknown-key"])
def test_simulate_malformed_plan_is_a_usage_error(runner, tmp_path, monkeypatch,
                                                  change, message):
    """An entry that is not a JSON object, a replicate count that is not a
    whole number and a generator key `SynthConfig` does not take are
    refused, naming the entry, before any replicate."""
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan = {
        "population": {"generator": {"size": 300, "seed": 5}},
        "design": {"kind": "srswor", "n": 30},
        "estimators": [{"family": "HT"}],
        "parameters": [{"kind": "mean"}],
        "replicates": 2,
        **change,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, message)


@pytest.fixture
def four_unit_csv(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text("id,z,y\nu1,1.5,2.5\nu2,2.5,3.5\nu3,3.5,4.5\nu4,4.5,1.5\n")
    return path


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("family", ["bs", "post"])
def test_calibration_the_sample_cannot_support_is_a_usage_error(
        runner, four_unit_csv, command, family):
    """Two units cannot place two interior knots: the calibration's
    ValueError is a usage error with the library's message."""
    args = [command, "--population", str(four_unit_csv), "--family", family, "--n", "2"]
    if command == "estimate":
        args += ["--parameter", "mean:y"]
    _usage_error(runner.invoke(main, args), "insufficient support for K knots")


@pytest.mark.parametrize("options,message", [
    (["--n", "5", "--parameter", "poverty_rate:y"],
     "poverty-rate linearization needs n >= 10"),
    (["--n", "1", "--parameter", "mean:y"], "variance needs n >= 2"),
])
def test_estimate_failure_after_the_weights_is_a_usage_error(runner, tmp_path,
                                                             options, message):
    """What the sample cannot support after its weights are built is a
    usage error with the library's message."""
    path = tmp_path / "forty.csv"
    path.write_text("id,z,y\n" + "".join(f"u{i},{1.0 + i},{2.0 + (7 * i) % 11}\n"
                                          for i in range(40)))
    args = ["estimate", "--population", str(path), "--family", "ht"]
    _usage_error(runner.invoke(main, args + options), message)


def test_a_new_kind_needs_only_a_table_entry(runner, population_csv, monkeypatch):
    """A KINDS entry is enough for the CLI grammar, the label, the estimate
    and the linearization-source metadata."""
    kind = simulate.ParameterKind(
        ("variable", "denominator"),
        lambda p, my, mx: functionals.total(my) - functionals.total(mx),
        lambda p, my, mx: simulate.linearized_total(my.values - mx.values),
        "a test note")
    monkeypatch.setitem(simulate.KINDS, "difference", kind)
    args = ["estimate", "--population", str(population_csv), "--family", "ht",
            "--n", "60", "--seed", "2"]
    res = runner.invoke(main, args + ["--parameter", "difference:y/x",
                                      "--parameter", "total:y", "--parameter", "total:x"])
    assert res.exit_code == 0, res.output
    difference, total_y, total_x = json.loads(res.output)
    assert difference["parameter"] == "difference(y/x)"
    assert difference["estimate"] == pytest.approx(total_y["estimate"] - total_x["estimate"])
    assert difference["metadata"]["linearization_source"] == "a test note"
    assert "linearization_source" not in total_y["metadata"]
    res = runner.invoke(main, args + ["--parameter", "difference"])
    assert json.loads(res.output)[0]["parameter"] == "difference(y/x)"


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("options,message", [
    (["--design", "srswor", "--n", "50", "--allocation", "h0=5"],
     "--allocation has no effect with --design srswor"),
    (["--allocation", "h0=5"], "--allocation has no effect with --design srswor"),
    (["--design", "stratified", "--n", "200", "--allocation", "h0=30",
      "--allocation", "h1=30", "--allocation", "h2=30"],
     "--n has no effect with --design stratified"),
])
def test_design_options_the_design_ignores_are_usage_errors(
        runner, stratified_csv, monkeypatch, command, options, message):
    monkeypatch.setattr(cli.Population, "from_csv", _fail)
    res = runner.invoke(main, _command_args(command, stratified_csv) + options)
    _usage_error(res, message)


def test_estimate_builds_audit_rows_only_for_emit_linearized(
        runner, population_csv, tmp_path, monkeypatch):
    """Without --emit-linearized no per-unit audit row is formatted: the
    parameter labels are read a fixed number of times, not once per unit."""
    calls = []
    label = simulate.ParameterSpec.label
    monkeypatch.setattr(simulate.ParameterSpec, "label",
                        property(lambda self: calls.append(1) or label.fget(self)))
    args = ["estimate", "--population", str(population_csv), "--family", "ht",
            "--n", "120", "--parameter", "mean:y", "--parameter", "gini:y"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert len(calls) < 120
    calls.clear()
    audit = tmp_path / "audit.csv"
    res = runner.invoke(main, args + ["--emit-linearized", str(audit)])
    assert res.exit_code == 0, res.output
    assert len(calls) >= 2 * 120
    assert len(audit.read_text().splitlines()) == 1 + 2 * 120


@pytest.mark.parametrize("family", ["ht", "bs"])
def test_estimate_stratified_closed_matches_double_sum(runner, stratified_csv,
                                                       family):
    """Under stratified SRSWOR the double-sum variance is the stratified
    closed form, term for term."""
    args = ["estimate", "--population", str(stratified_csv), "--family", family,
            "--design", "stratified", "--allocation", "h0=30", "--allocation",
            "h1=25", "--allocation", "h2=35", "--seed", "6",
            "--parameter", "mean:y", "--parameter", "gini:y",
            "--parameter", "ratio:y/x"]
    reports = {}
    for method in ("closed", "double_sum"):
        res = runner.invoke(main, args + ["--variance-method", method])
        assert res.exit_code == 0, res.output
        reports[method] = json.loads(res.output)
    for closed, double in zip(reports["closed"], reports["double_sum"]):
        assert closed["metadata"]["design"] == "StratifiedSrswor"
        assert closed["metadata"]["sample_size"] == 90
        assert closed["variance_method"] == "stsi_closed"
        assert double["variance_method"] == "double_sum"
        assert closed["estimate"] == double["estimate"]
        assert closed["variance"] > 0
        assert double["variance"] == pytest.approx(closed["variance"], rel=1e-9)


def _bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_hooks_resolve_and_restore():
    """Every name the benchmark's tracer hooks exists where it looks it up
    (on this module among others), is wrapped inside `installed()` and is
    put back on exit."""
    spans = _bench_module("spans")

    def current(module_name, path):
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    originals = [current(module, path) for module, path, _ in spans.HOOKS]
    with spans.Tracer(population_rows=300, replicate_boundaries=True).installed():
        for (module, path, _), original in zip(spans.HOOKS, originals):
            assert current(module, path) is not original, (module, path)
    for (module, path, _), original in zip(spans.HOOKS, originals):
        assert current(module, path) is original, (module, path)


_PLAN = {
    "population": {"generator": {"size": 300, "seed": 5}},
    "design": {"kind": "srswor", "n": 30},
    "estimators": [{"family": "HT"}],
    "parameters": [{"kind": "mean"}],
    "replicates": 2,
}


def _without(key):
    return {k: v for k, v in _PLAN.items() if k != key}


@pytest.mark.parametrize("text,message", [
    (json.dumps({**_PLAN, "replicate": 3}), "plan: unknown key 'replicate'"),
    (json.dumps(_without("design")), "plan: missing key 'design'"),
    (json.dumps(_without("estimators")), "plan: missing key 'estimators'"),
    (json.dumps(_without("population")), "plan: missing key 'population'"),
    (json.dumps({**_PLAN, "population": {}}),
     "plan population {}: needs exactly one of 'file' and 'generator'"),
    (json.dumps({**_PLAN, "population": {"file": "pop.csv", "generator": {}}}),
     "needs exactly one of 'file' and 'generator'"),
    (json.dumps({**_PLAN, "population": {"generator": {}, "seed": 3}}),
     "unknown key 'seed'"),
    (json.dumps({**_PLAN, "population": "pop.csv"}),
     'plan population "pop.csv": not a JSON object'),
    (json.dumps({**_PLAN, "population": {"file": 3}}),
     'plan population {"file": 3}: file must be a string, got 3'),
    (json.dumps([_PLAN]), "plan: not a JSON object"),
    (json.dumps({**_PLAN, "design": 3}), "plan design 3: not a JSON object"),
    (json.dumps({**_PLAN, "design": {"kind": "srswor", "n": 30,
                                     "allocations": {"h0": 5}}}),
     "unknown key 'allocations'"),
    (json.dumps({**_PLAN, "estimators": {"family": "HT"}}),
     'plan estimators {"family": "HT"}: not a JSON array'),
    (json.dumps({**_PLAN, "parameters": "mean"}),
     'plan parameters "mean": not a JSON array'),
    (json.dumps(_PLAN)[:40], "plan.json: Expecting ',' delimiter"),
], ids=["unknown-key", "no-design", "no-estimators", "no-population",
        "empty-population", "file-and-generator", "population-unknown-key",
        "population-not-an-object", "file-not-a-string", "plan-not-an-object",
        "design-not-an-object", "design-key-its-kind-ignores",
        "estimators-not-an-array", "parameters-not-an-array", "truncated"])
def test_simulate_plan_part_is_a_usage_error(runner, tmp_path, monkeypatch,
                                             text, message):
    """Every part of a plan is read against the spec that consumes it: a
    malformed part is refused, naming it, before any replicate."""
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text)
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, message)
    assert "Traceback" not in res.output


def test_simulate_plan_population_file_missing_is_a_usage_error(runner, tmp_path,
                                                                monkeypatch):
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    missing = tmp_path / "missing.csv"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({**_PLAN, "population": {"file": str(missing)}}))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, f"plan population file {missing}: No such file or directory")


def test_simulate_plan_takes_the_plan_defaults(runner, tmp_path, monkeypatch):
    """A plan without replicates, level, master_seed or variance_method
    runs with `SimulationPlan`'s defaults."""
    plans = []

    def record(plan, population):
        plans.append(plan)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_monte_carlo", record)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(_without("replicates")))
    assert runner.invoke(main, ["simulate", "--plan", str(plan_path)]).exit_code == 0
    (plan,) = plans
    assert (plan.replicates, plan.level, plan.master_seed, plan.variance_method) == (
        1000, 0.95, 0, "closed")


@pytest.mark.parametrize("command", [
    ["estimate", "--parameter", "mean:y", "--population"],
    ["weights", "--population"],
    ["simulate", "--plan"],
])
def test_path_option_refuses_a_directory(runner, tmp_path, command):
    res = runner.invoke(main, [*command, str(tmp_path)])
    _usage_error(res, "is a directory")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command,option", [
    (["basis"], "-o"),
    (["weights", "--family", "ht"], "-o"),
    (["weights", "--family", "ht"], "--diagnostics"),
    (["estimate", "--family", "ht", "--parameter", "mean:y"], "-o"),
    (["estimate", "--family", "ht", "--parameter", "mean:y"], "--emit-linearized"),
    (["simulate"], "--out-csv"),
])
def test_output_path_refuses_a_directory_before_any_work(
        runner, population_csv, tmp_path, monkeypatch, command, option):
    """An output option naming a directory is a usage error before the
    population is loaded and before any replicate runs."""
    monkeypatch.setattr(cli.Population, "from_csv", _fail)
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    if command[0] == "simulate":
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "population": {"generator": {"size": 300, "seed": 5}},
            "design": {"kind": "srswor", "n": 30}, "estimators": [{"family": "HT"}],
            "parameters": [{"kind": "mean"}], "replicates": 50}))
        command = [*command, "--plan", str(plan_path)]
    elif command[0] != "basis":
        command = [*command, "--population", str(population_csv)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    res = runner.invoke(main, [*command, option, str(out_dir)])
    _usage_error(res, f"'{out_dir}' is a directory")


@pytest.mark.parametrize("options,message", [
    (["-m", "0"], "-m 0 -K 2: spline order must be >= 1"),
    (["-K", "-1"], "-m 2 -K -1: interior knot count must be >= 0"),
    (["--grid", "-1"], "Invalid value for '--grid'"),
    (["-m", "2", "--lam", "1", "-p", "2"], "No such option '--lam'"),
    (["--knot-rule", "population_quantile", "--lam", "5"],
     "No such option '--knot-rule'"),
    (["-p", "1"], "No such option '-p'"),
], ids=["order-0", "knots-negative", "grid-negative", "lam", "knot-rule", "p"])
def test_basis_refuses_bad_or_ignored_options(runner, options, message):
    """`basis` takes only the options that shape a basis, and a value the
    spline or the grid cannot take is a usage error."""
    res = runner.invoke(main, ["basis", *options])
    _usage_error(res, message)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["estimate", "weights"])
@pytest.mark.parametrize("options,message", [
    (["-m", "0"], "-m 0 -K 2 --lam 0 -p 1: spline order must be >= 1"),
    (["-m", "3", "--lam", "1", "-p", "3"],
     "-m 3 -K 2 --lam 1 -p 3: penalty order must be below spline order"),
])
def test_spline_options_the_spline_refuses_are_usage_errors(
        runner, population_csv, monkeypatch, command, options, message):
    monkeypatch.setattr(cli, "draw", _fail)
    args = _command_args(command, population_csv) + ["--family", "bs", *options]
    _usage_error(runner.invoke(main, args), message)


def test_basis_output_is_unchanged(runner):
    res = runner.invoke(main, ["basis", "-m", "2", "-K", "3", "--grid", "5"])
    assert res.exit_code == 0, res.output
    assert res.output == ("z,B1,B2,B3,B4,B5\n"
                          "0,1,0,0,0,0\n"
                          "0.25,0,1,0,0,0\n"
                          "0.5,0,0,1,0,0\n"
                          "0.75,0,0,0,1,0\n"
                          "1,0,0,0,0,1\n")


def test_option_choices_and_defaults_come_from_the_specs():
    """The CLI states no choice list or default that a spec states."""
    from splinesurvey.basis import KNOT_RULES

    params = {p.name: p for p in cli.estimate.params}
    assert tuple(params["knot_rule"].type.choices) == KNOT_RULES
    assert tuple(params["variance_method"].type.choices) == simulate.VARIANCE_METHODS
    assert tuple(params["design"].type.choices) == tuple(cli.DESIGN_SETTINGS)
    spec = simulate.EstimatorSpec("BS")
    assert (params["order"].default, params["knots"].default, params["lam"].default,
            params["penalty_order"].default) == (spec.order, spec.knots, spec.lam,
                                                 spec.penalty_order)
    assert params["knot_rule"].default == SplineSpec(order=2, interior_knots=0).knot_rule
    assert {p.name for p in cli.basis.params} == {"order", "knots", "grid", "output"}


def test_weights_stdout_is_quoted_csv(runner, tmp_path):
    """On standard output the B-spline family tag and ids holding a comma,
    a quote or a line break stay one cell each, as `csv.reader` reads them."""
    path = tmp_path / "odd.csv"
    stems = ["u,3", 'say "hi"', "two\nlines"]
    ids = [f"{stems[i % 3]}{i}" for i in range(40)]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "z", "y"])
        wr.writerows([uid, 1.0 + i, 2.0 + (7 * i) % 11] for i, uid in enumerate(ids))
    res = runner.invoke(main, ["weights", "--population", str(path), "--n", "20",
                               "--seed", "2"])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(res.output.splitlines(keepends=True)))
    assert rows[0] == ["id", "pi", "weight", "family"]
    assert len(rows) == 21 and {len(row) for row in rows} == {4}
    assert {row[3] for row in rows[1:]} == {"BS(m=2,K=2,lam=0)"}
    assert {row[0] for row in rows[1:]} <= set(ids)
    assert any("\n" in row[0] for row in rows) and any('"' in row[0] for row in rows)


@pytest.mark.parametrize("command,option,marker", [
    (["weights", "--family", "greg", "-o", "w.csv"], "--diagnostics",
     '"calibration_residuals"'),
    (["weights", "--family", "ht"], "-o", "id,pi,weight,family\n"),
    (["estimate", "--family", "ht", "--parameter", "mean:y"], "--emit-linearized",
     "id,parameter,u,fitted,residual\n"),
    (["simulate"], "--out-csv", "parameter,estimator,truth,rb_percent"),
])
def test_dash_output_is_standard_output(runner, population_csv, tmp_path, monkeypatch,
                                        command, option, marker):
    """'-' names standard output for every output option: no file called
    '-' appears."""
    monkeypatch.chdir(tmp_path)
    if command[0] == "simulate":
        Path("plan.json").write_text(json.dumps({
            "population": {"generator": {"size": 300, "seed": 5}},
            "design": {"kind": "srswor", "n": 30}, "estimators": [{"family": "HT"}],
            "parameters": [{"kind": "mean"}], "replicates": 3}))
        command = [*command, "--plan", "plan.json"]
    else:
        command = [*command, "--population", str(population_csv), "--n", "30"]
    res = runner.invoke(main, [*command, option, "-"])
    assert res.exit_code == 0, res.output
    assert marker in res.output
    assert not Path("-").exists()


@pytest.mark.parametrize("method,message", [
    ("double_sum", "double-sum variance needs n_h >= 2 in stratum 'h0' "
                   "(n_h = 1 of N_h = 100)"),
    ("closed", "variance needs n_h >= 2 in stratum 'h0'"),
])
def test_estimate_stratum_of_one_sampled_unit_is_a_usage_error(runner, stratified_csv,
                                                                method, message):
    """No variance is unbiased with one sampled unit of a stratum: both
    methods refuse it, naming the stratum."""
    args = ["estimate", "--population", str(stratified_csv), "--family", "ht",
            "--design", "stratified", "--allocation", "h0=1", "--allocation", "h1=25",
            "--allocation", "h2=30", "--parameter", "mean:y", "--variance-method", method]
    _usage_error(runner.invoke(main, args), message)


@pytest.mark.parametrize("method,refused", [("double_sum", "double-sum variance"),
                                            ("closed", "variance")])
def test_plan_double_sum_on_a_stratum_of_one_sampled_unit_is_a_usage_error(
        runner, stratified_csv, tmp_path, monkeypatch, method, refused):
    """Refused before the truths and the replicates, whichever the method."""
    monkeypatch.setattr(cli, "run_monte_carlo", _fail)
    design = {"kind": "stratified", "allocations": {"h0": 20, "h1": 1, "h2": 30}}
    plan = {"population": {"file": str(stratified_csv)}, "design": design,
            "estimators": [{"family": "HT"}], "parameters": [{"kind": "mean"}],
            "replicates": 3, "variance_method": method}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    res = runner.invoke(main, ["simulate", "--plan", str(plan_path)])
    _usage_error(res, f"plan design {json.dumps(design)}: {refused} needs "
                      "n_h >= 2 in stratum 'h1' (n_h = 1 of N_h = 100)")
