import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splinesurvey import (
    Estimate,
    EstimatorSpec,
    ParameterSpec,
    Population,
    SampleData,
    SimulationPlan,
    SplineSpec,
    SplineSystem,
    Srswor,
    StratifiedSrswor,
    SynthConfig,
    VarianceEstimate,
    WeightedMeasure,
    bspline_weights,
    closed_form_variance,
    confidence_interval,
    draw,
    greg_weights,
    ht_weights,
    post_weights,
    replicate_seed,
    residual_fit,
    run_monte_carlo,
    synth_population,
    tv_proxy_distance,
)
import splinesurvey
from splinesurvey import cli, functionals, linearize, simulate


class TestSynthPopulation:
    def test_deterministic(self):
        cfg = SynthConfig(size=500)
        a = synth_population(cfg, 42)
        b = synth_population(cfg, 42)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.variables["y"], b.variables["y"])

    def test_noiseless_linear_is_perfectly_correlated(self):
        cfg = SynthConfig(size=400, noise_scale=0.0)
        pop = synth_population(cfg, 1)
        assert np.corrcoef(pop.variables["y"], pop.z)[0, 1] == pytest.approx(1.0)

    def test_default_size_matches_reference_population(self):
        assert SynthConfig().size == 19378

    def test_strata_partition(self):
        pop = synth_population(SynthConfig(size=300, strata_count=4), 3)
        assert len(pop.strata) == 300
        assert 1 < len(set(pop.strata)) <= 4


class TestSimulationPlan:
    def test_requires_ht(self):
        with pytest.raises(ValueError, match="HT"):
            SimulationPlan(design=Srswor(10),
                           estimators=(EstimatorSpec("GREG"),),
                           parameters=(ParameterSpec("mean"),),
                           replicates=5)

    def test_requires_replicates(self):
        with pytest.raises(ValueError):
            SimulationPlan(design=Srswor(10),
                           estimators=(EstimatorSpec("HT"),),
                           parameters=(ParameterSpec("mean"),),
                           replicates=0)

    # each bad setting fails at construction, before any replicate is drawn
    @pytest.mark.parametrize("setting,message", [
        ({"variance_method": "double-sum"}, "unknown variance method 'double-sum'"),
        ({"level": 1.5}, "confidence level must lie in"),
        ({"level": 0.0}, "confidence level must lie in"),
    ])
    def test_rejects_bad_settings(self, setting, message):
        with pytest.raises(ValueError, match=message):
            SimulationPlan(design=Srswor(10), estimators=(EstimatorSpec("HT"),),
                           parameters=(ParameterSpec("mean"),), replicates=3,
                           **setting)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown estimator family 'bs'"):
            EstimatorSpec("bs")

    @pytest.mark.parametrize("settings,message", [
        ({"order": 0}, "spline order must be >= 1"),
        ({"lam": -1.0}, "penalty weight must be >= 0"),
        ({"order": 2, "lam": 1.0, "penalty_order": 2},
         "penalty order must be below spline order"),
    ])
    def test_rejects_spline_settings_the_spline_spec_refuses(self, settings, message):
        with pytest.raises(ValueError, match=message):
            EstimatorSpec("BS", **settings)

    def test_design_is_checked_before_the_truths(self, monkeypatch):
        monkeypatch.setattr(ParameterSpec, "truth", _no_truth)
        plan = SimulationPlan(design=Srswor(301), estimators=(EstimatorSpec("HT"),),
                              parameters=(ParameterSpec("mean"),), replicates=2)
        with pytest.raises(ValueError, match="sample size 301 out of range for N=300"):
            run_monte_carlo(plan, synth_population(SynthConfig(size=300), 5))

    def test_rejects_repeated_estimator_labels(self):
        # without a penalty the penalty order changes nothing, so the two
        # entries are one estimator and would share a table row
        with pytest.raises(ValueError, match="estimator labels must be distinct"):
            SimulationPlan(design=Srswor(10),
                           estimators=(EstimatorSpec("HT"),
                                       EstimatorSpec("BS", order=3, knots=3),
                                       EstimatorSpec("BS", order=3, knots=3,
                                                     penalty_order=2)),
                           parameters=(ParameterSpec("mean"),), replicates=3)


def _no_truth(*args):
    raise AssertionError("truth computed")


class TestEstimatorLabels:
    def test_defaults_unchanged(self):
        assert [e.label for e in (EstimatorSpec("HT"), EstimatorSpec("GREG"),
                                  EstimatorSpec("POST", knots=2),
                                  EstimatorSpec("BS", order=2, knots=2),
                                  EstimatorSpec("BS", order=3, knots=4, lam=1.0),
                                  EstimatorSpec("BS", order=3, knots=3, lam=0.5,
                                                penalty_order=1))] == [
            "HT", "GREG", "POST(K=2)", "BS(2,K=2)", "BS(3,K=4,lam=1)",
            "BS(3,K=3,lam=0.5)"]

    def test_penalty_order_keeps_cells_apart(self):
        pop = synth_population(SynthConfig(size=600), 2)
        roster = (EstimatorSpec("HT"),
                  EstimatorSpec("BS", order=3, knots=3, lam=1.0, penalty_order=1),
                  EstimatorSpec("BS", order=3, knots=3, lam=1.0, penalty_order=2))
        assert roster[2].label == "BS(3,K=3,lam=1,p=2)"
        plan = SimulationPlan(design=Srswor(60), estimators=roster,
                              parameters=(ParameterSpec("mean"),), replicates=3)
        table = run_monte_carlo(plan, pop)
        assert {e for _, e in table.rows} == {e.label for e in roster}


@pytest.fixture(scope="module")
def result():
    pop = synth_population(SynthConfig(size=1500), 9)
    plan = SimulationPlan(
        design=Srswor(150),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("BS", order=2, knots=2)),
        parameters=(ParameterSpec("mean"), ParameterSpec("gini")),
        replicates=120,
        master_seed=17,
    )
    return pop, plan, run_monte_carlo(plan, pop)


class TestRunMonteCarlo:

    def test_ht_rrmse_is_reference(self, result):
        _, _, table = result
        assert table.row("mean(y)", "HT").rrmse_percent == 100.0
        assert table.row("gini(y)", "HT").rrmse_percent == 100.0

    def test_determinism_under_identical_plan(self, result):
        pop, plan, table = result
        again = run_monte_carlo(plan, pop)
        for key, row in table.rows.items():
            assert again.rows[key].rb_percent == row.rb_percent
            assert again.rows[key].coverage_percent == row.coverage_percent

    def test_second_run_same_table(self, result):
        pop, plan, table = result
        for p in plan.parameters:
            assert table.truths[p.label] == p.evaluate(pop.variables,
                                                       np.ones(pop.size))
        again = run_monte_carlo(plan, pop)
        assert again.truths == table.truths
        for key, row in table.rows.items():
            assert replace(again.rows[key], mean_runtime=0.0) == replace(
                row, mean_runtime=0.0)

    def test_coverage_in_range(self, result):
        _, _, table = result
        for row in table.rows.values():
            assert 0.0 <= row.coverage_percent <= 100.0

    def test_spline_improves_on_ht_for_mean(self, result):
        _, _, table = result
        assert table.row("mean(y)", "BS(2,K=2)").rrmse_percent < 100.0

    def test_render_and_csv(self, result, tmp_path):
        _, _, table = result
        text = table.render()
        assert "RRMSE (RB)" in text
        out = tmp_path / "metrics.csv"
        table.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header.startswith("parameter,estimator")


def test_variance_residuals_match_residual_fit(monkeypatch):
    """The residuals entering each variance equal a fresh `residual_fit`
    with the estimator's spec (order 2, K = 0 for GREG; u itself for HT),
    over a few replicates of the criterion-10 plan. The replicates are
    stacked: each variance call covers the whole chunk, one row per
    replicate, and each row is checked against that replicate drawn alone."""
    pop = synth_population(SynthConfig(), 10)
    plan = SimulationPlan(
        design=Srswor(500),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("POST", knots=2),
                    EstimatorSpec("BS", order=2, knots=2)),
        parameters=(ParameterSpec("mean"), ParameterSpec("gini")),
        replicates=3,
        master_seed=11,
    )
    seen = []

    def recording(sample, residuals):
        seen.append((sample.indices.copy(), np.array(residuals)))
        return closed_form_variance(sample, residuals)

    monkeypatch.setattr(simulate, "closed_form_variance", recording)
    run_monte_carlo(plan, pop)

    samples = [draw(pop, plan.design, replicate_seed(plan.master_seed, i))
               for i in range(plan.replicates)]
    got = iter(seen)
    for est in plan.estimators:
        for p in plan.parameters:
            indices, residuals = next(got)
            assert residuals.shape == (plan.replicates, 500)
            for i, sample in enumerate(samples):
                assert np.array_equal(indices[i], sample.indices)
                values = {name: v[sample.indices] for name, v in pop.variables.items()}
                u = p.linearized(values, 1.0 / sample.pi)
                if est.family == "HT":
                    want = u
                else:
                    spec = (SplineSpec(order=2, interior_knots=0)
                            if est.family == "GREG" else est.spline_spec())
                    want = residual_fit(sample, spec, u).residuals
                gap = np.max(np.abs(residuals[i] - want))
                assert gap <= 1e-12 * np.max(np.abs(u)), (i, est.label, p.label)
    assert next(got, None) is None


def _row(est: Estimate, r) -> Estimate:
    """Row r of a stack's estimate; one sample's (r None) as it is."""
    if r is None:
        return est
    v = est.variance
    return Estimate(est.point[r], est.u[r], est.fitted[r],
                    VarianceEstimate(v.value[r], v.method),
                    (est.interval[0][r], est.interval[1][r]))


class TestSampleData:
    PARAMETERS = (ParameterSpec("mean"), ParameterSpec("gini"),
                  ParameterSpec("ratio"), ParameterSpec("poverty_rate"))

    DESIGN = StratifiedSrswor({"h0": 60, "h1": 70, "h2": 80})
    SPEC = SplineSpec(order=3, interior_knots=3, lam=0.5)
    WEIGHTS = {"BS": lambda sample: bspline_weights(sample, TestSampleData.SPEC),
               "HT": ht_weights}

    @pytest.fixture(scope="class")
    def population(self):
        return synth_population(SynthConfig(size=3000, strata_count=3), 4)

    @pytest.fixture(scope="class")
    def sample(self, population):
        return draw(population, self.DESIGN, 9)

    @pytest.mark.parametrize("family,seeds", [("BS", 9), ("HT", 9), ("BS", [9, 10, 11])],
                             ids=["bs", "ht", "bs_stack_of_3"])
    def test_estimate_is_the_sum_of_its_parts(self, population, family, seeds):
        """Point, linearized variable, residual fit, variance and interval
        equal the library functions called one by one: with B-spline
        weights, with HT weights (whose point reads the linearization's
        measure and whose fit is zero), and on each row of a stack of three,
        whose parts are called on that row's sample alone."""
        spec = self.SPEC
        drawn = draw(population, self.DESIGN, seeds)
        data = SampleData(drawn, self.PARAMETERS)
        weights = self.WEIGHTS[family](drawn)
        rows = list(enumerate(seeds)) if drawn.replicates else [(None, seeds)]
        for p in self.PARAMETERS:
            for r, seed in rows:
                sample = draw(population, self.DESIGN, seed)
                ws = self.WEIGHTS[family](sample)
                values = {name: v[sample.indices]
                          for name, v in sample.population.variables.items()}
                est = _row(data.estimate(weights, p, "closed", 0.9), r)
                assert isinstance(est, Estimate)
                assert est.point == p.evaluate(values, ws.weights)
                u = p.linearized(values, 1.0 / sample.pi)
                assert np.array_equal(est.u, u)
                want = residual_fit(sample, spec, u).residuals if ws.system else u
                assert np.max(np.abs(est.residuals - want)) <= 1e-12 * np.max(np.abs(u))
                v = closed_form_variance(sample, est.residuals)
                assert est.variance == v
                assert est.interval == confidence_interval(est.point, v, 0.9)
                # stratified SRSWOR: the double sum is the closed form
                ds = _row(data.estimate(weights, p, "double_sum", 0.9), r)
                assert ds.variance.method == "double_sum"
                assert ds.variance.value == pytest.approx(v.value, rel=1e-9)
                assert ds.point == est.point

    def test_negative_variance_has_no_interval(self, sample, monkeypatch):
        monkeypatch.setattr(simulate, "closed_form_variance",
                            lambda sample, residuals: VarianceEstimate(-1.0, "closed"))
        data = SampleData(sample, self.PARAMETERS)
        est = data.estimate(ht_weights(sample), self.PARAMETERS[0],
                            "closed", 0.95)
        assert est.variance.negative
        assert est.interval is None

    def test_monte_carlo_counts_negative_variances(self, monkeypatch):
        """A replicate whose variance is negative counts in the negative
        variances and leaves the coverage; with none left it is NaN."""
        calls = []

        def every_other(sample, residuals):
            calls.append(None)
            v = closed_form_variance(sample, residuals)
            return VarianceEstimate(-v.value if len(calls) % 2 else v.value, v.method)

        monkeypatch.setattr(simulate, "closed_form_variance", every_other)
        pop = synth_population(SynthConfig(size=1000), 2)
        plan = SimulationPlan(design=Srswor(100),
                              estimators=(EstimatorSpec("HT"),),
                              parameters=(ParameterSpec("mean"),
                                          ParameterSpec("total")),
                              replicates=4, master_seed=3)
        table = run_monte_carlo(plan, pop)
        # calls alternate mean, total, so every mean variance is negated
        mean_row, total_row = table.row("mean(y)", "HT"), table.row("total(y)", "HT")
        assert mean_row.negative_variances == 4
        assert np.isnan(mean_row.coverage_percent)
        assert total_row.negative_variances == 0
        assert 0.0 <= total_row.coverage_percent <= 100.0


class TestParameterTruth:
    def test_strict_poverty_rate_at_threshold(self):
        # the median is 4, so the threshold 0.5 * 4 = 2 carries two units
        y = np.array([4.0, 2.0, 5.0, 3.0, 4.0, 2.0, 4.0])
        pop = Population(ids=tuple("abcdefg"), z=np.arange(7.0),
                         variables={"y": y})
        weak = ParameterSpec("poverty_rate", fraction=0.5)
        strict = ParameterSpec("poverty_rate", fraction=0.5, strict=True)
        assert strict.label == weak.label == "poverty_rate(y)"
        assert weak.truth(pop) == 2.0 / 7.0
        assert strict.truth(pop) == 0.0
        masses = np.array([1.0, 0.5, 1.0, 1.0, 1.0, 1.5, 1.0])
        assert strict.evaluate(pop.variables, masses) == 0.0
        assert weak.evaluate(pop.variables, masses) == 2.0 / 7.0

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown parameter kind 'median'"):
            ParameterSpec("median")

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan"), "0.5", None])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match=r"level must be a number in \(0, 1\)"):
            ParameterSpec("poverty_rate", level=level)

    @pytest.mark.parametrize("fraction", [0, -1, 0.0, float("inf"), float("nan"),
                                          "0.6", True, None])
    def test_fraction_not_positive_finite_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"fraction must be a number in \(0, inf\)"):
            ParameterSpec("poverty_rate", fraction=fraction)

    def test_valid_thresholds_accepted(self):
        spec = ParameterSpec("poverty_rate", fraction=np.float64(2), level=np.float64(0.25))
        assert (spec.fraction, spec.level) == (2.0, 0.25)
        assert ParameterSpec("mean", fraction=1, level=0.9).kind == "mean"

    def test_plan_rejects_repeated_labels(self):
        # weak and strict poverty rates share a label, and the table is
        # keyed by label, so one plan cannot hold both
        with pytest.raises(ValueError, match="labels must be distinct"):
            SimulationPlan(design=Srswor(10), estimators=(EstimatorSpec("HT"),),
                           parameters=(ParameterSpec("poverty_rate"),
                                       ParameterSpec("poverty_rate", strict=True)),
                           replicates=1)


class TestFamilyTable:
    """Each family's table entry builds what its weight function builds."""

    @pytest.fixture(scope="class")
    def samples(self):
        pop = synth_population(SynthConfig(size=2000), 6)
        return draw(pop, Srswor(200), [11, 12, 13]), draw(pop, Srswor(200), 14)

    @pytest.mark.parametrize("spec,direct", [
        (EstimatorSpec("HT"), ht_weights),
        (EstimatorSpec("GREG"), greg_weights),
        (EstimatorSpec("POST", knots=3), lambda d: post_weights(d, 3)),
        (EstimatorSpec("BS", order=3, knots=4, lam=0.5, penalty_order=2),
         lambda d: bspline_weights(d, SplineSpec(order=3, interior_knots=4, lam=0.5,
                                                 penalty_order=2))),
    ], ids=["HT", "GREG", "POST", "BS"])
    def test_build_weights_is_the_family_function(self, samples, spec, direct):
        """On a (3, n) stack and on one sample: the weights bit for bit, the
        family tag and the diagnostics."""
        for sample in samples:
            got, want = spec.build_weights(sample), direct(sample)
            assert got.weights.shape == sample.indices.shape
            assert got.weights.tobytes() == want.weights.tobytes()
            assert np.array_equal(got.indices, want.indices)
            assert got.family == want.family
            assert got.diagnostics == want.diagnostics

    def test_spline_is_the_one_the_family_calibrates_on(self):
        assert EstimatorSpec("HT").spline_spec() is None
        assert EstimatorSpec("GREG").spline_spec() == SplineSpec(order=2, interior_knots=0)
        assert (EstimatorSpec("POST", knots=3).spline_spec()
                == SplineSpec(order=1, interior_knots=3))
        assert (EstimatorSpec("BS", order=3, knots=4, lam=0.5, penalty_order=2).spline_spec()
                == SplineSpec(order=3, interior_knots=4, lam=0.5, penalty_order=2))

    def test_settings_are_range_checked_as_given(self):
        """POST ignores the penalty, so a penalty beside the default order is
        no contradiction; a setting out of range is refused whatever the
        family reads."""
        post = EstimatorSpec("POST", knots=2, lam=1.0)
        assert post.label == "POST(K=2)"
        assert post.spline_spec() == SplineSpec(order=1, interior_knots=2)
        with pytest.raises(ValueError, match="interior knot count must be >= 0"):
            EstimatorSpec("HT", knots=-1)
        with pytest.raises(ValueError, match="penalty order must be below spline order"):
            EstimatorSpec("GREG", order=1, lam=1.0)
        with pytest.raises(ValueError, match="spline order must be >= 1"):
            EstimatorSpec("POST", order=0)


def _plan(**changes):
    return SimulationPlan(design=Srswor(10), estimators=(EstimatorSpec("HT"),),
                          parameters=(ParameterSpec("mean"),), replicates=1, **changes)


@pytest.mark.parametrize("make,message", [
    (lambda: ParameterSpec("poverty_rate", strict="no"), "strict must be a bool, got 'no'"),
    (lambda: ParameterSpec("poverty_rate", strict=1), "strict must be a bool, got 1"),
    (lambda: ParameterSpec("mean", variable=3), "variable must be a string, got 3"),
    (lambda: ParameterSpec("ratio", denominator=None),
     "denominator must be a string, got None"),
    (lambda: ParameterSpec(["mean"]), "kind must be a string, got ['mean']"),
    (lambda: EstimatorSpec("BS", knots="3"), "knots must be a whole number, got '3'"),
    (lambda: EstimatorSpec("BS", order=3.0), "order must be a whole number, got 3.0"),
    (lambda: EstimatorSpec("BS", lam=True), "lam must be a number, got True"),
    (lambda: EstimatorSpec(("BS",)), "family must be a string, got ('BS',)"),
    (lambda: SynthConfig(size="300"), "size must be a whole number, got '300'"),
    (lambda: SynthConfig(size=300.0), "size must be a whole number, got 300.0"),
    (lambda: SynthConfig(log_sd="0.5"), "log_sd must be a number, got '0.5'"),
    (lambda: _plan(level="0.9"), "level must be a number, got '0.9'"),
    (lambda: _plan(master_seed="x"), "master_seed must be a whole number, got 'x'"),
    (lambda: _plan(master_seed=1.5), "master_seed must be a whole number, got 1.5"),
])
def test_specs_refuse_values_of_the_wrong_type(make, message):
    """A spec field whose value is not of its annotated type is refused
    with a ValueError naming the field and the value; a bool is not a
    number, and a non-empty string is not a bool."""
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_specs_accept_numpy_scalars():
    assert EstimatorSpec("BS", order=np.int64(3), knots=np.int32(4),
                         lam=np.float64(0.5)).label == "BS(3,K=4,lam=0.5)"
    assert SynthConfig(size=np.int64(300), slope=2).size == 300
    assert _plan(level=np.float64(0.9), master_seed=np.uint32(7)).level == 0.9
    assert ParameterSpec("poverty_rate", strict=False).strict is False


def test_kinds_look_their_functions_up_on_the_module(monkeypatch):
    """Every KINDS entry finds its functional and its linearization on
    `simulate` when called, so a wrapper put there (the benchmark's span
    tracer) sees each call."""
    called = []
    for name in ("total", "mean", "ratio", "gini", "poverty_rate", "linearized_total",
                 "linearized_ratio", "linearized_gini", "linearized_poverty_rate"):
        def wrapper(*args, _fn=getattr(simulate, name), _name=name, **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(simulate, name, wrapper)
    values = {"y": np.arange(1.0, 13.0) % 5 + 1, "x": np.arange(12.0, 0.0, -1.0)}
    w = np.linspace(1.0, 2.0, 12)
    for kind in simulate.KINDS:
        spec = ParameterSpec(kind)
        called.clear()
        spec.evaluate(values, w)
        spec.linearized(values, w)
        linearization = "linearized_ratio" if kind == "mean" else f"linearized_{kind}"
        assert called == [kind, linearization]


@pytest.mark.parametrize("kinds", [("mean", "gini"),
                                   ("mean", "gini", "poverty_rate", "ratio", "total")])
def test_each_variable_sorted_once_per_replicate(monkeypatch, kinds):
    """On the criterion-10 plan, y is sorted once for the truths and once
    per replicate: the replicates of a chunk are sorted together, row by
    row, and every estimator's measure and the HT linearization share that
    sort, and totals, means and ratios never sort."""
    shapes = []
    sort_runs = functionals._sort_runs
    monkeypatch.setattr(functionals, "_sort_runs",
                        lambda v: shapes.append(v.shape) or sort_runs(v))
    pop = synth_population(SynthConfig(size=19378), 3)
    plan = SimulationPlan(
        design=Srswor(500),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("POST", knots=2),
                    EstimatorSpec("BS", order=2, knots=2)),
        parameters=tuple(ParameterSpec(k) for k in kinds),
        replicates=3, master_seed=5)
    run_monte_carlo(plan, pop)
    assert shapes == [(19378,), (3, 500)]


def _criterion_10_chunk():
    """Three replicates of the criterion-10 roster, mean and Gini: one chunk."""
    plan = SimulationPlan(
        design=Srswor(100),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("POST", knots=2), EstimatorSpec("BS", order=2, knots=2)),
        parameters=(ParameterSpec("mean"), ParameterSpec("gini")),
        replicates=3, master_seed=5)
    run_monte_carlo(plan, synth_population(SynthConfig(size=2000), 3))


def _stratified_chunk():
    """Three stratified replicates of HT, GREG and BS(3,K=4,lam=1), ratio
    and poverty rate, with the double-sum variance: one chunk."""
    plan = SimulationPlan(
        design=StratifiedSrswor({"h0": 40, "h1": 40, "h2": 40}),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("BS", order=3, knots=4, lam=1.0)),
        parameters=(ParameterSpec("ratio", "y", "x"), ParameterSpec("poverty_rate")),
        replicates=3, master_seed=5, variance_method="double_sum")
    run_monte_carlo(plan, synth_population(SynthConfig(size=2000, strata_count=3), 3))


def _estimate_call(tmp_path):
    """One CLI `estimate` call with B-spline weights and four parameters."""
    from click.testing import CliRunner

    from splinesurvey.cli import main

    pop = synth_population(SynthConfig(size=2000), 3)
    path = tmp_path / "pop.csv"
    z, y, x = (a.tolist() for a in (pop.z, pop.variables["y"], pop.variables["x"]))
    path.write_text("id,z,y,x\n" + "".join(f"u{k},{z[k]!r},{y[k]!r},{x[k]!r}\n"
                                            for k in range(pop.size)))
    args = ["estimate", "--population", str(path), "--family", "bs", "-m", "3", "-K", "4",
            "--lam", "0.5", "--n", "100", "--seed", "4"]
    for token in ("mean:y", "ratio:y/x", "gini:y", "poverty_rate:y"):
        args += ["--parameter", token]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("run,truths,samples,shape", [
    (lambda tmp_path: _criterion_10_chunk(), 2, 4, (3, 100)),
    (lambda tmp_path: _stratified_chunk(), 3, 6, (3, 120)),
    (_estimate_call, 0, 4, (100,)),
], ids=["criterion_10_chunk", "stratified_chunk", "estimate_call"])
def test_each_variable_measured_once_per_weight_set(monkeypatch, tmp_path, run, truths,
                                                    samples, shape):
    """A sample builds one measure per variable and weight set: the HT
    linearizations and the HT point read one measure, every parameter of
    a weight set reads that set's, and the bandwidth reads the poverty
    rate's. Wrapped are the `WeightedMeasure` names the benchmark's span
    tracer hooks; the truths' census measures are counted apart."""
    shapes = []
    for module in (simulate, linearize, cli):
        monkeypatch.setattr(module, "WeightedMeasure",
                            lambda values, *args, _cls=module.WeightedMeasure, **kwargs:
                            shapes.append(np.shape(values)) or _cls(values, *args, **kwargs))
    run(tmp_path)
    assert shapes.count((2000,)) == truths
    assert shapes.count(shape) == samples
    assert len(shapes) == truths + samples


def test_census_truths_of_sums_and_poverty_rate_do_not_sort(monkeypatch):
    """A ratio and a poverty rate need no census sort: the truth's median
    is selected and its CDF counted, so only the (R, n) chunks are sorted."""
    shapes = []
    sort_runs = functionals._sort_runs
    monkeypatch.setattr(functionals, "_sort_runs",
                        lambda v: shapes.append(v.shape) or sort_runs(v))
    pop = synth_population(SynthConfig(size=19378), 3)
    plan = SimulationPlan(
        design=Srswor(500),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("BS", order=2, knots=2)),
        parameters=(ParameterSpec("ratio"), ParameterSpec("poverty_rate")),
        replicates=3, master_seed=5)
    run_monte_carlo(plan, pop)
    assert shapes == [(3, 500)]


def test_monte_carlo_computes_no_weight_diagnostics(monkeypatch):
    """The harness reads no weight diagnostics, so a run of the three
    spline families computes no calibration residuals; reading a weight
    set's diagnostics computes them once."""
    shapes = []
    residuals = SplineSystem.calibration_residuals
    monkeypatch.setattr(SplineSystem, "calibration_residuals",
                        lambda self, w: shapes.append(w.shape) or residuals(self, w))
    pop = synth_population(SynthConfig(size=600), 4)
    plan = SimulationPlan(
        design=Srswor(60),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("POST", knots=2),
                    EstimatorSpec("BS", order=2, knots=2)),
        parameters=(ParameterSpec("mean"), ParameterSpec("gini")),
        replicates=5, master_seed=3)
    run_monte_carlo(plan, pop)
    assert shapes == []
    assert greg_weights(draw(pop, plan.design, [1, 2])).diagnostics["rcond"]
    assert shapes == [(2, 60)]


class TestTvProxyDistance:
    def test_identical_measures(self):
        m = WeightedMeasure([1.0, 2.0, 3.0])
        assert tv_proxy_distance(m, m) == 0.0

    def test_hand_example(self):
        a = WeightedMeasure([1.0, 2.0])
        b = WeightedMeasure([1.0, 3.0])
        assert tv_proxy_distance(a, b, grid_size=50) == pytest.approx(0.5)

    def test_grid_validation(self):
        m = WeightedMeasure([1.0])
        with pytest.raises(ValueError):
            tv_proxy_distance(m, m, grid_size=1)


def test_array_holding_dataclasses_compare_by_identity(small_population):
    """A dataclass that holds arrays compares and hashes by identity: `==`
    gives a bool instead of numpy's ambiguous truth value, and a frozen one
    is hashable."""
    from splinesurvey import GivenProbabilities, linearized_total

    sample = draw(small_population, Srswor(50), 3)
    ws = greg_weights(sample)
    p = ParameterSpec("mean")
    u = linearized_total(sample.sample_values("y"))
    instances = [
        ws,
        SampleData(sample, [p]).estimate(ws, p, "closed", 0.95),
        u,
        residual_fit(sample, SplineSpec(order=2, interior_knots=1), u.values),
        sample.pair_cells,
        small_population,
        GivenProbabilities(np.full(small_population.size, 0.1)),
    ]
    assert [type(obj).__name__ for obj in instances] == [
        "WeightSet", "Estimate", "LinearizedVariables", "ResidualFit", "PairCells",
        "Population", "GivenProbabilities"]
    for obj in instances:
        assert (obj == obj) is True
        assert (obj != obj) is False
        assert isinstance(hash(obj), int)
    assert (greg_weights(sample) == greg_weights(sample)) is False


# Runs a small criterion-10 plan and prints its truths and every table field
# but the runtime, each float as its hex string.
THREADS_SCRIPT = """
import json
from splinesurvey import (EstimatorSpec, ParameterSpec, SimulationPlan, Srswor,
                          SynthConfig, run_monte_carlo, synth_population)
pop = synth_population(SynthConfig(size=19378), 1)
plan = SimulationPlan(
    design=Srswor(200),
    estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"), EstimatorSpec("POST", knots=2),
                EstimatorSpec("BS", order=3, knots=4, lam=1.0)),
    parameters=(ParameterSpec("gini"), ParameterSpec("ratio", "y", "x"),
                ParameterSpec("poverty_rate"), ParameterSpec("mean")),
    replicates=12, master_seed=3)
table = run_monte_carlo(plan, pop)
hexed = lambda v: v.hex() if isinstance(v, float) else v
print(json.dumps({
    "truths": {p: t.hex() for p, t in table.truths.items()},
    "rows": {" ".join(key): {name: hexed(v) for name, v in vars(row).items()
                             if name != "mean_runtime"}
             for key, row in table.rows.items()}}))
"""


def test_numbers_do_not_depend_on_the_blas_thread_count():
    """The same plan at 1 and 2 OpenBLAS threads, each in its own process,
    gives bit-identical truths and tables: on a population of 19 378 units
    a BLAS dot of the census splits across the threads, so the sums that
    enter a reported number are pairwise sums instead."""
    src = str(Path(splinesurvey.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(json.loads(done.stdout))
    assert len(outputs[0]["truths"]) == 4 and len(outputs[0]["rows"]) == 16
    assert outputs[0] == outputs[1]
