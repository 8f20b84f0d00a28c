"""Stacked replicates: R samples drawn from their own seeds and carried
through every layer as arrays with a leading replicate axis give, row for
row, what each sample gives alone."""

from dataclasses import replace

import numpy as np
import pytest

from splinesurvey import (
    EstimatorSpec,
    GivenProbabilities,
    Ordering,
    ParameterSpec,
    Population,
    SampleData,
    SampleDraw,
    SimulationPlan,
    SplineSpec,
    Srswor,
    StratifiedSrswor,
    SynthConfig,
    closed_form_variance,
    draw,
    ht_variance_double_sum,
    replicate_seed,
    run_monte_carlo,
    synth_population,
)
from splinesurvey import functionals, simulate
from splinesurvey.linearize import silverman_bandwidth
from splinesurvey.weights import SplineSystem


def _seeds(master, count):
    return [replicate_seed(master, i) for i in range(count)]


class TestStackedDraw:
    @pytest.mark.parametrize("design", [Srswor(40),
                                        StratifiedSrswor({"h0": 10, "h1": 12, "h2": 9})])
    def test_rows_are_the_single_draws(self, design):
        pop = synth_population(SynthConfig(size=600, strata_count=3), 1)
        seeds = _seeds(4, 5)
        stack = draw(pop, design, seeds)
        assert stack.replicates == (5,) and stack.size == design_size(design)
        for r, seed in enumerate(seeds):
            alone = draw(pop, design, seed)
            assert np.array_equal(stack.indices[r], alone.indices)
            assert stack.pi[r].tobytes() == alone.pi.tobytes()

    def test_poisson_samples_are_not_stacked(self):
        pop = synth_population(SynthConfig(size=100), 1)
        with pytest.raises(ValueError, match="cannot be stacked"):
            draw(pop, GivenProbabilities(np.full(100, 0.3)), _seeds(1, 2))

    def test_pi_full_is_built_on_first_use(self):
        pop = synth_population(SynthConfig(size=500, strata_count=2), 2)
        d = draw(pop, StratifiedSrswor({"h0": 20, "h1": 30}), 3)
        assert "pi_full" not in vars(d)
        sizes = pop.stratum_codes.sizes
        want = np.array([20 / sizes[0], 30 / sizes[1]])[pop.stratum_codes.codes]
        assert np.array_equal(d.pi_full, want)
        assert np.array_equal(d.pi, want[d.indices])

    @pytest.mark.parametrize("design", [Srswor(40),
                                        StratifiedSrswor({"h0": 10, "h1": 12, "h2": 9})])
    def test_stacked_variances_row_by_row(self, design):
        # both routes read the stack's cells; each row's value is, bit for
        # bit, the value of its seed's draw alone
        pop = synth_population(SynthConfig(size=600, strata_count=3), 1)
        seeds = _seeds(2, 3)
        stack = draw(pop, design, seeds)
        e = 3.0 + np.random.default_rng(8).standard_normal(stack.indices.shape)
        for variance in (closed_form_variance, ht_variance_double_sum):
            rows = variance(stack, e).value
            for r, seed in enumerate(seeds):
                alone = variance(draw(pop, design, seed), e[r]).value
                assert float(rows[r]).hex() == alone.hex(), (variance.__name__, r)


def design_size(design):
    return design.n if isinstance(design, Srswor) else sum(design.allocations.values())


class TestProbabilityChecks:
    def _pop(self, N=4):
        return Population(ids=tuple(map(str, range(N))), z=np.arange(1.0, N + 1),
                          variables={"y": np.arange(1.0, N + 1)})

    def test_nan_probability_of_a_sampled_unit_is_refused(self):
        with pytest.raises(ValueError, match=r"must lie in \(0,1\]"):
            SampleDraw(self._pop(), Srswor(2), [0, 1], [0.5, np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"must lie in \(0,1\]"):
            SampleDraw(self._pop(), Srswor(2), [0, 1], pi=[0.5, np.nan])

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.1, 1.5])
    def test_given_probabilities_are_checked_at_construction(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \(0,1\]"):
            GivenProbabilities(np.array([0.5, bad, 0.2]))

    def test_given_probabilities_are_a_read_only_copy(self):
        pi = np.array([0.5, 0.25])
        design = GivenProbabilities(pi)
        pi[0] = 2.0
        assert design.pi.tolist() == [0.5, 0.25]
        with pytest.raises(ValueError, match="read-only"):
            design.pi[0] = 0.3

    def test_plan_refuses_poisson_with_closed_form(self):
        pop = synth_population(SynthConfig(size=300), 5)
        design = GivenProbabilities(np.full(300, 0.2))
        kwargs = dict(design=design, estimators=(EstimatorSpec("HT"),),
                      parameters=(ParameterSpec("mean"),), replicates=2)
        with pytest.raises(ValueError, match="no closed-form variance"):
            SimulationPlan(**kwargs)
        table = run_monte_carlo(SimulationPlan(**kwargs, variance_method="double_sum"),
                                pop)
        assert table.replicates == 2


class TestSilvermanBandwidth:
    @staticmethod
    def reference(y, w):
        """The bandwidth with its own argsort, as computed before it read
        the shared ordering."""
        w1 = w / w.sum()
        mu = float(w1 @ y)
        sd = float(np.sqrt(max(w1 @ (y - mu) ** 2, 0.0)))
        order = np.argsort(y)
        cum = np.cumsum(w1[order])
        q25 = y[order][np.searchsorted(cum, 0.25)]
        q75 = y[order][np.searchsorted(cum, 0.75)]
        spread = min(sd, (q75 - q25) / 1.349) if q75 > q25 else sd
        n_eff = float(w.sum() ** 2 / (w**2).sum())
        return 0.9 * spread * n_eff ** (-0.2)

    def test_equals_the_argsort_bandwidth_without_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(10, 400))
            y, w = rng.lognormal(7.0, 0.6, n), rng.uniform(5.0, 60.0, n)
            assert silverman_bandwidth(y, w, Ordering(y)) == self.reference(y, w)

    def test_reads_the_shared_sort(self, monkeypatch):
        calls = []
        sort_runs = functionals._sort_runs
        monkeypatch.setattr(functionals, "_sort_runs",
                            lambda v: calls.append(v.shape) or sort_runs(v))
        y = np.random.default_rng(2).lognormal(1.0, 1.0, (3, 60))
        ordering = Ordering(y)
        stacked = silverman_bandwidth(y, np.ones_like(y), ordering)
        assert calls == [(3, 60)]
        for r in range(3):
            assert stacked[r] == silverman_bandwidth(y[r], np.ones(60))


def _table_cells(table):
    return {key: (row.rb_percent, row.rrmse_percent, row.coverage_percent,
                  row.negative_variances) for key, row in table.rows.items()}


def _assert_same_cells(a, b):
    assert a.keys() == b.keys()
    for key in a:
        for x, y in zip(a[key], b[key]):
            assert x == pytest.approx(y, rel=1e-12, abs=0.0, nan_ok=True), key


class TestChunking:
    def test_table_does_not_depend_on_chunking(self, monkeypatch):
        pop = synth_population(SynthConfig(size=5000, strata_count=3), 6)
        plan = SimulationPlan(
            design=StratifiedSrswor({"h0": 60, "h1": 70, "h2": 50}),
            estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                        EstimatorSpec("POST", knots=3),
                        EstimatorSpec("BS", order=3, knots=4, lam=0.5)),
            parameters=(ParameterSpec("mean"), ParameterSpec("gini"),
                        ParameterSpec("ratio"), ParameterSpec("poverty_rate"),
                        ParameterSpec("total")),
            replicates=23, master_seed=4, variance_method="double_sum")
        stacked = run_monte_carlo(plan, pop)
        monkeypatch.setattr(simulate, "CHUNK_UNITS", 1)
        alone = run_monte_carlo(plan, pop)
        assert stacked.truths == alone.truths
        _assert_same_cells(_table_cells(stacked), _table_cells(alone))

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_rerun_of_a_failing_chunk_fills_its_own_columns(self, monkeypatch, failing_call):
        """A chunk that fails stacked and succeeds seed by seed (the first
        chunk, or the second, which starts at replicate 3) gives the table
        of a run in which no chunk fails, bit for bit."""
        pop = synth_population(SynthConfig(size=5000, strata_count=3), 6)
        plan = SimulationPlan(
            design=StratifiedSrswor({"h0": 60, "h1": 70, "h2": 50}),
            estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                        EstimatorSpec("BS", order=3, knots=4, lam=0.5)),
            parameters=(ParameterSpec("mean"), ParameterSpec("gini"),
                        ParameterSpec("poverty_rate")),
            replicates=8, master_seed=4, variance_method="double_sum")
        monkeypatch.setattr(simulate, "CHUNK_UNITS", 3 * 180)  # chunks 3, 3, 2
        want = run_monte_carlo(plan, pop)
        estimate_chunk, stacked = simulate._estimate_chunk, []

        def failing(plan, population, seeds):
            if len(seeds) > 1:
                stacked.append(seeds)
                if len(stacked) == failing_call:
                    raise ValueError("a stacked chunk fails")
            return estimate_chunk(plan, population, seeds)

        monkeypatch.setattr(simulate, "_estimate_chunk", failing)
        got = run_monte_carlo(plan, pop)
        assert len(stacked) == 3
        assert got.truths == want.truths
        assert ({key: replace(row, mean_runtime=0.0) for key, row in got.rows.items()}
                == {key: replace(row, mean_runtime=0.0) for key, row in want.rows.items()})

    def test_failing_replicate_raises_what_it_raises_alone(self, monkeypatch):
        # a covariate rounded to a few values: POST with four cut points
        # fails in some replicates (the eighth first), not in all
        pop = synth_population(SynthConfig(size=2000), 3)
        z = np.round(pop.z / 400.0)
        pop = Population(ids=pop.ids, z=z, variables=pop.variables)
        plan = SimulationPlan(design=Srswor(60),
                              estimators=(EstimatorSpec("HT"),
                                          EstimatorSpec("POST", knots=4)),
                              parameters=(ParameterSpec("mean"),),
                              replicates=40, master_seed=1)
        outcomes = []
        for units in (simulate.CHUNK_UNITS, 1):
            monkeypatch.setattr(simulate, "CHUNK_UNITS", units)
            try:
                run_monte_carlo(plan, pop)
                outcomes.append(None)
            except Exception as err:  # noqa: BLE001 - compared below
                outcomes.append((type(err), str(err)))
        assert outcomes[0] is not None
        assert outcomes[0] == outcomes[1]
        sample = draw(pop, plan.design, replicate_seed(1, 7))
        with pytest.raises(outcomes[0][0]) as alone:
            plan.estimators[1].build_weights(sample)
        assert str(alone.value) == outcomes[0][1]


class TestEveryDrawIsAStack:
    """`run_monte_carlo` draws every chunk as an (R, n) stack, R = 1
    included: a one-replicate plan, a last chunk of one replicate, a
    Poisson sample and the one-seed reruns after a failing chunk."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        seen = []

        def recording(population, design, seeds):
            sample = draw(population, design, seeds)
            seen.append(sample.indices.shape)
            return sample

        monkeypatch.setattr(simulate, "draw", recording)
        return seen

    def test_one_replicate_stratified_double_sum(self, shapes):
        pop = synth_population(SynthConfig(size=5000, strata_count=3), 6)
        plan = SimulationPlan(
            design=StratifiedSrswor({"h0": 60, "h1": 70, "h2": 50}),
            estimators=(EstimatorSpec("HT"),
                        EstimatorSpec("BS", order=3, knots=4, lam=1.0)),
            parameters=(ParameterSpec("ratio"), ParameterSpec("poverty_rate")),
            replicates=1, master_seed=2, variance_method="double_sum")
        run_monte_carlo(plan, pop)
        assert shapes == [(1, 180)]

    def test_last_chunk_of_one_replicate(self, shapes):
        pop = synth_population(SynthConfig(size=3000), 1)
        plan = SimulationPlan(design=Srswor(500), estimators=(EstimatorSpec("HT"),),
                              parameters=(ParameterSpec("mean"),), replicates=17)
        run_monte_carlo(plan, pop)
        assert shapes == [(16, 500), (1, 500)]

    def test_poisson_samples_are_stacks_of_one(self, shapes):
        pop = synth_population(SynthConfig(size=600), 3)
        plan = SimulationPlan(design=GivenProbabilities(np.full(600, 0.1)),
                              estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG")),
                              parameters=(ParameterSpec("mean"), ParameterSpec("gini")),
                              replicates=3, master_seed=5, variance_method="double_sum")
        run_monte_carlo(plan, pop)
        assert len(shapes) == 3
        assert all(len(shape) == 2 and shape[0] == 1 for shape in shapes)

    def test_reruns_after_a_failing_chunk(self, shapes):
        # the plan of test_failing_replicate_raises_what_it_raises_alone:
        # its one chunk of 40 fails, and its seeds are rerun one at a time
        # up to the eighth, which fails alone
        pop = synth_population(SynthConfig(size=2000), 3)
        pop = Population(ids=pop.ids, z=np.round(pop.z / 400.0),
                         variables=pop.variables)
        plan = SimulationPlan(design=Srswor(60),
                              estimators=(EstimatorSpec("HT"),
                                          EstimatorSpec("POST", knots=4)),
                              parameters=(ParameterSpec("mean"),),
                              replicates=40, master_seed=1)
        with pytest.raises(ValueError):
            run_monte_carlo(plan, pop)
        assert shapes == [(40, 60)] + [(1, 60)] * 8


class TestStackedSystems:
    def test_collapsed_knot_rows_form_their_own_group(self):
        pop = synth_population(SynthConfig(size=3000), 9)
        z = np.round(pop.z / 500.0)
        pop = Population(ids=pop.ids, z=z, variables=pop.variables)
        spec = SplineSpec(order=2, interior_knots=4)
        seeds = _seeds(3, 12)
        stack = draw(pop, Srswor(40), seeds)
        system = SplineSystem(stack, spec)
        counts = system.knot_counts().split("|")
        assert len(counts) > 1  # some rows collapse, some do not
        weights = system.weight_vector()
        y = stack.sample_values("y")
        fitted = system.fitted(y)
        for r, seed in enumerate(seeds):
            alone = SplineSystem(draw(pop, Srswor(40), seed), spec)
            assert weights[r].tobytes() == alone.weight_vector().tobytes()
            assert fitted[r].tobytes() == alone.fitted(y[r]).tobytes()
            assert system.rcond[r] == alone.rcond
        with pytest.raises(ValueError, match="knot counts differ"):
            system.knots  # noqa: B018

    def test_sample_data_rows_equal_single_samples(self):
        pop = synth_population(SynthConfig(size=4000), 2)
        params = (ParameterSpec("mean"), ParameterSpec("gini"),
                  ParameterSpec("ratio"), ParameterSpec("poverty_rate"),
                  ParameterSpec("poverty_rate", "x", strict=True))
        seeds = _seeds(8, 4)
        stack = draw(pop, Srswor(150), seeds)
        data = SampleData(stack, params)
        est = EstimatorSpec("BS", order=3, knots=3, lam=1.0)
        ws = est.build_weights(stack)
        for p in params:
            for method in ("closed", "double_sum"):
                e = data.estimate(ws, p, method, 0.9)
                for r, seed in enumerate(seeds):
                    sample = draw(pop, Srswor(150), seed)
                    alone = SampleData(sample, params).estimate(
                        est.build_weights(sample), p, method, 0.9)
                    assert e.point[r] == alone.point
                    assert e.variance.value[r] == alone.variance.value
                    assert (e.interval[0][r], e.interval[1][r]) == alone.interval
