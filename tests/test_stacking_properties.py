"""Property: a stacked chunk of R replicates equals R runs of R = 1.

Designs (SRSWOR, stratified, Poisson), rosters of HT, GREG, POST and BS
(with and without a penalty), all five parameter kinds, both variance
methods, and covariates rounded so that quantile knots collapse, or the
fits fail, in some replicates and not in others.
"""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from splinesurvey import (  # noqa: E402
    EstimatorSpec,
    GivenProbabilities,
    ParameterSpec,
    Population,
    SimulationPlan,
    Srswor,
    StratifiedSrswor,
    SynthConfig,
    replicate_seed,
    run_monte_carlo,
    synth_population,
)
from splinesurvey import simulate  # noqa: E402

ROSTER = (EstimatorSpec("GREG"), EstimatorSpec("POST", knots=2),
          EstimatorSpec("POST", knots=4), EstimatorSpec("BS", order=2, knots=3),
          EstimatorSpec("BS", order=3, knots=4, lam=0.5),
          EstimatorSpec("BS", order=3, knots=2, lam=2.0, penalty_order=2))
PARAMETERS = (ParameterSpec("total"), ParameterSpec("mean"),
              ParameterSpec("ratio", "y", "x"), ParameterSpec("gini"),
              ParameterSpec("poverty_rate"))


@st.composite
def plans(draw):
    """(population, plan) with a small frame and 2-8 replicates."""
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["srswor", "stratified", "poisson"]))
    rounding = draw(st.sampled_from([None, 150.0, 400.0, 500.0, 700.0]))
    pop = synth_population(SynthConfig(size=900, strata_count=3), seed)
    z = pop.z if rounding is None else np.maximum(np.round(pop.z / rounding), 1.0)
    pop = Population(ids=pop.ids, z=z, variables=pop.variables, strata=pop.strata)
    if kind == "srswor":
        design = Srswor(draw(st.integers(20, 70)))
    elif kind == "stratified":
        design = StratifiedSrswor({h: draw(st.integers(8, 25)) for h in ("h0", "h1", "h2")})
    else:
        design = GivenProbabilities(np.full(pop.size, draw(st.sampled_from([0.05, 0.08]))))
    extra = draw(st.lists(st.sampled_from(ROSTER), min_size=1, max_size=3, unique=True))
    parameters = draw(st.lists(st.sampled_from(PARAMETERS), min_size=1, max_size=5,
                               unique=True))
    method = ("double_sum" if kind == "poisson"
              else draw(st.sampled_from(["closed", "double_sum"])))
    plan = SimulationPlan(design=design, estimators=(EstimatorSpec("HT"), *extra),
                          parameters=tuple(parameters),
                          replicates=draw(st.integers(2, 8)),
                          master_seed=draw(st.integers(0, 1000)),
                          variance_method=method)
    return pop, plan


def _outcome(run):
    try:
        return run()
    except Exception as err:  # noqa: BLE001 - compared by class and message
        return type(err), str(err)


def _row(estimate, r) -> tuple:
    """Row r of a stacked Estimate: point, variance, lower and upper end."""
    lower, upper = estimate.interval
    return tuple(float(a[r]) for a in (estimate.point, estimate.variance.value,
                                       lower, upper))


def _close(a, b) -> bool:
    if isinstance(a, tuple):
        return all(_close(x, y) for x, y in zip(a, b))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plans())
def test_stacked_chunk_equals_runs_of_one(monkeypatch, case):
    """Every point, variance, interval and table cell of a stacked run
    matches the run with one replicate per chunk to 1e-12 relative, and a
    failing run raises the same exception class and message. One chunk
    fails exactly when one of its replicates fails alone."""
    pop, plan = case
    logging.disable(logging.WARNING)  # collapsed knots are expected here
    try:
        seeds = [replicate_seed(plan.master_seed, i) for i in range(plan.replicates)]
        alone = [_outcome(lambda s=s: simulate._estimate_chunk(plan, pop, [s]))
                 for s in seeds]
        if not isinstance(plan.design, GivenProbabilities):
            stacked = _outcome(lambda: simulate._estimate_chunk(plan, pop, seeds))
            failed = [a for a in alone if not isinstance(a[0], dict)]
            assert (not isinstance(stacked[0], dict)) == bool(failed)
            if not failed:
                for key, est in stacked[0].items():
                    assert est.point.shape == (plan.replicates,)
                    for r in range(plan.replicates):
                        assert _close(_row(est, r), _row(alone[r][0][key], 0)), key
        tables = []
        for units in (simulate.CHUNK_UNITS, 1):
            monkeypatch.setattr(simulate, "CHUNK_UNITS", units)
            tables.append(_outcome(lambda: run_monte_carlo(plan, pop)))
        monkeypatch.undo()
        first, second = tables
        if isinstance(first, tuple):
            assert first == second
            return
        assert first.truths == second.truths
        assert first.rows.keys() == second.rows.keys()
        for key, row in first.rows.items():
            other = second.rows[key]
            for name in ("rb_percent", "rrmse_percent", "coverage_percent"):
                assert _close(getattr(row, name), getattr(other, name)), (key, name)
            assert row.negative_variances == other.negative_variances
    finally:
        logging.disable(logging.NOTSET)


CHUNKING_POPULATION = synth_population(SynthConfig(size=3000, strata_count=3), 11)


def _bits(table) -> dict:
    """A table's truths and every field of its rows but the runtime, as
    the bytes of each float."""
    cells = {key: replace(row, mean_runtime=0.0) for key, row in table.rows.items()}
    return {key: [np.float64(v).tobytes() if isinstance(v, float) else v
                  for v in vars(row).values()] for key, row in cells.items()} | {
        label: np.float64(t).tobytes() for label, t in table.truths.items()}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4), st.integers(0, 4), st.sampled_from([0.0, 1.0]),
       st.sampled_from(["srswor", "stratified"]), st.integers(0, 1000))
def test_tables_do_not_depend_on_the_chunk_size(monkeypatch, m, K, lam, kind, seed):
    """Truths and tables are bit-identical at CHUNK_UNITS 500, 8 192 and
    20 000: chunks of 2, 32 and 80 samples of 250 units, so 20 replicates
    run as ten stacks, as two and as one. Every row of a stack is computed
    as that sample alone is, down to the order of every sum. BS runs at
    orders 1-4, penalized from order 2."""
    design = (Srswor(250) if kind == "srswor"
              else StratifiedSrswor({"h0": 80, "h1": 90, "h2": 80}))
    plan = SimulationPlan(
        design=design,
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"), EstimatorSpec("POST", knots=2),
                    EstimatorSpec("BS", order=m, knots=K, lam=lam if m > 1 else 0.0)),
        parameters=PARAMETERS + (ParameterSpec("poverty_rate", "x", strict=True),),
        replicates=20, master_seed=seed)
    tables = []
    for units in (500, 8192, 20000):
        monkeypatch.setattr(simulate, "CHUNK_UNITS", units)
        tables.append(_bits(run_monte_carlo(plan, CHUNKING_POPULATION)))
    monkeypatch.undo()
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]
