"""Where the splines pay: on a curved population the B-spline weights beat
GREG's straight line by a wide margin. A gate beside the acceptance
criteria, in their style: it prints a pass/fail line, and its bound is
fixed here.

Run with `pytest tests/test_curvature_gate.py -v -s` to see the line.
"""

import time

from splinesurvey import (
    EstimatorSpec,
    ParameterSpec,
    SimulationPlan,
    Srswor,
    SynthConfig,
    run_monte_carlo,
    synth_population,
)


def test_splines_halve_gregs_rrmse_on_a_curved_population():
    """y = z + 3 (z - zbar)^2 / zbar + noise, SRSWOR n = 500 of the
    criterion-10 population size: BS(3,K=6,lam=1)'s RRMSE for the mean and
    for the Gini is below half of GREG's (about 0.15 and 0.20 of it)."""
    pop = synth_population(SynthConfig(curvature=3.0), 1)
    bs = EstimatorSpec("BS", order=3, knots=6, lam=1.0)
    plan = SimulationPlan(design=Srswor(500),
                          estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"), bs),
                          parameters=(ParameterSpec("mean"), ParameterSpec("gini")),
                          replicates=300, master_seed=11)
    tic = time.perf_counter()
    table = run_monte_carlo(plan, pop)
    elapsed = time.perf_counter() - tic
    shares = {p: table.row(p, bs.label).rrmse_percent / table.row(p, "GREG").rrmse_percent
              for p in ("mean(y)", "gini(y)")}
    ok = all(share < 0.5 for share in shares.values())
    detail = ", ".join(f"{p} BS/GREG {share:.3f}" for p, share in shares.items())
    print(f"[{'PASS' if ok else 'FAIL'}] curved population: splines halve GREG's RRMSE"
          f"  ({detail}, {elapsed:.2f}s)")
    assert ok, detail
