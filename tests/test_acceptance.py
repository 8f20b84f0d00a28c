"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not calibrated elsewhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion log.
"""

import time

import numpy as np
import pytest

from splinesurvey import (
    EstimatorSpec,
    ParameterSpec,
    Population,
    SimulationPlan,
    SplineSpec,
    Srswor,
    SynthConfig,
    WeightedMeasure,
    basis_matrix,
    bspline_weights,
    build_knots,
    closed_form_variance,
    confidence_interval,
    draw_srswor,
    draw_stratified,
    gini,
    ht_variance_double_sum,
    influence_oracle,
    linearized_gini,
    linearized_ratio,
    linearized_total,
    normalize_covariate,
    replicate_seed,
    run_monte_carlo,
    synth_population,
    truncated_power_matrix,
    tv_proxy_distance,
    weighted_total,
)
from splinesurvey.functionals import ratio as ratio_fn
from splinesurvey.functionals import total as total_fn
from splinesurvey.weights import SplineSystem


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def wage_population():
    return synth_population(SynthConfig(size=19378), 12345)


@pytest.fixture(scope="module")
def small_synth():
    return synth_population(SynthConfig(size=2000), 777)


def test_criterion_1_partition_of_unity():
    rng = np.random.default_rng(1)
    z = np.concatenate((rng.random(10_000), [0.0, 1.0]))
    tic = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3, 4):
        for K in (0, 2, 4, 10):
            kv = build_knots(SplineSpec(m, K, "equidistant"))
            B = basis_matrix(kv, m, z)
            worst = max(worst, float(np.max(np.abs(B.sum(axis=1) - 1.0))))
    elapsed = time.perf_counter() - tic
    _report("1 partition of unity", worst <= 1e-12 and elapsed < 1.0,
            f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_calibration_identities(small_synth):
    pop = small_synth
    d = draw_srswor(pop, 200, 2024)
    tic = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        for K in (2, 4):
            spec = SplineSpec(order=m, interior_knots=K, lam=0.0)
            ws = bspline_weights(d, spec)
            system = SplineSystem(d, spec)
            totals = system.basis_pop_total
            resid = np.abs(system.basis_sample.T @ ws.weights - totals)
            worst = max(worst, float(np.max(resid / (1.0 + np.abs(totals)))))
            worst = max(worst, abs(ws.total_mass - pop.size) / pop.size)
            if m >= 2:
                # z lies in the spline span only from order 2 on; order 1
                # spans step functions, so the z identity cannot hold there
                z_hat = weighted_total(ws, pop.z[d.indices])
                worst = max(worst, abs(z_hat - pop.z.sum()) / abs(pop.z.sum()))
    elapsed = time.perf_counter() - tic
    _report("2 calibration identities", worst <= 1e-8 and elapsed < 5.0,
            f"max rel residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_formula_equivalences(small_synth):
    pop = small_synth
    d = draw_srswor(pop, 200, 99)
    spec = SplineSpec(order=2, interior_knots=3, lam=0.0)

    # (a) penalized expression at lambda=0 vs projection expression
    general = bspline_weights(d, spec).weights
    projection = bspline_weights(d, spec, form="projection").weights
    gap_a = np.max(np.abs(general - projection)) / np.max(np.abs(general))

    # (b) order-1 weights vs classical poststratified N_h/n_h
    spec1 = SplineSpec(order=1, interior_knots=2, lam=0.0)
    w1 = bspline_weights(d, spec1).weights
    system1 = SplineSystem(d, spec1)
    z01, _ = normalize_covariate(pop.z)
    B_pop = basis_matrix(system1.knots, 1, z01)
    classical = np.empty_like(w1)
    for j in range(B_pop.shape[1]):
        members = system1.basis_sample[:, j] > 0
        classical[members] = B_pop[:, j].sum() / members.sum()
    gap_b = np.max(np.abs(w1 - classical)) / np.max(np.abs(classical))

    # (c) truncated-power fits vs B-spline fits, both unpenalized
    z_s = z01[d.indices]
    y_s = d.sample_values("y")
    B_s = system1.basis_sample
    spec3 = SplineSpec(order=3, interior_knots=3, lam=0.0)
    system3 = SplineSystem(d, spec3)
    C_s = truncated_power_matrix(system3.knots, 3, z_s)
    d_pi = 1.0 / d.pi
    fit_b = system3.basis_sample @ system3.coefficients(y_s)
    beta = np.linalg.solve(C_s.T @ (C_s * d_pi[:, None]), C_s.T @ (d_pi * y_s))
    fit_c = C_s @ beta
    gap_c = np.max(np.abs(fit_b - fit_c)) / np.max(np.abs(fit_b))

    # (d) weighted-sum route vs difference-form route for the total
    spec_d = SplineSpec(order=3, interior_knots=4, lam=5.0, penalty_order=1)
    ws = bspline_weights(d, spec_d)
    system_d = SplineSystem(d, spec_d)
    theta = system_d.coefficients(y_s)
    ht_gap = system_d.basis_sample.T @ d_pi - system_d.basis_pop_total
    diff_route = float(y_s @ d_pi) - float(ht_gap @ theta)
    weight_route = weighted_total(ws, y_s)
    gap_d = abs(weight_route - diff_route) / abs(diff_route)

    ok = gap_a <= 1e-8 and gap_b <= 1e-10 and gap_c <= 1e-8 and gap_d <= 1e-10
    _report("3 formula equivalences", ok,
            f"a={gap_a:.1e} b={gap_b:.1e} c={gap_c:.1e} d={gap_d:.1e}")


def test_criterion_4_gini_oracle():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        N = int(rng.integers(3, 201))
        y = np.unique(rng.uniform(1.0, 1000.0, N))
        N = y.size
        F = np.array([(y <= yk).sum() / N for yk in y])
        brute = float(y @ (2.0 * F - 1.0)) / y.sum()
        plug = gini(WeightedMeasure(y))
        if not np.isclose(plug, brute, rtol=1e-14, atol=0.0):
            ok = False
            break
    four = gini(WeightedMeasure(np.array([1.0, 2.0, 3.0, 4.0])))
    ok = ok and four == pytest.approx(0.5, abs=1e-15)
    _report("4 Gini brute-force oracle", ok, f"Gini(1,2,3,4)={four}")


def test_criterion_5_influence_oracle():
    rng = np.random.default_rng(5)
    tic = time.perf_counter()
    worst_lin, worst_gini = 0.0, 0.0
    for _ in range(20):
        N = int(rng.integers(10, 101))
        y = np.unique(rng.uniform(1.0, 100.0, N))
        N = y.size
        x = rng.uniform(1.0, 100.0, N)
        m = WeightedMeasure(y)

        u_tot = linearized_total(y).values
        orc_tot = np.array([influence_oracle(total_fn, m, k, 1e-6)
                            for k in range(N)])
        worst_lin = max(worst_lin,
                        np.max(np.abs(u_tot - orc_tot)) / np.max(np.abs(u_tot)))

        u_rat = linearized_ratio(WeightedMeasure(y), WeightedMeasure(x)).values
        ty, tx = y.sum(), x.sum()
        eps = 1e-6
        orc_rat = ((ty + eps * y) / (tx + eps * x) - ty / tx) / eps
        worst_lin = max(worst_lin,
                        np.max(np.abs(u_rat - orc_rat)) / np.max(np.abs(u_rat)))

        u_g = linearized_gini(WeightedMeasure(y)).values
        orc_g = np.array([influence_oracle(gini, m, k, 1e-6) for k in range(N)])
        worst_gini = max(worst_gini,
                         np.max(np.abs(u_g - orc_g)) / np.max(np.abs(u_g)))
    elapsed = time.perf_counter() - tic
    ok = worst_lin <= 1e-6 and worst_gini <= 1e-4 and elapsed < 10.0
    _report("5 influence oracle", ok,
            f"linear {worst_lin:.1e}, gini {worst_gini:.1e}, {elapsed:.1f}s")


def test_criterion_6_variance_route_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (5, 17, 50):
        N = 4 * n
        pop = Population(ids=tuple(map(str, range(N))),
                         z=rng.lognormal(7.0, 0.3, N),
                         variables={"y": rng.standard_normal(N)})
        d = draw_srswor(pop, n, int(n))
        e = rng.standard_normal(n)
        a = ht_variance_double_sum(d, e).value
        b = closed_form_variance(d, e).value
        worst = max(worst, abs(a - b) / abs(b))
    strata = tuple("ab"[i % 2] for i in range(120))
    pop = Population(ids=tuple(map(str, range(120))),
                     z=rng.lognormal(7.0, 0.3, 120),
                     variables={"y": rng.standard_normal(120)}, strata=strata)
    d = draw_stratified(pop, {"a": 12, "b": 20}, 8)
    e = rng.standard_normal(32)
    a = ht_variance_double_sum(d, e).value
    b = closed_form_variance(d, e).value
    worst = max(worst, abs(a - b) / abs(b))
    _report("6 variance route equivalence", worst <= 1e-10, f"max rel {worst:.1e}")


def test_criterion_7_variance_calibration(small_synth):
    pop = small_synth
    y = pop.variables["y"]
    n, reps = 200, 5000
    tic = time.perf_counter()
    totals = np.empty(reps)
    vhats = np.empty(reps)
    for i in range(reps):
        d = draw_srswor(pop, n, replicate_seed(70, i))
        y_s = y[d.indices]
        totals[i] = np.sum(y_s / d.pi)
        vhats[i] = closed_form_variance(d, y_s).value
    elapsed = time.perf_counter() - tic
    mc = float(np.var(totals, ddof=1))
    rel = abs(float(vhats.mean()) - mc) / mc
    _report("7 variance estimator calibration", rel <= 0.05 and elapsed < 60.0,
            f"rel gap {rel:.3f}, {elapsed:.0f}s")


def test_criterion_8_ht_coverage(wage_population):
    pop = wage_population
    tic = time.perf_counter()
    plan = SimulationPlan(
        design=Srswor(500),
        estimators=(EstimatorSpec("HT"),),
        parameters=(ParameterSpec("mean", "y"),),
        replicates=3000,
        master_seed=80,
    )
    table = run_monte_carlo(plan, pop)
    elapsed = time.perf_counter() - tic
    cov = table.row("mean(y)", "HT").coverage_percent
    _report("8 HT mean coverage", 93.0 <= cov <= 97.0 and elapsed < 120.0,
            f"coverage {cov:.1f}%, {elapsed:.0f}s")


def test_criterion_9_tv_rate_proxy(wage_population):
    pop = wage_population
    y = pop.variables["y"]
    N = pop.size
    truth = WeightedMeasure(y, np.ones(N) / N)
    medians = {}
    for n in (100, 400):
        dist = np.empty(500)
        for i in range(500):
            d = draw_srswor(pop, n, replicate_seed(90 + n, i))
            est = WeightedMeasure(y[d.indices], np.full(n, 1.0 / d.pi[0]) / N)
            dist[i] = tv_proxy_distance(est, truth, grid_size=100)
        medians[n] = float(np.median(dist))
    r = medians[100] / medians[400]
    _report("9 measure-distance rate", 1.6 <= r <= 2.5,
            f"median ratio {r:.2f}")


def test_criterion_10_table_pattern(wage_population):
    pop = wage_population
    tic = time.perf_counter()
    plan = SimulationPlan(
        design=Srswor(500),
        estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                    EstimatorSpec("POST", knots=2),
                    EstimatorSpec("BS", order=2, knots=2)),
        parameters=(ParameterSpec("mean", "y"), ParameterSpec("gini", "y")),
        replicates=1000,
        master_seed=100,
    )
    table = run_monte_carlo(plan, pop)
    elapsed = time.perf_counter() - tic
    g_bs = table.row("gini(y)", "BS(2,K=2)").rrmse_percent
    g_post = table.row("gini(y)", "POST(K=2)").rrmse_percent
    g_greg = table.row("gini(y)", "GREG").rrmse_percent
    m_greg = table.row("mean(y)", "GREG").rrmse_percent
    m_bs = table.row("mean(y)", "BS(2,K=2)").rrmse_percent
    ok = (g_bs < g_post < 100.0 and abs(g_greg - 100.0) <= 10.0
          and m_greg < 60.0 and abs(m_bs - m_greg) <= 5.0
          and elapsed < 600.0)
    _report("10 qualitative table pattern", ok,
            f"gini BS={g_bs:.0f} POST={g_post:.0f} GREG={g_greg:.0f}; "
            f"mean GREG={m_greg:.0f} BS={m_bs:.0f}; {elapsed:.0f}s")


def test_criterion_11_first_linearization_surrogate(wage_population):
    pop = wage_population
    y = pop.variables["y"]
    x = pop.variables["x"]
    u_pop = linearized_ratio(WeightedMeasure(y), WeightedMeasure(x)).values
    spec = SplineSpec(order=2, interior_knots=2, lam=0.0)
    reps, n = 2000, 500
    plug = np.empty(reps)
    lin = np.empty(reps)
    for i in range(reps):
        d = draw_srswor(pop, n, replicate_seed(110, i))
        ws = bspline_weights(d, spec)
        m_y = WeightedMeasure(y[d.indices], ws.weights)
        m_x = WeightedMeasure(x[d.indices], ws.weights)
        plug[i] = ratio_fn(m_y, m_x)
        lin[i] = float(ws.weights @ u_pop[d.indices])
    v_plug = float(np.var(plug, ddof=1))
    v_lin = float(np.var(lin, ddof=1))
    rel = abs(v_plug - v_lin) / v_lin
    _report("11 first-linearization surrogate", rel <= 0.15,
            f"variance rel gap {rel:.3f}")
