import numpy as np
import pytest

from splinesurvey import (
    ParameterSpec,
    Population,
    SampleDraw,
    SplineSpec,
    Srswor,
    StratifiedSrswor,
    WeightSet,
    basis_matrix,
    bspline_weights,
    draw,
    draw_srswor,
    draw_stratified,
    greg_weights,
    ht_weights,
    normalize_covariate,
    post_weights,
    weighted_total,
)
from splinesurvey.weights import SingularSystemError, SplineSystem, greg_spline, post_spline


def _population(N, seed=0, strata=None):
    rng = np.random.default_rng(seed)
    z = rng.lognormal(7.0, 0.4, N)
    y = z + 5.0 * np.sqrt(z) * rng.standard_normal(N)
    return Population(ids=tuple(map(str, range(N))), z=z, variables={"y": y},
                      strata=strata)


def _greg_draws():
    """An SRSWOR and a stratified draw with unequal pi_k across strata."""
    pop = _population(900, seed=21, strata=tuple("abc"[i % 3] for i in range(900)))
    return [draw_srswor(pop, 120, 3),
            draw_stratified(pop, {"a": 10, "b": 40, "c": 150}, 4)]


def _wls_greg_weights(d):
    """GREG weights from the weighted least-squares normal equations on
    (1, z): w = d (1 + x' T^-1 (t_x - sum_s d x))."""
    z = d.sample_z
    dk = 1.0 / d.pi
    X = np.column_stack((np.ones(z.size), z))
    T = X.T @ (X * dk[:, None])
    gap = np.array([d.population.size, d.population.z.sum()]) - X.T @ dk
    return dk * (1.0 + X @ np.linalg.solve(T, gap))


class TestHtWeights:
    def test_reciprocal(self):
        d = draw_srswor(_population(10), 5, 0)
        assert np.allclose(ht_weights(d).weights, 2.0)

    def test_census(self):
        d = draw_srswor(_population(6), 6, 0)
        assert np.allclose(ht_weights(d).weights, 1.0)

    def test_srswor_rate(self):
        d = draw_srswor(_population(10), 2, 0)
        assert np.allclose(ht_weights(d).weights, 5.0)

    @pytest.mark.parametrize("seeds", [7, [7, 8, 9]], ids=["one", "stack"])
    def test_weights_are_the_draws_design_weights(self, seeds):
        """The HT weights are the draw's one read-only 1/pi array, for one
        sample and for a stack, on unequal probabilities."""
        pop = _population(90, seed=2, strata=tuple("ab"[i % 2] for i in range(90)))
        d = draw(pop, StratifiedSrswor({"a": 5, "b": 20}), seeds)
        ws = ht_weights(d)
        assert ws.weights is d.design_weights
        assert ws.weights.shape == d.pi.shape == d.indices.shape
        assert not ws.weights.flags.writeable
        assert ws.weights.tobytes() == (1.0 / d.pi).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            ws.weights[0] = 1.0


class TestWeightedTotal:
    def test_ht_total(self):
        d = draw_srswor(_population(6), 3, 1)
        ws = WeightSet(d.indices, np.full(3, 2.0), "HT")
        assert weighted_total(ws, [1.0, 2.0, 3.0]) == pytest.approx(12.0)

    def test_zero_values(self):
        d = draw_srswor(_population(6), 3, 1)
        assert weighted_total(ht_weights(d), np.zeros(3)) == 0.0

    def test_length_mismatch(self):
        d = draw_srswor(_population(6), 3, 1)
        with pytest.raises(ValueError, match="mismatch"):
            weighted_total(ht_weights(d), [1.0, 2.0])

    def test_sums_as_the_total_kind(self):
        """Bit for bit the `total` parameter at the same weights, on single
        samples and on a stack: a BLAS dot would move the last bits."""
        pop = _population(5000, seed=4)
        spec = SplineSpec(order=3, interior_knots=4)
        total_kind = ParameterSpec("total")
        for seeds in [*range(10), list(range(10, 16))]:
            d = draw(pop, Srswor(500), seeds)
            ws = bspline_weights(d, spec)
            y = d.sample_values("y")
            assert np.array_equal(weighted_total(ws, y),
                                  total_kind.evaluate({"y": y}, ws.weights))


class TestBsplineWeights:
    @pytest.mark.parametrize("m,K", [(1, 2), (2, 2), (2, 4), (3, 3)])
    def test_calibration_identities(self, m, K):
        pop = _population(800, seed=3)
        d = draw_srswor(pop, 150, 11)
        spec = SplineSpec(order=m, interior_knots=K, lam=0.0)
        ws = bspline_weights(d, spec)
        system = SplineSystem(d, spec)
        pop_totals = system.basis_pop_total
        got = system.basis_sample.T @ ws.weights
        assert np.all(np.abs(got - pop_totals) <= 1e-8 * (1 + np.abs(pop_totals)))
        assert ws.total_mass == pytest.approx(pop.size, rel=1e-8)
        if m >= 2:
            # z itself lies in the spline span only for order >= 2
            z_total = float(np.sum(pop.z))
            assert weighted_total(ws, pop.z[d.indices]) == pytest.approx(
                z_total, rel=1e-8)

    def test_projection_form_equivalence(self):
        d = draw_srswor(_population(500, seed=5), 80, 2)
        spec = SplineSpec(order=2, interior_knots=3, lam=0.0)
        general = bspline_weights(d, spec).weights
        projection = bspline_weights(d, spec, form="projection").weights
        scale = np.max(np.abs(general))
        assert np.max(np.abs(general - projection)) <= 1e-8 * scale

    def test_poststratification_identity(self):
        # m=1, lambda=0 weights are N_h / n_h within each knot span
        pop = _population(400, seed=7)
        d = draw_srswor(pop, 60, 4)
        spec = SplineSpec(order=1, interior_knots=1, lam=0.0)
        system = SplineSystem(d, spec)
        ws = bspline_weights(d, spec)
        z01, _ = normalize_covariate(pop.z)
        cut = system.knots.interior[0]
        for span in (z01 < cut, z01 >= cut):
            Nh = int(span.sum())
            in_span = span[d.indices]
            nh = int(in_span.sum())
            assert np.allclose(ws.weights[in_span], Nh / nh)

    def test_penalized_weighted_total_matches_difference_form(self):
        pop = _population(600, seed=9)
        d = draw_srswor(pop, 100, 6)
        spec = SplineSpec(order=3, interior_knots=4, lam=10.0, penalty_order=1)
        ws = bspline_weights(d, spec)
        system = SplineSystem(d, spec)
        y_s = d.sample_values("y")
        theta = system.coefficients(y_s)
        ht_gap = system.basis_sample.T @ (1.0 / d.pi) - system.basis_pop_total
        diff_form = float(np.sum(y_s / d.pi)) - float(ht_gap @ theta)
        total = weighted_total(ws, y_s)
        assert total == pytest.approx(diff_form, rel=1e-10)

    def test_singular_system_detected(self):
        # K too large for a small sample starves knot spans
        pop = _population(300, seed=1)
        d = draw_srswor(pop, 8, 3)
        spec = SplineSpec(order=3, interior_knots=6,
                          knot_rule="population_quantile", lam=0.0)
        with pytest.raises(ValueError, match="singular basis system"):
            bspline_weights(d, spec)

    def test_negative_weight_diagnostics_reported(self):
        d = draw_srswor(_population(500, seed=5), 60, 2)
        ws = bspline_weights(d, SplineSpec(order=3, interior_knots=4, lam=0.0))
        assert "negative_weight_count" in ws.diagnostics
        assert ws.diagnostics["min_weight"] <= np.min(ws.weights) + 1e-12


class TestPostWeights:
    def test_matches_bspline_order_one(self):
        pop = _population(400, seed=2)
        d = draw_srswor(pop, 50, 8)
        a = post_weights(d, 2).weights
        b = bspline_weights(d, SplineSpec(order=1, interior_knots=2, lam=0.0)).weights
        assert np.array_equal(a, b)

    def test_single_poststratum_is_ratio_to_size(self):
        pop = _population(120, seed=4)
        d = draw_srswor(pop, 30, 1)
        assert np.allclose(post_weights(d, 0).weights, 120 / 30)

    def test_hand_example_two_poststrata(self):
        # population sizes {4, 2} with sample hits {2, 1} give weights {2, 2}
        z = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 11.0])
        pop = Population(ids=tuple("abcdef"), z=z, variables={"y": z})
        d = None
        for seed in range(200):
            cand = draw_srswor(pop, 3, seed)
            if (cand.indices < 4).sum() == 2 and (cand.indices >= 4).sum() == 1:
                d = cand
                break
        assert d is not None
        spec = SplineSpec(order=1, interior_knots=1,
                          knot_rule="population_quantile", lam=0.0)
        ws = bspline_weights(d, spec)
        assert np.allclose(np.sort(ws.weights), [2.0, 2.0, 2.0])


def _heaped_population():
    """One unit at z = 1, 500 at z = 5 and 500 spread above."""
    z = np.concatenate([[1.0], np.full(500, 5.0), 5.0 + np.linspace(1.0, 100.0, 500)])
    return Population(ids=tuple(map(str, range(z.size))), z=z, variables={"y": z})


# 30 of 40 sampled units at z = 5 and none at z = 1: the two sample-quantile
# cut points collapse onto z = 5, and the cell below it holds no sampled unit.
HEAPED = np.concatenate([np.arange(1, 31), np.arange(501, 1001, 50)])


class TestEmptyPoststratum:
    def test_one_sample(self):
        pop = _heaped_population()
        d = SampleDraw(pop, Srswor(40), HEAPED, pi=np.full(40, 40 / pop.size))
        with pytest.raises(ValueError, match="^empty poststratum$"):
            post_weights(d, 2)
        with pytest.raises(SingularSystemError,
                           match=r"^singular basis system: reduce K or set lambda>0$"):
            bspline_weights(d, SplineSpec(order=1, interior_knots=2))

    def test_stack_holding_a_heaped_row(self):
        pop = _heaped_population()
        spread = np.linspace(0, 1000, 40).astype(int)
        indices = np.stack([spread, HEAPED, spread[::-1]])
        d = SampleDraw(pop, Srswor(40), indices, pi=np.full((3, 40), 40 / pop.size))
        with pytest.raises(ValueError, match="^empty poststratum$"):
            post_weights(d, 2)
        ok = SampleDraw(pop, Srswor(40), indices[[0, 2]], pi=np.full((2, 40), 40 / pop.size))
        assert post_weights(ok, 2).weights.shape == (2, 40)


class TestGregWeights:
    def test_calibration_identities(self):
        pop = _population(500, seed=6)
        d = draw_srswor(pop, 80, 9)
        ws = greg_weights(d)
        assert ws.total_mass == pytest.approx(pop.size, rel=1e-8)
        assert weighted_total(ws, d.sample_z) == pytest.approx(pop.z.sum(), rel=1e-8)

    def test_census_gives_unit_weights(self):
        pop = _population(50, seed=6)
        d = draw_srswor(pop, 50, 0)
        assert np.allclose(greg_weights(d).weights, 1.0)

    def test_toy_hand_solve(self):
        # N=4, z = 1..4, s = {z=1, z=3}, pi = 0.5: solve the 2x2 calibration
        # system directly and compare
        z = np.array([1.0, 2.0, 3.0, 4.0])
        pop = Population(ids=tuple("abcd"), z=z, variables={"y": z})
        d = None
        for seed in range(200):
            cand = draw_srswor(pop, 2, seed)
            if np.array_equal(cand.indices, [0, 2]):
                d = cand
                break
        assert d is not None
        ws = greg_weights(d)
        A = np.array([[1.0, 1.0], [1.0, 3.0]])
        target = np.array([4.0, 10.0])
        expected = np.linalg.solve(A.T, target)
        assert np.allclose(ws.weights, expected)

    @pytest.mark.parametrize("which", [0, 1])
    def test_matches_weighted_least_squares(self, which):
        d = _greg_draws()[which]
        w = greg_weights(d).weights
        want = _wls_greg_weights(d)
        assert np.max(np.abs(w - want) / np.abs(want)) <= 1e-12

    def test_weights_carry_the_order_two_system(self):
        d = draw_srswor(_population(500, seed=6), 80, 9)
        ws = greg_weights(d)
        assert ws.family == "GREG"
        assert ws.system is not None
        assert ws.system.spec == SplineSpec(order=2, interior_knots=0)
        diag = ws.diagnostics
        assert np.max(np.abs(diag["calibration_residuals"])) <= 1e-10
        assert diag["rcond"] == ws.system.rcond
        assert diag["min_weight"] == ws.weights.min()
        assert diag["negative_weight_count"] == 0

    def test_singular_system_is_collinear(self):
        # two sampled covariates one ulp apart: not constant, but singular
        z = np.array([1.0, 2.0, np.nextafter(2.0, 3.0), 3.0])
        pop = Population(ids=tuple("abcd"), z=z, variables={"y": z})
        d = None
        for seed in range(200):
            cand = draw_srswor(pop, 2, seed)
            if np.array_equal(cand.indices, [1, 2]):
                d = cand
                break
        assert d is not None
        with pytest.raises(ValueError, match="^collinear design$"):
            greg_weights(d)

    def test_constant_covariate_rejected(self):
        z = np.full(10, 5.0)
        pop = Population(ids=tuple(map(str, range(10))), z=z, variables={"y": z})
        d = draw_srswor(pop, 4, 0)
        with pytest.raises(ValueError, match="collinear"):
            greg_weights(d)


SINGULAR = r"^singular basis system: reduce K or set lambda>0$"


class TestRcondFromTheEigenvalues:
    """The spline system factors its normal matrix once, by `eigh`: its
    rcond, min |lambda| / max |lambda|, is numpy's 2-norm reciprocal
    condition number (an SVD) to rounding, and a singular system is
    refused with the same message as before."""

    SPECS = {"GREG": greg_spline(), "POST": post_spline(2),
             "BS": SplineSpec(order=3, interior_knots=4),
             "BS penalized": SplineSpec(order=3, interior_knots=4, lam=1.0)}

    @pytest.mark.parametrize("seeds", [5, [5, 6, 7]], ids=["one", "stack"])
    @pytest.mark.parametrize("family", list(SPECS))
    def test_equals_the_reciprocal_condition_number(self, family, seeds):
        d = draw(_population(900, seed=21), Srswor(120), seeds)
        system = SplineSystem(d, self.SPECS[family])
        want = 1.0 / np.linalg.cond(system._only.normal_matrix)
        assert np.shape(system.rcond) == np.shape(seeds)
        np.testing.assert_allclose(system.rcond, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seeds", [3, [4, 3, 5]], ids=["one", "stack"])
    def test_starved_knots_are_singular(self, seeds):
        # K too large for a small sample starves knot spans
        d = draw(_population(300, seed=1), Srswor(8), seeds)
        spec = SplineSpec(order=3, interior_knots=6, knot_rule="population_quantile")
        with pytest.raises(SingularSystemError, match=SINGULAR):
            SplineSystem(d, spec)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_empty_poststratum_is_singular(self, stacked):
        pop = _heaped_population()
        spread = np.linspace(0, 1000, 40).astype(int)
        indices = np.stack([spread, HEAPED, spread[::-1]]) if stacked else HEAPED
        d = SampleDraw(pop, Srswor(40), indices, pi=np.full(indices.shape, 40 / pop.size))
        with pytest.raises(SingularSystemError, match=SINGULAR):
            SplineSystem(d, post_spline(2))


class TestFitCoefficients:
    def test_order_one_is_spanwise_ht_mean(self):
        pop = _population(300, seed=8)
        d = draw_srswor(pop, 60, 12)
        spec = SplineSpec(order=1, interior_knots=1, lam=0.0)
        theta = SplineSystem(d, spec).coefficients(d.sample_values("y"))
        system = SplineSystem(d, spec)
        for j in range(2):
            members = system.basis_sample[:, j] > 0
            w = 1.0 / d.pi[members]
            expected = np.sum(w * d.sample_values("y")[members]) / np.sum(w)
            assert theta[j] == pytest.approx(expected)

    def test_constant_reproduced(self):
        pop = _population(200, seed=8)
        d = draw_srswor(pop, 50, 2)
        spec = SplineSpec(order=3, interior_knots=3, lam=0.0)
        theta = SplineSystem(d, spec).coefficients(np.full(50, 4.25))
        fitted = SplineSystem(d, spec).basis_sample @ theta
        assert np.allclose(fitted, 4.25)

    def test_monotone_shrinkage_with_lambda(self):
        pop = _population(200, seed=8)
        d = draw_srswor(pop, 60, 2)
        y = d.sample_values("y")
        roughness = []
        for lam in (0.0, 1.0, 10.0, 100.0):
            spec = SplineSpec(order=2, interior_knots=4,
                              knot_rule="equidistant", lam=lam, penalty_order=1)
            theta = SplineSystem(d, spec).coefficients(y)
            roughness.append(float(np.sum(np.diff(theta) ** 2)))
        assert all(a >= b for a, b in zip(roughness, roughness[1:]))


@pytest.mark.parametrize("seeds", [7, [1, 2, 3]], ids=["one", "stack"])
def test_spline_systems_share_the_draws_scaled_sorted_covariate(monkeypatch, small_population,
                                                                seeds):
    """The draw scales its covariates once and sorts them once: POST and BS
    place their quantile knots on that one sort, and every system, GREG's
    too, evaluates its basis at the draw's read-only scaled covariates."""
    from splinesurvey import designs, weights

    sorted_, evaluated = [], []
    monkeypatch.setattr(designs, "SortedReference",
                        lambda v, _sort=designs.SortedReference: sorted_.append(v) or _sort(v))
    monkeypatch.setattr(weights, "basis_matrix",
                        lambda knots, m, z, _eval=weights.basis_matrix:
                        evaluated.append(z) or _eval(knots, m, z))
    sample = draw(small_population, Srswor(80), seeds)
    post_weights(sample, 2)
    bspline_weights(sample, SplineSpec(order=3, interior_knots=4, lam=0.5))
    greg_weights(sample)
    scaled = sample.scaled_z
    assert not scaled.flags.writeable
    expected = small_population.covariate_summary.scale.apply(sample.sample_z)
    assert scaled.tobytes() == expected.tobytes()
    assert len(sorted_) == 1 and sorted_[0] is scaled
    assert len(evaluated) == 3 and all(np.shares_memory(z, scaled) for z in evaluated)
