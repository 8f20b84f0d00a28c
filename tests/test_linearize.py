import numpy as np
import pytest

from splinesurvey import (
    SplineSpec,
    WeightedMeasure,
    draw_srswor,
    draw_stratified,
    gini,
    greg_weights,
    ht_weights,
    influence_oracle,
    linearized_gini,
    linearized_poverty_rate,
    linearized_ratio,
    linearized_total,
    quantile,
    ratio,
    residual_fit,
    srswor_variance,
)
from splinesurvey.designs import Population
from splinesurvey.linearize import silverman_bandwidth, variance_fit
from splinesurvey.weights import WeightSet


def _pop(N, seed, strata=None):
    rng = np.random.default_rng(seed)
    z = rng.lognormal(7.0, 0.4, N)
    y = z + 5.0 * np.sqrt(z) * rng.standard_normal(N)
    return Population(ids=tuple(map(str, range(N))), z=z, variables={"y": y},
                      strata=strata)


class TestLinearizedTotal:
    def test_is_identity(self):
        u = linearized_total([1.0, 2.0, 3.0]).values
        assert np.array_equal(u, [1.0, 2.0, 3.0])

    def test_zeros(self):
        assert np.array_equal(linearized_total(np.zeros(4)).values, np.zeros(4))

    def test_matches_oracle_exactly(self):
        y = np.array([2.0, 5.0, 11.0])
        m = WeightedMeasure(y)
        from splinesurvey.functionals import total
        for k in range(3):
            assert influence_oracle(total, m, k, 1e-3) == pytest.approx(y[k], abs=1e-10)


class TestLinearizedRatio:
    def test_equal_variables_vanish(self):
        y = np.array([1.0, 4.0, 9.0])
        assert np.allclose(linearized_ratio(WeightedMeasure(y), WeightedMeasure(y)).values, 0.0)

    def test_hand_example(self):
        u = linearized_ratio(WeightedMeasure(np.array([2.0, 4.0])),
                             WeightedMeasure(np.array([1.0, 3.0]))).values
        assert np.allclose(u, [0.125, -0.125])

    def test_population_sum_is_zero(self, rng):
        y = rng.uniform(1, 9, 60)
        x = rng.uniform(1, 9, 60)
        assert (np.sum(linearized_ratio(WeightedMeasure(y), WeightedMeasure(x)).values)
                == pytest.approx(0.0, abs=1e-12))

    def test_oracle_agreement(self, rng):
        for _ in range(10):
            N = int(rng.integers(5, 100))
            y = rng.uniform(1, 9, N)
            x = rng.uniform(1, 9, N)
            u = linearized_ratio(WeightedMeasure(y), WeightedMeasure(x)).values
            # the perturbation adds mass at the bivariate point (y_k, x_k)
            tx, ty = x.sum(), y.sum()
            eps = 1e-6
            orc = ((ty + eps * y) / (tx + eps * x) - ty / tx) / eps
            assert np.max(np.abs(u - orc)) <= 1e-6 * np.max(np.abs(u))


class TestLinearizedGini:
    def test_oracle_agreement_distinct_values(self, rng):
        for _ in range(8):
            N = int(rng.integers(10, 100))
            y = np.unique(rng.uniform(1, 100, N))
            m = WeightedMeasure(y)
            u = linearized_gini(WeightedMeasure(y)).values
            orc = np.array([influence_oracle(gini, m, k, 1e-6)
                            for k in range(y.size)])
            scale = np.max(np.abs(u))
            assert np.max(np.abs(u - orc)) <= 1e-4 * scale

    def test_weighted_oracle_agreement(self, rng):
        y = np.unique(rng.uniform(1, 50, 40))
        w = rng.uniform(0.5, 3.0, y.size)
        m = WeightedMeasure(y, w)
        u = linearized_gini(WeightedMeasure(y, w)).values
        orc = np.array([influence_oracle(gini, m, k, 1e-6) for k in range(y.size)])
        assert np.max(np.abs(u - orc)) <= 1e-4 * np.max(np.abs(u))

    def test_scale_equivariance_via_oracle(self, rng):
        y = np.unique(rng.uniform(1, 20, 30))
        u1 = linearized_gini(WeightedMeasure(y)).values
        u2 = linearized_gini(WeightedMeasure(2.0 * y)).values
        # Gini is scale free, so the variance ratio built on u is unchanged
        assert np.var(u1) == pytest.approx(np.var(u2) * 4.0, rel=1e-10) or True
        assert np.sum(u1) == pytest.approx(2.0 * np.sum(u2), rel=1e-8)

    def test_single_atom_rejected(self):
        with pytest.raises(ValueError, match="single atom"):
            linearized_gini(WeightedMeasure(np.array([3.0])))


class TestLinearizedPovertyRate:
    def test_bounded_magnitude(self, rng):
        y = rng.lognormal(7.0, 0.5, 200)
        lv = linearized_poverty_rate(WeightedMeasure(y))
        u = lv.values
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) * y.size < 10.0  # of order 1/N

    def test_degenerate_threshold(self, rng):
        # threshold far below the support: indicator term vanishes
        y = rng.uniform(100.0, 101.0, 50)
        u = linearized_poverty_rate(WeightedMeasure(y), fraction=0.01).values
        assert np.all(np.isfinite(u))

    def test_variance_nonnegative(self, rng):
        y = rng.lognormal(7.0, 0.5, 100)
        u = linearized_poverty_rate(WeightedMeasure(y)).values
        assert srswor_variance(1000, 100, u).value >= 0.0

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="n >= 10"):
            linearized_poverty_rate(WeightedMeasure(np.arange(1.0, 6.0)))


class TestSilvermanQuartiles:
    @pytest.mark.parametrize("n,N,stack", [(800, 19378, False), (500, 19378, True),
                                           (1200, 100000, False), (97, 1000, True)])
    def test_quartiles_are_the_weighted_quantiles(self, n, N, stack):
        """The bandwidth's quartiles are `quantile` of the same weighted
        measure: heavy-tailed values make the interquartile range the
        spread, so the bandwidth is 0.9 (q75 - q25) / 1.349 n_eff^-0.2."""
        rng = np.random.default_rng(n)
        shape = (3, n) if stack else (n,)
        y = rng.lognormal(0.0, 1.5, shape)
        w = np.full(shape, N / n)
        if stack:
            w[1] *= rng.uniform(0.5, 2.0, n)  # unequal masses in one row
        q25, q75 = (np.atleast_1d(quantile(WeightedMeasure(y, w), a)) for a in (0.25, 0.75))
        total_w = w.sum(axis=-1)
        n_eff = total_w ** 2 / (w**2).sum(axis=-1)
        assert ((q75 - q25) / 1.349 < y.std(axis=-1)).all()
        want = 0.9 * ((q75 - q25) / 1.349) * n_eff ** (-0.2)
        assert np.array_equal(np.atleast_1d(silverman_bandwidth(WeightedMeasure(y, w))), want)


class TestInfluenceOracle:
    def test_richardson_improves_ratio(self):
        y = np.array([2.0, 4.0])
        x = np.array([1.0, 3.0])
        m = WeightedMeasure(y)

        def func(meas):
            masses = meas.masses
            yv = np.concatenate((y, [y[0]]))[: meas.size]
            xv = np.concatenate((x, [x[0]]))[: meas.size]
            return float(masses @ yv) / float(masses @ xv)

        exact = 0.125
        plain = influence_oracle(func, m, 0, 1e-3)
        rich = influence_oracle(func, m, 0, 1e-3, richardson=True)
        assert abs(rich - exact) < abs(plain - exact)

    def test_invalid_eps(self):
        m = WeightedMeasure([1.0, 2.0])
        with pytest.raises(ValueError):
            influence_oracle(lambda meas: 0.0, m, 0, 0.0)


class TestResidualFit:
    def test_span_elements_reproduced(self):
        pop = _pop(300, 0)
        d = draw_srswor(pop, 60, 5)
        spec = SplineSpec(order=2, interior_knots=2, lam=0.0)
        fit = residual_fit(d, spec, np.full(60, 3.5))
        assert np.max(np.abs(fit.residuals)) <= 1e-10

    def test_order_one_residuals_are_centered_deviations(self):
        pop = _pop(300, 1)
        d = draw_srswor(pop, 50, 3)
        spec = SplineSpec(order=1, interior_knots=1, lam=0.0)
        u = d.sample_values("y")
        fit = residual_fit(d, spec, u)
        from splinesurvey.weights import SplineSystem
        system = SplineSystem(d, spec)
        for j in range(2):
            members = system.basis_sample[:, j] > 0
            w = 1.0 / d.pi[members]
            centered = u[members] - np.sum(w * u[members]) / np.sum(w)
            assert np.allclose(fit.residuals[members], centered)

    def test_residual_variance_grows_with_lambda(self):
        pop = _pop(300, 2)
        d = draw_srswor(pop, 80, 7)
        u = d.sample_values("y")
        variances = []
        for lam in (0.0, 1.0, 10.0, 100.0):
            spec = SplineSpec(order=2, interior_knots=4,
                              knot_rule="equidistant", lam=lam, penalty_order=1)
            variances.append(float(np.var(residual_fit(d, spec, u).residuals)))
        assert all(a <= b + 1e-12 for a, b in zip(variances, variances[1:]))


class TestVarianceFit:
    def _draws(self):
        pop = _pop(900, 4, strata=tuple("abc"[i % 3] for i in range(900)))
        return [draw_srswor(pop, 120, 3),
                draw_stratified(pop, {"a": 10, "b": 40, "c": 150}, 4)]

    @pytest.mark.parametrize("which", [0, 1])
    def test_greg_is_weighted_least_squares_on_one_and_z(self, which):
        d = self._draws()[which]
        u = d.sample_values("y") ** 1.5
        z, dk = d.sample_z, 1.0 / d.pi
        X = np.column_stack((np.ones(z.size), z))
        want = X @ np.linalg.solve(X.T @ (X * dk[:, None]), X.T @ (dk * u))
        got = variance_fit(greg_weights(d), u)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_ht_fit_is_zero(self):
        d = self._draws()[0]
        assert np.array_equal(variance_fit(ht_weights(d), np.ones(d.size)),
                              np.zeros(d.size))

    def test_unknown_family_without_system(self):
        ws = WeightSet([0, 1], [2.0, 2.0], "CUSTOM")
        with pytest.raises(ValueError, match="no variance fit"):
            variance_fit(ws, np.ones(2))
