import numpy as np
import pytest

from splinesurvey import (
    EstimatorSpec,
    GivenProbabilities,
    ParameterSpec,
    Population,
    SampleDraw,
    SimulationPlan,
    SplineSpec,
    Srswor,
    StratifiedSrswor,
    VarianceEstimate,
    basis_matrix,
    build_knots,
    closed_form_variance,
    confidence_interval,
    draw,
    draw_srswor,
    draw_stratified,
    ht_variance_double_sum,
    normal_quantile,
    penalty_matrix,
    population_asymptotic_variance,
    replicate_seed,
    run_monte_carlo,
    srswor_variance,
)
from splinesurvey import simulate


def _pop(N, seed=0, strata=None):
    rng = np.random.default_rng(seed)
    z = rng.lognormal(7.0, 0.4, N)
    y = z + 5.0 * np.sqrt(z) * rng.standard_normal(N)
    return Population(ids=tuple(map(str, range(N))), z=z,
                      variables={"y": y}, strata=strata)


class TestClosedForms:
    def test_hand_value(self):
        assert srswor_variance(4, 2, [1.0, -1.0]).value == pytest.approx(8.0)

    def test_constant_residuals(self):
        assert srswor_variance(100, 10, np.full(10, 3.3)).value == 0.0

    def test_single_unit_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            srswor_variance(10, 1, [1.0])

    @pytest.mark.parametrize("n", [0, -1, 11, 20])
    def test_impossible_sample_size_rejected(self, n):
        with pytest.raises(ValueError, match=rf"^sample size {n} out of range for N=10$"):
            srswor_variance(10, n, np.arange(float(max(n, 0))))

    def test_census_is_zero(self):
        assert srswor_variance(10, 10, np.arange(10.0)).value == 0.0

    def test_sign_flag_is_derived_not_given(self):
        assert not VarianceEstimate(1.0, "x").negative
        assert VarianceEstimate(np.array([1.0, -2.0]), "x").negative.tolist() == [False, True]
        with pytest.raises(TypeError, match="negative"):
            VarianceEstimate(1.0, "x", negative=True)


class TestDoubleSum:
    def test_zero_residuals(self):
        d = draw_srswor(_pop(30), 10, 0)
        assert ht_variance_double_sum(d, np.zeros(10)).value == 0.0

    def test_census_is_zero(self):
        d = draw_srswor(_pop(12), 12, 0)
        v = ht_variance_double_sum(d, np.arange(12.0))
        assert v.value == pytest.approx(0.0, abs=1e-9)

    def test_hand_value_matches_closed_form(self):
        d = draw_srswor(_pop(4), 2, 0)
        e = np.array([1.0, -1.0])
        assert ht_variance_double_sum(d, e).value == pytest.approx(8.0)

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_route_equivalence_srswor(self, n, rng):
        d = draw_srswor(_pop(200, seed=n), n, 3)
        e = rng.standard_normal(n)
        a = ht_variance_double_sum(d, e).value
        b = closed_form_variance(d, e).value
        assert a == pytest.approx(b, rel=1e-10)

    def test_route_equivalence_stsi(self, rng):
        strata = tuple("ab"[i % 2] for i in range(100))
        pop = _pop(100, seed=5, strata=strata)
        d = draw_stratified(pop, {"a": 10, "b": 15}, 7)
        e = rng.standard_normal(25)
        a = ht_variance_double_sum(d, e).value
        b = closed_form_variance(d, e).value
        assert a == pytest.approx(b, rel=1e-10)


def _dense_double_sum(pi, pkl, e):
    """The n x n double sum, with pi_kl given in full."""
    delta = pkl - np.outer(pi, pi)
    np.fill_diagonal(delta, pi * (1.0 - pi))
    t = e / pi
    return float(t @ (delta / pkl) @ t)


def _stratified_joint(strata, allocations, indices, pi):
    """pi_kl of stratified SRSWOR written out from the labels."""
    pkl = np.outer(pi, pi)
    for i, k in enumerate(indices):
        for j, l in enumerate(indices):
            h = strata[k]
            if i != j and h == strata[l]:
                nh, Nh = allocations[h], strata.count(h)
                pkl[i, j] = nh * (nh - 1) / (Nh * (Nh - 1))
    np.fill_diagonal(pkl, pi)
    return pkl


@pytest.mark.parametrize("offset", [0.0, 1.0, 3.0])
class TestDoubleSumAgainstDense:
    """The O(n) group evaluation against the n x n sum, residuals shifted
    by `offset` standard deviations."""

    @pytest.mark.parametrize("n", [2, 5, 500])
    def test_srswor(self, n, offset, rng):
        N = 2000
        d = draw_srswor(_pop(N, seed=n), n, 11)
        e = offset + rng.standard_normal(n)
        pkl = np.full((n, n), n * (n - 1) / (N * (N - 1)))
        np.fill_diagonal(pkl, n / N)
        want = _dense_double_sum(d.pi, pkl, e)
        assert ht_variance_double_sum(d, e).value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("labels", [("a", "b", "c", "d"), (3, 1, 20, 2)])
    def test_stratified(self, labels, offset, rng):
        # strata of n_h = 1, n_h = N_h (census) and two ordinary ones
        sizes = (40, 6, 50, 30)
        strata = tuple(np.repeat(list(labels), sizes).tolist())
        allocations = dict(zip(labels, (1, 6, 12, 7)))
        d = draw_stratified(_pop(len(strata), seed=2, strata=strata), allocations, 4)
        e = offset + rng.standard_normal(d.size)
        pkl = _stratified_joint(strata, allocations, d.indices, d.pi)
        want = _dense_double_sum(d.pi, pkl, e)
        assert ht_variance_double_sum(d, e).value == pytest.approx(want, rel=1e-10)

    def test_given_probabilities(self, offset, rng):
        pi = np.linspace(0.05, 1.0, 300)
        d = draw(_pop(300), GivenProbabilities(pi), 8)
        e = offset + rng.standard_normal(d.size)
        pkl = np.outer(d.pi, d.pi)
        np.fill_diagonal(pkl, d.pi)
        want = _dense_double_sum(d.pi, pkl, e)
        assert ht_variance_double_sum(d, e).value == pytest.approx(want, rel=1e-10)


class TestDoubleSumInputs:
    def test_zero_joint_probability(self):
        # two sampled units of a group whose pi_kl is 0 (SRSWOR with n = 1)
        pop = _pop(10)
        d = SampleDraw(pop, Srswor(1), [2, 5], np.full(10, 0.1))
        with pytest.raises(ValueError, match="zero joint inclusion probability"):
            ht_variance_double_sum(d, np.ones(2))

    def test_unequal_probabilities_inside_a_group(self):
        pop = _pop(4)
        d = SampleDraw(pop, Srswor(2), [0, 1], [0.5, 0.4, 0.5, 0.6])
        with pytest.raises(ValueError, match="differ inside a joint group"):
            ht_variance_double_sum(d, np.ones(2))


class TestPairCellsOncePerDraw:
    """The variances' cells depend on the draw alone: every variance of a
    draw, closed form or double sum, reads one set, built by one
    `joint_groups` call."""

    @staticmethod
    def _plan(replicates, variance_method):
        return SimulationPlan(
            design=StratifiedSrswor({"a": 12, "b": 9, "c": 15}),
            estimators=(EstimatorSpec("HT"), EstimatorSpec("GREG"),
                        EstimatorSpec("BS", order=3, knots=2, lam=1.0)),
            parameters=(ParameterSpec("mean", "y"), ParameterSpec("gini", "y")),
            replicates=replicates, master_seed=3, variance_method=variance_method)

    @pytest.mark.parametrize("variance_method,route", [
        ("double_sum", ht_variance_double_sum), ("closed", closed_form_variance)])
    @pytest.mark.parametrize("replicates,chunk_units", [(1, 8192), (7, 8192), (7, 72)])
    def test_joint_groups_once_per_draw(self, monkeypatch, replicates, chunk_units,
                                        variance_method, route):
        # one sample, one stack of 7, and stacks of 2, 2, 2 and 1
        pop = _pop(300, seed=4, strata=tuple("abc"[i % 3] for i in range(300)))
        grouped, summed = [], []
        joint_groups = SampleDraw.joint_groups

        def counted_groups(draw, *args):
            grouped.append(draw)
            return joint_groups(draw, *args)

        def counted_route(draw, residuals):
            summed.append(draw)
            return route(draw, residuals)

        monkeypatch.setattr(SampleDraw, "joint_groups", counted_groups)
        monkeypatch.setattr(simulate, route.__name__, counted_route)
        monkeypatch.setattr(simulate, "CHUNK_UNITS", chunk_units)
        run_monte_carlo(self._plan(replicates, variance_method), pop)
        draws = list({id(d): d for d in summed}.values())
        assert len(draws) == -(-replicates // (chunk_units // 36))
        assert len(summed) == 6 * len(draws)
        assert [id(d) for d in grouped] == [id(d) for d in draws]

    def test_cells_are_read_only_and_shared(self):
        pop = _pop(300, seed=4, strata=tuple("abc"[i % 3] for i in range(300)))
        for seed in (5, [5, 6, 7]):
            d = draw(pop, StratifiedSrswor({"a": 12, "b": 9, "c": 15}), seed)
            cells = d.pair_cells
            assert d.pair_cells is cells
            for name, values in vars(cells).items():
                assert not values.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = values[0]

    def test_refusals_are_raised_on_every_call(self):
        pop = _pop(10)
        bad_pi = SampleDraw(pop, Srswor(2), [0, 1], [0.5, 0.4, 0.5, 0.6, 0.5,
                                                     0.5, 0.5, 0.5, 0.5, 0.5])
        no_pairs = SampleDraw(pop, Srswor(1), [2, 5], np.full(10, 0.1))
        for d, message in ((bad_pi, "inclusion probabilities differ inside a joint group"),
                           (no_pairs, "zero joint inclusion probability encountered")):
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    ht_variance_double_sum(d, np.ones(2))


class TestPopulationAsymptoticVariance:
    def test_zero_when_u_in_span(self):
        pop = _pop(200, seed=2)
        spec = SplineSpec(order=2, interior_knots=2,
                          knot_rule="population_quantile", lam=0.0)
        # any affine function of z lies in the order-2 spline span
        u = 3.0 + 2.0 * pop.z
        v = population_asymptotic_variance(pop, Srswor(50), u, spec)
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_census_design_is_zero(self):
        pop = _pop(50, seed=3)
        spec = SplineSpec(order=1, interior_knots=0, lam=0.0)
        u = pop.variables["y"]
        assert population_asymptotic_variance(pop, Srswor(50), u, spec) == 0.0

    def test_closed_form_identity(self, rng):
        # residual route equals N^2 (1-f) S^2 / n computed by hand
        pop = _pop(40, seed=4)
        spec = SplineSpec(order=1, interior_knots=0, lam=0.0)
        u = rng.standard_normal(40)
        v = population_asymptotic_variance(pop, Srswor(10), u, spec)
        resid = u - u.mean()  # K=0, m=1 census fit is the mean
        expected = 40**2 * (1 - 0.25) * np.var(resid, ddof=1) / 10
        assert v == pytest.approx(expected, rel=1e-10)

    def test_stratified_closed_form(self, rng):
        strata = tuple("ba"[i % 2] for i in range(60))
        pop = _pop(60, seed=5, strata=strata)
        spec = SplineSpec(order=1, interior_knots=0, lam=0.0)
        u = rng.standard_normal(60)
        v = population_asymptotic_variance(pop, StratifiedSrswor({"a": 5, "b": 30}),
                                           u, spec)
        resid = u - u.mean()
        a = resid[1::2]  # stratum "b" is a census and adds nothing
        assert v == pytest.approx(30**2 * (1 - 5 / 30) * np.var(a, ddof=1) / 5,
                                  rel=1e-10)

    @pytest.mark.parametrize("m,lam", [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0),
                                       (2, 1.0), (3, 1.0), (4, 1.0)])
    @pytest.mark.parametrize("K", [0, 3])
    @pytest.mark.parametrize("rule", ["equidistant", "sample_quantile",
                                      "population_quantile"])
    def test_matches_census_formula(self, m, lam, K, rule):
        strata = tuple("ab"[i % 2] for i in range(700))
        pop = _pop(700, seed=m + K, strata=strata)
        spec = SplineSpec(order=m, interior_knots=K, knot_rule=rule, lam=lam)
        u = pop.variables["y"] * np.log(pop.z)
        # the census fit written out: unweighted penalized least squares
        z01 = (pop.z - pop.z.min()) / (pop.z.max() - pop.z.min())
        knots = build_knots(spec, z01)
        B = basis_matrix(knots, m, z01)
        A = B.T @ B + (lam * penalty_matrix(spec, knots) if lam else 0.0)
        e = u - B @ np.linalg.solve(A, B.T @ u)
        srs = 700**2 * (1 - 60 / 700) * np.var(e, ddof=1) / 60
        strat = sum(350**2 * (1 - nh / 350) * np.var(e[h::2], ddof=1) / nh
                    for h, nh in ((0, 20), (1, 40)))
        got_srs = population_asymptotic_variance(pop, Srswor(60), u, spec)
        got_strat = population_asymptotic_variance(
            pop, StratifiedSrswor({"a": 20, "b": 40}), u, spec)
        assert got_srs == pytest.approx(srs, rel=1e-12, abs=0)
        assert got_strat == pytest.approx(strat, rel=1e-12, abs=0)


class TestOneStratum:
    """SRSWOR is stratified SRSWOR with a single stratum: on a population
    whose units all carry one label the two designs give the same numbers."""

    @pytest.mark.parametrize("n,seed", [(2, 0), (17, 5), (60, 11), (80, 3)])
    def test_same_numbers_as_stratified(self, n, seed):
        pop = _pop(80, seed=seed, strata=("only",) * 80)
        spec = SplineSpec(order=2, interior_knots=2, lam=0.5)
        u = pop.variables["y"] * np.log(pop.z)
        srs = draw(pop, Srswor(n), seed)
        sts = draw(pop, StratifiedSrswor({"only": n}), seed)
        assert srs.indices.tolist() == sts.indices.tolist()
        assert np.array_equal(srs.pi_full, sts.pi_full)
        for got, want in zip(srs.joint_groups(), sts.joint_groups()):
            assert np.array_equal(got, want) and got.dtype == want.dtype
        e = np.random.default_rng(seed).standard_normal(n) + 2.0
        assert (ht_variance_double_sum(srs, e).value
                == ht_variance_double_sum(sts, e).value)
        a, b = closed_form_variance(srs, e), closed_form_variance(sts, e)
        assert a.value == b.value
        assert (a.method, b.method) == ("srswor_closed", "stsi_closed")
        assert (population_asymptotic_variance(pop, Srswor(n), u, spec)
                == population_asymptotic_variance(
                    pop, StratifiedSrswor({"only": n}), u, spec))

    def test_messages_name_no_placeholder_stratum(self):
        pop = _pop(30, strata=tuple("ab" * 15))
        d = draw(pop, Srswor(1), 0)
        with pytest.raises(ValueError, match=r"^variance needs n >= 2$"):
            closed_form_variance(d, np.ones(1))
        d = draw(pop, StratifiedSrswor({"a": 1, "b": 4}), 0)
        with pytest.raises(ValueError, match="variance needs n_h >= 2 in stratum 'a'"):
            closed_form_variance(d, np.ones(5))
        with pytest.raises(ValueError, match=r"^sample size 31 out of range for N=30$"):
            population_asymptotic_variance(pop, Srswor(31), pop.variables["y"],
                                           SplineSpec(order=1, interior_knots=0))

    def test_census_stratum_of_one_unit_adds_nothing(self):
        """n_h = N_h = 1: the finite-population factor is 0, so the closed
        form is stratum 'b's alone, as the double sum is."""
        pop = _pop(31, strata=("a",) + ("b",) * 30)
        d = draw(pop, StratifiedSrswor({"a": 1, "b": 4}), [5, 6])
        e = np.random.default_rng(2).standard_normal(d.indices.shape)
        closed = closed_form_variance(d, e).value
        np.testing.assert_allclose(closed, ht_variance_double_sum(d, e).value,
                                   rtol=1e-12, atol=0)
        for r in range(2):
            b = pop.stratum_codes.codes[d.indices[r]] == 1
            assert closed[r] == pytest.approx(srswor_variance(30, 4, e[r][b]).value,
                                              rel=1e-12)
        # a population of one unit is a census of one too
        d = draw(_pop(1), Srswor(1), 0)
        assert closed_form_variance(d, np.ones(1)).value == 0.0

    def test_given_probabilities_have_no_closed_form(self):
        pop = _pop(40)
        d = draw(pop, GivenProbabilities(np.full(40, 0.5)), 2)
        with pytest.raises(TypeError, match="use the double sum"):
            closed_form_variance(d, np.ones(d.size))
        with pytest.raises(TypeError, match="no closed form"):
            population_asymptotic_variance(pop, GivenProbabilities(np.full(40, 0.5)),
                                           pop.variables["y"],
                                           SplineSpec(order=1, interior_knots=0))


def test_closed_form_checks_every_sample_of_a_stack():
    # row 0 holds the allocation, row 1 one unit of "b" and seven of "c"
    strata = tuple("abc"[i % 3] for i in range(90))
    full = draw_stratified(_pop(90, seed=3, strata=strata), {"a": 4, "b": 3, "c": 5}, 3)
    members = {h: [k for k in range(90) if strata[k] == h] for h in "abc"}
    short = np.sort(members["a"][:4] + members["b"][:1] + members["c"][:7])
    indices = np.stack([full.indices, short])
    d = SampleDraw(full.population, full.design, indices, pi=full.pi_full[indices])
    with pytest.raises(ValueError, match="^variance needs n_h >= 2 in stratum 'b'$"):
        closed_form_variance(d, np.ones(indices.shape))
    assert np.isfinite(ht_variance_double_sum(d, np.ones(indices.shape)).value).all()


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_a_draw_with_no_sampled_unit_is_refused(shape):
    """An empty sample, or a stack of empty samples, is refused where the
    draw is made, whichever form its probabilities take, so neither
    variance route sees it."""
    pop = _pop(10)
    indices = np.zeros(shape, dtype=int)
    for make in (lambda: SampleDraw(pop, Srswor(2), indices, pi=np.zeros(shape)),
                 lambda: SampleDraw(pop, Srswor(2), indices, np.full(10, 0.2))):
        with pytest.raises(ValueError, match="^empty sample"):
            make()
        for variance in (closed_form_variance, ht_variance_double_sum):
            with pytest.raises(ValueError, match="^empty sample"):
                variance(make(), np.zeros(shape))


def test_editing_the_allocation_after_a_draw_leaves_the_sample_unchanged():
    strata = tuple("ab"[i % 2] for i in range(100))
    pop = _pop(100, seed=5, strata=strata)
    e = np.random.default_rng(1).standard_normal(25)
    for make in (lambda a: draw(pop, StratifiedSrswor(a), 7),
                 lambda a: draw_stratified(pop, a, 7)):
        allocations = {"a": 10, "b": 15}
        d = make(allocations)
        groups = d.joint_groups()
        closed = closed_form_variance(d, e).value
        double = ht_variance_double_sum(d, e).value
        allocations.update(a=20, b=2)
        assert all(np.array_equal(x, y) for x, y in zip(d.joint_groups(), groups))
        assert closed_form_variance(d, e).value == closed
        assert ht_variance_double_sum(d, e).value == double


class TestVarianceCalibration:
    def test_unbiased_for_linear_total(self):
        # mean of the closed-form estimator tracks the Monte Carlo variance
        pop = _pop(500, seed=6)
        y = pop.variables["y"]
        n, reps = 50, 2000
        totals, vhats = [], []
        for i in range(reps):
            d = draw_srswor(pop, n, replicate_seed(31, i))
            y_s = y[d.indices]
            totals.append(float(np.sum(y_s / d.pi)))
            vhats.append(closed_form_variance(d, y_s).value)
        mc = np.var(totals, ddof=1)
        assert np.mean(vhats) == pytest.approx(mc, rel=0.1)


class TestNormalQuantile:
    def test_spec_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.75) == pytest.approx(0.6744898, abs=1e-6)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-12)

    def test_accuracy_against_erfc_inversion(self):
        import math
        for p in (1e-6, 0.01, 0.2, 0.5, 0.77, 0.999, 1 - 1e-7):
            x = normal_quantile(p)
            back = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert back == pytest.approx(p, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)


class TestConfidenceInterval:
    def test_hand_values(self):
        lo, hi = confidence_interval(10.0, 4.0, 0.95)
        assert lo == pytest.approx(6.0801, abs=1e-3)
        assert hi == pytest.approx(13.9199, abs=1e-3)

    def test_degenerate(self):
        assert confidence_interval(5.0, 0.0, 0.95) == (5.0, 5.0)

    @pytest.mark.parametrize("level", [-0.5, 0.0, 1.0, 1.5, float("nan")])
    def test_level_outside_the_unit_interval_rejected(self, level):
        message = rf"^confidence level must lie in \(0,1\), got {level!r}$"
        with pytest.raises(ValueError, match=message):
            confidence_interval(10.0, 4.0, level)
        with pytest.raises(ValueError, match=message):
            confidence_interval(np.array([10.0, 5.0]), np.array([4.0, 1.0]), level)

    def test_negative_variance_rejected(self):
        v = VarianceEstimate(-1.0, "double_sum")
        assert v.negative
        with pytest.raises(ValueError, match="negative variance"):
            confidence_interval(1.0, v, 0.95)
