import numpy as np
import pytest

from splinesurvey import (
    CovariateSummary,
    KnotVector,
    Population,
    SplineSpec,
    basis_matrix,
    basis_row,
    build_knots,
    normalize_covariate,
    penalty_matrix,
    truncated_power_matrix,
    truncated_power_row,
)
from splinesurvey import basis
from splinesurvey.basis import KNOT_RULES
from splinesurvey.designs import draw_srswor
from splinesurvey.weights import SplineSystem


class TestNormalizeCovariate:
    def test_minmax_endpoints(self):
        scaled, _ = normalize_covariate([2.0, 4.0, 6.0])
        assert np.allclose(scaled, [0.0, 0.5, 1.0])

    def test_identity_on_unit_interval(self):
        scaled, sc = normalize_covariate([0.0, 1.0])
        assert np.allclose(scaled, [0.0, 1.0])
        assert sc.apply([0.25])[0] == 0.25

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate covariate"):
            normalize_covariate([10.0, 10.0, 10.0])

    def test_map_is_consistent_on_subsets(self):
        vals = np.array([3.0, 9.0, 5.0, 7.0])
        scaled, sc = normalize_covariate(vals)
        assert np.allclose(sc.apply(vals[1:3]), scaled[1:3])


class TestBuildKnots:
    def test_equidistant_midpoint(self):
        spec = SplineSpec(2, 1, "equidistant")
        assert build_knots(spec).interior == (0.5,)

    def test_equidistant_tertiles(self):
        spec = SplineSpec(2, 2, "equidistant")
        assert np.allclose(build_knots(spec).interior, [1 / 3, 2 / 3])

    def test_sample_quantile_median(self):
        # type-1 (inverted CDF) median of {0, 0.1, 0.2, 0.9} is 0.1
        spec = SplineSpec(2, 1, "sample_quantile")
        kv = build_knots(spec, [0.0, 0.1, 0.2, 0.9])
        assert kv.interior == (0.1,)

    def test_insufficient_support(self):
        spec = SplineSpec(2, 3, "sample_quantile")
        with pytest.raises(ValueError, match="insufficient support"):
            build_knots(spec, [0.2, 0.2, 0.8])

    def test_duplicate_collapse_reduces_k(self, caplog):
        spec = SplineSpec(1, 4, "sample_quantile")
        ref = np.array([0.1, 0.2, 0.3, 0.5, 0.5, 0.5, 0.5, 0.5,
                        0.5, 0.5, 0.5, 0.7, 0.9])
        kv = build_knots(spec, ref)
        assert kv.num_interior < 4
        assert np.all(np.diff(kv.interior) > 0) if kv.num_interior > 1 else True

    @pytest.mark.parametrize("N", [2, 7, 100, 1001, 20_000])
    @pytest.mark.parametrize("step", [None, 0.5, 0.05])
    def test_quantile_knots_equal_numpy_inverted_cdf(self, N, step):
        """Index lookups on sorted values give numpy's type-1 quantiles,
        for a `CovariateSummary` and for unsorted values alike."""
        z = np.random.default_rng(N).lognormal(0.0, 1.0, N)
        if step is not None:
            z = np.round(z / step) * step  # tied (rounded) covariate
        summary = CovariateSummary(z)
        shuffled = np.random.default_rng(0).permutation(summary.z01)
        for K in range(1, 13):
            levels = np.arange(1, K + 1) / (K + 1)
            for rule, reference in (("population_quantile", summary),
                                    ("sample_quantile", shuffled)):
                spec = SplineSpec(2, K, rule)
                if np.unique(summary.z01).size < K + 1:
                    with pytest.raises(ValueError, match="insufficient support"):
                        build_knots(spec, reference)
                    continue
                knots = np.unique(np.quantile(summary.z01, levels,
                                              method="inverted_cdf"))
                want = tuple(knots[(knots > 0.0) & (knots < 1.0)].tolist())
                assert build_knots(spec, reference).interior == want


class TestBasisRow:
    def test_linear_hat_midleft(self):
        assert np.allclose(basis_row(KnotVector((0.5,)), 2, 0.25), [0.5, 0.5, 0.0])

    def test_left_endpoint(self):
        assert np.allclose(basis_row(KnotVector((0.5,)), 2, 0.0), [1.0, 0.0, 0.0])

    def test_order_one_is_indicator(self):
        row = basis_row(KnotVector((1 / 3, 2 / 3)), 1, 0.5)
        assert np.allclose(row, [0.0, 1.0, 0.0])

    def test_right_endpoint_last_entry(self):
        row = basis_row(KnotVector((0.5,)), 2, 1.0)
        assert row[-1] == 1.0 and row[:-1].sum() == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_row(KnotVector(()), 2, 1.5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("K", [0, 2, 5])
    def test_partition_of_unity_and_support(self, m, K, rng):
        kv = build_knots(SplineSpec(m, K, "equidistant"))
        z = np.concatenate((rng.random(500), [0.0, 1.0]))
        B = basis_matrix(kv, m, z)
        assert np.max(np.abs(B.sum(axis=1) - 1.0)) <= 1e-12
        assert B.min() >= 0.0
        assert np.max((B > 0).sum(axis=1)) <= m


class TestBasisMatrix:
    def test_endpoint_rows(self):
        kv = KnotVector((0.5,))
        B = basis_matrix(kv, 2, [0.0, 1.0])
        assert np.allclose(B, [[1, 0, 0], [0, 0, 1]])

    def test_empty_input(self):
        B = basis_matrix(KnotVector((0.5,)), 2, [])
        assert B.shape == (0, 3)

    def test_agrees_with_divided_difference_display(self):
        # stable recursion must reproduce hand values of the m=2 hat functions
        kv = KnotVector((0.5,))
        for z, expected in [(0.25, [0.5, 0.5, 0.0]), (0.75, [0.0, 0.5, 0.5])]:
            assert np.allclose(basis_matrix(kv, 2, [z])[0], expected)


class TestPenaltyMatrix:
    def test_hand_value_m2_p1_k1(self):
        spec = SplineSpec(2, 1, "equidistant", lam=1.0, penalty_order=1)
        D = penalty_matrix(spec, KnotVector((0.5,)))
        expected = 0.5 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1.0]])
        assert np.allclose(D, expected)

    @pytest.mark.parametrize("m,p,K", [(2, 1, 3), (3, 1, 4), (3, 2, 4), (4, 2, 5)])
    def test_annihilates_constants_and_psd(self, m, p, K):
        spec = SplineSpec(m, K, "equidistant", lam=1.0, penalty_order=p)
        kv = build_knots(spec)
        D = penalty_matrix(spec, kv)
        assert np.allclose(D, D.T)
        assert np.min(np.linalg.eigvalsh(D)) >= -1e-10
        if p == 1:
            assert np.max(np.abs(D @ np.ones(K + m))) < 1e-10

    def test_null_space_of_difference_penalty(self):
        # the difference construction annihilates coefficient sequences that
        # are polynomial in the index up to degree p-1
        m, p, K = 3, 2, 4
        spec = SplineSpec(m, K, "equidistant", lam=1.0, penalty_order=p)
        kv = build_knots(spec)
        D = penalty_matrix(spec, kv)
        q = K + m
        for theta in (np.ones(q), 0.5 + 1.5 * np.arange(q)):
            assert np.max(np.abs(D @ theta)) < 1e-10

    def test_penalty_order_validation(self):
        with pytest.raises(ValueError, match="below spline order"):
            SplineSpec(2, 2, "equidistant", lam=1.0, penalty_order=2)


def _gram_by_interval(knots, order):
    """The Gram matrix written out one knot interval at a time: the basis at
    that interval's Gauss-Legendre nodes, weighted, and its product added."""
    q = knots.num_interior + order
    xg, wg = np.polynomial.legendre.leggauss(max(order, 1))
    bp = knots.breakpoints()
    R = np.zeros(bp.shape[:-1] + (q, q))
    for j in range(bp.shape[-1] - 1):
        a, b = bp[..., j], bp[..., j + 1]
        half = 0.5 * (b - a)
        pts = a[..., None] + half[..., None] * (xg + 1.0)
        vals = basis_matrix(knots, order, pts)
        R += (vals * (wg * half[..., None])[..., :, None]).swapaxes(-1, -2) @ vals
    return R


class TestGramMatrix:
    KNOTS = [KnotVector(()), KnotVector((0.5,)), KnotVector((0.1, 0.15, 0.7)),
             KnotVector(tuple((np.arange(1, 8) / 8).tolist())),
             KnotVector(np.array([[0.2, 0.4, 0.6, 0.8], [0.05, 0.3, 0.31, 0.9],
                                  [0.5, 0.6, 0.7, 0.99]])),
             KnotVector(np.array([[0.3], [0.7]]))]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("knots", KNOTS)
    def test_same_bits_as_one_interval_at_a_time(self, knots, order):
        got = basis._gram_matrix(knots, order)
        want = _gram_by_interval(knots, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_quadrature_rule_made_once_per_order(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(nodes):
            calls.append(nodes)
            return leggauss(nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        basis._gauss_legendre.cache_clear()
        try:
            for m in (2, 3, 4):
                for p in range(1, m):
                    spec = SplineSpec(m, 4, "equidistant", lam=1.0, penalty_order=p)
                    for knots in self.KNOTS[2:5]:
                        for _ in range(3):
                            penalty_matrix(spec, knots)
            assert sorted(calls) == [1, 2, 3]
            for nodes in (1, 2, 3):
                for rule in basis._gauss_legendre(nodes):
                    assert not rule.flags.writeable
        finally:
            basis._gauss_legendre.cache_clear()


class TestTruncatedPower:
    def test_below_knot(self):
        row = truncated_power_row(KnotVector((0.5,)), 2, 0.25)
        assert np.allclose(row, [1.0, 0.25, 0.0])

    def test_above_knot(self):
        row = truncated_power_row(KnotVector((0.5,)), 2, 0.75)
        assert np.allclose(row, [1.0, 0.75, 0.25])

    def test_order_one_step(self):
        kv = KnotVector((0.5,))
        assert np.allclose(truncated_power_row(kv, 1, 0.25), [1.0, 0.0])
        assert np.allclose(truncated_power_row(kv, 1, 0.75), [1.0, 1.0])

    def test_span_equivalence_unpenalized(self, rng):
        # least-squares fits agree between the two bases at lambda = 0
        kv = build_knots(SplineSpec(3, 3, "equidistant"))
        z = rng.random(120)
        y = np.sin(3 * z) + 0.1 * rng.standard_normal(120)
        B = basis_matrix(kv, 3, z)
        C = truncated_power_matrix(kv, 3, z)
        fit_b = B @ np.linalg.lstsq(B, y, rcond=None)[0]
        fit_c = C @ np.linalg.lstsq(C, y, rcond=None)[0]
        assert np.max(np.abs(fit_b - fit_c)) <= 1e-8 * max(1, np.max(np.abs(fit_b)))


def _direct_totals(knots, m, z01):
    """Population basis totals by evaluating every unit, summed pairwise
    (contiguous rows) so the reference's own rounding stays near eps."""
    return np.ascontiguousarray(basis_matrix(knots, m, z01).T).sum(axis=1)


def _relative_gap(new, direct):
    scale = np.where(direct == 0, 1.0, np.abs(direct))
    return float(np.max(np.abs(new - direct) / scale))


class TestCovariateSummary:
    @pytest.fixture(scope="class")
    def populations(self):
        rng = np.random.default_rng(2012)
        z = rng.lognormal(7.3, 0.5, 200_000)
        rounded = np.round(z, -3)  # register-style covariate with many ties
        # the minimum and maximum put units at exactly 0 and 1
        return CovariateSummary(z), CovariateSummary(rounded)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_totals_match_direct_sum(self, populations, m):
        smooth, rounded = populations
        assert smooth.z01[0] == 0.0 and smooth.z01[-1] == 1.0
        sample = smooth.z01[::397]
        cases = [build_knots(SplineSpec(m, 0))]
        for K in (2, 4, 10):
            for rule in KNOT_RULES:
                cases.append(build_knots(SplineSpec(m, K, rule),
                                         sample if rule == "sample_quantile"
                                         else smooth.z01))
        # knots 1e-9 apart
        base = cases[-1].interior
        cases.append(KnotVector(tuple(sorted(base + (base[3] + 1e-9,
                                                     base[6] + 1e-9)))))
        worst = max(_relative_gap(smooth.basis_totals(kv, m),
                                  _direct_totals(kv, m, smooth.z01))
                    for kv in cases)
        # quantile knots that coincide with many tied population values
        for rule, reference in (("sample_quantile", rounded.z01[::397]),
                                ("population_quantile", rounded.z01)):
            kv = build_knots(SplineSpec(m, 4, rule), reference)
            assert np.isin(kv.interior, rounded.z01).all()
            worst = max(worst, _relative_gap(rounded.basis_totals(kv, m),
                                             _direct_totals(kv, m, rounded.z01)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_knots_one_ulp_apart(self, m):
        z01 = np.linspace(0.0, 1.0, 5001)
        cs = CovariateSummary(z01)
        k = cs.z01[1000]
        kv = KnotVector((k, np.nextafter(k, 1.0), 0.7))
        assert _relative_gap(cs.basis_totals(kv, m),
                             _direct_totals(kv, m, cs.z01)) <= 1e-12

    def test_sorted_scaled_covariate(self):
        z = np.random.default_rng(3).lognormal(7.0, 0.4, 1000)
        cs = CovariateSummary(z)
        z01, scale = normalize_covariate(z)
        assert cs.scale == scale
        assert np.array_equal(cs.z01, np.sort(z01))


class TestSystemUsesSummary:
    def _population(self, z):
        return Population(ids=tuple(map(str, range(len(z)))), z=z,
                          variables={"y": np.asarray(z) * 2.0})

    def test_sample_covariate_and_knots_unchanged(self):
        z = np.random.default_rng(4).lognormal(7.0, 0.4, 3000)
        pop = self._population(z)
        d = draw_srswor(pop, 200, 5)
        z01, _ = normalize_covariate(z)
        system = SplineSystem(d, SplineSpec(3, 4, "population_quantile"))
        assert np.array_equal(system.basis_sample,
                              basis_matrix(system.knots, 3, z01[d.indices]))
        assert system.knots == build_knots(SplineSpec(3, 4, "population_quantile"),
                                           z01)
        assert pop.covariate_summary is pop.covariate_summary

    def test_degenerate_covariate_raised_at_system_build(self):
        pop = self._population(np.full(50, 4.0))
        d = draw_srswor(pop, 10, 0)
        with pytest.raises(ValueError, match="degenerate covariate"):
            SplineSystem(d, SplineSpec(2, 1))


class TestFixedKnotTotals:
    FIXED = [SplineSpec(2, 0), SplineSpec(3, 0, "population_quantile"),
             SplineSpec(3, 4, "equidistant", lam=1.0),
             SplineSpec(1, 3, "population_quantile"),
             SplineSpec(4, 5, "population_quantile")]

    def _population(self, seed=6):
        z = np.random.default_rng(seed).lognormal(7.0, 0.4, 3000)
        return Population(ids=tuple(map(str, range(z.size))), z=z,
                          variables={"y": z})

    @pytest.mark.parametrize("spec", FIXED)
    def test_cached_totals_equal_fresh_totals(self, spec):
        summary = self._population().covariate_summary
        knots, totals = summary.fixed_knot_totals(spec)
        assert knots == build_knots(spec, summary)
        assert np.array_equal(totals, summary.basis_totals(knots, spec.order))

    @pytest.mark.parametrize("spec", FIXED)
    def test_systems_share_one_read_only_vector(self, spec):
        pop = self._population()
        a = SplineSystem(draw_srswor(pop, 200, 1), spec)
        b = SplineSystem(draw_srswor(pop, 200, 2), spec)
        assert a.basis_pop_total is b.basis_pop_total
        assert not a.basis_pop_total.flags.writeable
        assert a.knots == b.knots

    def test_sample_quantile_knots_stay_out_of_the_cache(self):
        pop = self._population()
        summary = pop.covariate_summary
        spec = SplineSpec(3, 4, "sample_quantile")
        assert summary.fixed_knot_totals(spec) is None
        system = SplineSystem(draw_srswor(pop, 200, 1), spec)
        assert summary._fixed == {}
        assert system.basis_pop_total.flags.writeable

    def test_collapse_logged_once(self, caplog):
        # both population quantiles fall on the smallest value, the boundary
        z = np.repeat(np.arange(1.0, 4.0), [2800, 100, 100])
        pop = Population(ids=tuple(map(str, range(z.size))), z=z,
                         variables={"y": z})
        spec = SplineSpec(1, 2, "population_quantile")
        with caplog.at_level("WARNING", logger="splinesurvey.basis"):
            for seed in range(3):
                SplineSystem(draw_srswor(pop, 300, seed), spec)
        assert [r.message.startswith("collapsed") for r in caplog.records] == [True]
