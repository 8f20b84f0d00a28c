import numpy as np
import pytest

from splinesurvey import (
    Ordering,
    ParameterSpec,
    WeightedMeasure,
    cdf_value,
    gini,
    implicit_solve,
    linearized_gini,
    linearized_poverty_rate,
    mean,
    poverty_rate,
    quantile,
    ratio,
    total,
)
from splinesurvey import functionals
from splinesurvey.linearize import silverman_bandwidth, weighted_gaussian_density


def unit_measure(values):
    return WeightedMeasure(np.asarray(values, dtype=float))


class TestTotalMean:
    def test_weighted(self):
        m = WeightedMeasure([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert total(m) == 12.0
        assert mean(m) == 2.0

    def test_unit_masses(self):
        m = unit_measure([4.0, 6.0])
        assert total(m) == 10.0
        assert mean(m) == 5.0

    def test_empty(self):
        m = WeightedMeasure([], [])
        assert total(m) == 0.0
        with pytest.raises(ValueError):
            mean(m)


class TestRatio:
    def test_identity(self):
        y = unit_measure([1.0, 5.0])
        assert ratio(y, y) == 1.0

    def test_simple(self):
        assert ratio(unit_measure([2.0, 4.0]), unit_measure([1.0, 3.0])) == 1.5

    def test_scale_invariance(self):
        y = np.array([2.0, 4.0])
        x = np.array([1.0, 3.0])
        r1 = ratio(WeightedMeasure(y, np.ones(2)), WeightedMeasure(x, np.ones(2)))
        r2 = ratio(WeightedMeasure(y, 2 * np.ones(2)), WeightedMeasure(x, 2 * np.ones(2)))
        assert r1 == r2

    def test_mismatched_weights(self):
        with pytest.raises(ValueError, match="common weight"):
            ratio(WeightedMeasure([1.0], [1.0]), WeightedMeasure([1.0], [2.0]))


class TestCdf:
    def test_half(self):
        assert cdf_value(unit_measure([1, 2, 3, 4]), 2.0) == 0.5

    def test_extremes(self):
        m = unit_measure([1, 2, 3, 4])
        assert cdf_value(m, 0.5) == 0.0
        assert cdf_value(m, 4.0) == 1.0

    def test_signed_weights_not_clamped(self):
        m = WeightedMeasure([1.0, 2.0], [2.0, -1.0])
        assert cdf_value(m, 1.5) == 2.0  # mass 2 of total 1

    @pytest.mark.parametrize("masses", [None, np.ones(3)], ids=["unit-count", "sorted"])
    def test_nan_point_refused(self, masses):
        m = WeightedMeasure(np.array([1.0, 2.0, 3.0]), masses)
        with pytest.raises(ValueError, match="cannot be evaluated at a NaN point"):
            cdf_value(m, np.nan)
        with pytest.raises(ValueError, match="cannot be evaluated at a NaN point"):
            m.mass_at_most(np.array([1.5, np.nan]))

    @pytest.mark.parametrize("masses", [None, np.ones((2, 3))], ids=["unit-count", "sorted"])
    def test_nan_point_refused_in_a_stack(self, masses):
        m = WeightedMeasure(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]), masses)
        assert np.array_equal(cdf_value(m, np.array([2.0, 2.5])), [2 / 3, 2 / 3])
        with pytest.raises(ValueError, match="cannot be evaluated at a NaN point"):
            cdf_value(m, np.array([2.0, np.nan]))

    def test_nan_point_refused_below(self):
        m = WeightedMeasure([1.0, 2.0, 3.0], np.ones(3))
        with pytest.raises(ValueError, match="cannot be evaluated at a NaN point"):
            m.weighted_sum_below(np.nan)


class TestQuantile:
    def test_median_convention(self):
        assert quantile(unit_measure([1, 2, 3, 4]), 0.5) == 2.0

    def test_quarter(self):
        assert quantile(unit_measure([1, 2, 3, 4]), 0.25) == 1.0

    def test_single_atom(self):
        assert quantile(WeightedMeasure([7.0], [1.0]), 0.3) == 7.0

    def test_round_trip(self, rng):
        y = rng.uniform(0, 10, 50)
        m = unit_measure(y)
        for a in (0.1, 0.5, 0.9):
            assert cdf_value(m, quantile(m, a)) >= a


class TestGini:
    def test_four_points(self):
        assert gini(unit_measure([1, 2, 3, 4])) == pytest.approx(0.5)

    def test_scale_invariance(self):
        assert gini(unit_measure([2, 4, 6, 8])) == pytest.approx(0.5)

    def test_permutation_invariance(self, rng):
        y = rng.uniform(1, 9, 40)
        perm = rng.permutation(40)
        assert gini(unit_measure(y)) == pytest.approx(gini(unit_measure(y[perm])))

    def test_mass_scale_invariance(self, rng):
        y = rng.uniform(1, 9, 30)
        g1 = gini(WeightedMeasure(y, np.ones(30)))
        g2 = gini(WeightedMeasure(y, np.full(30, 3.7)))
        assert g1 == pytest.approx(g2)

    def test_brute_force_agreement(self, rng):
        # O(N^2) evaluation with the same weak-inequality convention
        for _ in range(20):
            N = int(rng.integers(5, 200))
            y = rng.uniform(1, 100, N)
            F = np.array([(y <= yk).sum() / N for yk in y])
            brute = float((2 * F - 1) @ y) / y.sum()
            assert gini(unit_measure(y)) == pytest.approx(brute, rel=1e-13)


class TestPovertyRate:
    def test_hand_count(self):
        # median 5 under the quantile convention, threshold 3, three below
        m = unit_measure(np.arange(1.0, 11.0))
        assert poverty_rate(m) == pytest.approx(0.3)

    def test_all_equal(self):
        m = unit_measure(np.full(10, 5.0))
        assert poverty_rate(m) == 0.0

    def test_fraction_one_at_median(self):
        m = unit_measure(np.arange(1.0, 11.0))
        assert poverty_rate(m, fraction=1.0, level=0.5) >= 0.5

    def test_strict_variant(self):
        m = unit_measure([1.0, 3.0, 3.0, 10.0, 10.0, 10.0])
        loose = poverty_rate(m, fraction=1.0, level=0.5)
        # threshold is the median 3.0: weak counts the ties, strict does not
        strict = poverty_rate(m, fraction=1.0, level=0.5, strict=True)
        assert loose > strict


class TestImplicitSolve:
    def test_weighted_mean_equation(self):
        m = WeightedMeasure([1.0, 2.0, 6.0], [1.0, 2.0, 1.0])
        root = implicit_solve(m, lambda y, c: y - c, (0.0, 10.0))
        assert root == pytest.approx(mean(m), abs=1e-9)

    def test_indicator_equation_residual(self):
        m = unit_measure([1, 2, 3, 4])
        phi = lambda y, c: (y <= c).astype(float) - 0.5
        root = implicit_solve(m, phi, (0.0, 5.0))
        assert abs(float(m.masses @ phi(m.values, root))) <= 0.5  # step residual
        assert 2.0 <= root < 3.0

    def test_no_bracket(self):
        m = unit_measure([1.0, 2.0])
        with pytest.raises(ValueError, match="root not bracketed"):
            implicit_solve(m, lambda y, c: y - c, (10.0, 20.0))

    def test_mass_scaling_preserves_root(self):
        y = np.array([1.0, 4.0, 9.0])
        r1 = implicit_solve(WeightedMeasure(y, np.ones(3)),
                            lambda v, c: v - c, (0.0, 10.0))
        r2 = implicit_solve(WeightedMeasure(y, 5 * np.ones(3)),
                            lambda v, c: v - c, (0.0, 10.0))
        assert r1 == pytest.approx(r2, abs=1e-9)


class TestCensusConsistency:
    def test_plug_in_matches_direct_definitions(self, rng):
        y = rng.uniform(1, 50, 80)
        m = unit_measure(y)
        assert total(m) == pytest.approx(y.sum())
        assert mean(m) == pytest.approx(y.mean())
        med = np.sort(y)[int(np.ceil(0.5 * 80)) - 1]
        assert quantile(m, 0.5) == pytest.approx(med)


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


class TestUnitMassesOnFirstUse:
    """A census measure makes its array of ones only for what reads it
    (neither `total`, `gini`, the quantile nor the CDF does), and every
    number equals the measure with masses of one bit for bit."""

    TIED = np.round(np.random.default_rng(8).standard_normal(1001) * 3)
    # the median is a zero: the first unit's, -0.0, in both measures
    SIGNED_ZERO_MEDIAN = np.array([3.0, -0.0, -1.0, 0.0, -0.0, 2.0, 0.0])

    @pytest.mark.parametrize("y", [TIED, SIGNED_ZERO_MEDIAN])
    def test_quantile_and_cdf_make_no_masses(self, y):
        m = unit_measure(y)
        poverty_rate(m)
        quantile(m, 0.3)
        cdf_value(m, 0.5)
        assert m.total_mass == float(y.size)
        assert "masses" not in vars(m)
        total(m)
        assert np.array_equal(m.masses, np.ones(y.size))

    @pytest.mark.parametrize("y", [TIED, SIGNED_ZERO_MEDIAN])
    def test_total_and_gini_read_no_masses_and_no_order(self, y):
        m = unit_measure(y)
        assert _hex(total(m)) == _hex(np.add.reduce(y))
        mean(m)
        gini(m)
        assert "masses" not in vars(m)
        assert "_runs" not in vars(m.ordering)  # the Gini sorted values only

    def test_entries_are_checked_by_their_row_sums(self):
        for bad in (np.nan, np.inf, -np.inf):
            for y in ([1.0, bad, 2.0], [[1.0, 2.0], [bad, 0.0]], [bad, -bad]):
                with pytest.raises(ValueError, match="measure entries must be finite"):
                    unit_measure(y)
        # a row sum that overflows is checked entry by entry: finite entries
        # pass, and the total is the overflowed sum, as the sum gives it
        m = unit_measure([1e308, 1e308])
        assert total(m) == np.inf
        assert total(unit_measure([[-1e308, -1e308], [1.0, 2.0]])).tolist() == [-np.inf, 3.0]
        with pytest.raises(ValueError, match="measure entries must be finite"):
            unit_measure([[1e308, 1e308], [np.nan, 1.0]])

    @pytest.mark.parametrize("y", [TIED, SIGNED_ZERO_MEDIAN])
    def test_truths_equal_masses_of_one(self, y):
        values = {"y": y, "x": np.abs(y) + 1.0}
        kinds = [ParameterSpec("total"), ParameterSpec("mean"),
                 ParameterSpec("ratio", "y", "x"), ParameterSpec("gini", "x"),
                 ParameterSpec("poverty_rate"), ParameterSpec("poverty_rate", strict=True),
                 ParameterSpec("poverty_rate", "x", level=0.3, fraction=1.5)]
        for p in kinds:
            assert (_hex(p.evaluate(values, None))
                    == _hex(p.evaluate(values, np.ones(y.size)))), p
        for alpha in (1 / 7, 0.3, 0.5, 4 / 7, 0.9):
            assert (_hex(quantile(unit_measure(y), alpha))
                    == _hex(quantile(WeightedMeasure(y, np.ones(y.size)), alpha)))
        assert _hex(quantile(unit_measure(self.SIGNED_ZERO_MEDIAN), 0.5)) == ["-0x0.0p+0"]

    def test_stacked_quantiles_with_zero_and_nonzero_rows(self):
        Y = np.array([[2.0, -0.0, 0.0, 1.0, 0.0],
                      [5.0, 4.0, 3.0, 3.0, 1.0],
                      [0.0, -0.0, -0.0, 1.0, 2.0]])
        for alpha in (0.2, 0.5, 0.7):
            assert (_hex(quantile(unit_measure(Y), alpha))
                    == _hex(quantile(WeightedMeasure(Y, np.ones(Y.shape)), alpha)))

    def test_ratio_of_census_measures_skips_the_mass_comparison(self, monkeypatch):
        monkeypatch.setattr(np, "array_equal", _fail_compare)
        assert ratio(unit_measure([1.0, 2.0]), unit_measure([2.0, 2.0])) == 0.75
        with pytest.raises(AssertionError, match="compared"):
            ratio(unit_measure([1.0, 2.0]), WeightedMeasure([2.0, 2.0], [1.0, 1.0]))

    def test_given_masses_are_still_checked(self):
        with pytest.raises(ValueError, match="must be finite"):
            WeightedMeasure([1.0, 2.0], [1.0, np.inf])
        with pytest.raises(ValueError, match="must be finite"):
            unit_measure([1.0, np.nan])
        with pytest.raises(ValueError, match="matching"):
            WeightedMeasure([1.0, 2.0], [1.0])


class TestSharedUnitMasses:
    """A unit-mass measure's sorted summaries equal those of explicit
    masses of one bit for bit."""

    STACK = np.round(np.random.default_rng(9).standard_normal((5, 40)) * 2) + 0.0
    STACK[1, :7] = -0.0  # a row whose ties hold both signed zeros

    @pytest.mark.parametrize("y", [TestUnitMassesOnFirstUse.TIED,
                                   TestUnitMassesOnFirstUse.SIGNED_ZERO_MEDIAN, STACK])
    def test_sorted_summaries_equal_masses_of_one(self, y):
        unit, ones = unit_measure(y), WeightedMeasure(y, np.ones(y.shape))
        for name in ("_cum_w", "_cum_wy", "_cdf", "weighted_sum_below_own"):
            got, want = getattr(unit, name), getattr(ones, name)
            if callable(got):
                got, want = got(), want()
            assert got.shape == want.shape and _hex(got) == _hex(want), name


def _fail_compare(a, b):
    raise AssertionError("masses compared")


class EagerMeasure(WeightedMeasure):
    """A measure that builds its sorted summaries at construction."""

    def __init__(self, values, masses=None):
        super().__init__(values, masses)
        self._sorted_y, self._cum_w, self._cum_wy  # noqa: B018 - build now


class TestLazySort:
    CASES = [
        # tied values with signed masses
        ([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 5.0], [1.0, -0.5, 2.0, 1.5, 0.25, -1.0, 3.0]),
        # all tied
        ([4.0, 4.0, 4.0], [1.0, 2.0, 3.0]),
        # unsorted continuous values with positive masses
        (list(np.random.default_rng(5).lognormal(3.0, 1.0, 200)),
         list(np.random.default_rng(6).uniform(0.5, 3.0, 200))),
    ]

    @pytest.mark.parametrize("values,masses", CASES)
    def test_same_as_sorting_first(self, values, masses):
        points = np.concatenate((values, [0.0, 2.5, 3.0, 1e9]))
        eager = EagerMeasure(values, masses)
        for first in ("mass", "below", "functionals"):
            lazy = WeightedMeasure(values, masses)
            if first == "below":
                lazy.weighted_sum_below(points)
            if first == "functionals":
                assert gini(lazy) == gini(eager)
            assert np.array_equal(lazy.mass_at_most(points),
                                  eager.mass_at_most(points))
            assert np.array_equal(lazy.weighted_sum_below(points),
                                  eager.weighted_sum_below(points))
            assert gini(lazy) == gini(eager)
            for alpha in (0.1, 0.5, 0.9):
                assert quantile(lazy, alpha) == quantile(eager, alpha)
            for strict in (False, True):
                assert (poverty_rate(lazy, strict=strict)
                        == poverty_rate(eager, strict=strict))

    def test_matches_brute_force(self):
        values, masses = map(np.asarray, self.CASES[0])
        m = WeightedMeasure(values, masses)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
            assert m.mass_at_most(t) == masses[values <= t].sum()
            assert m.weighted_sum_below(t) == (masses * values)[values < t].sum()

    def test_sums_do_not_sort(self):
        y = WeightedMeasure([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        x = WeightedMeasure([1.0, 1.0, 4.0], [1.0, 2.0, 3.0])
        assert (total(y), mean(y), ratio(y, x)) == (11.0, 11.0 / 6.0, 11.0 / 15.0)
        sorted_summaries = {"_order", "_sorted_y", "_cum_w", "_cum_wy"}
        assert not sorted_summaries & (vars(y).keys() | vars(x).keys())
        y.mass_at_most(2.0)
        assert {"_order", "_sorted_y", "_cum_w"} <= vars(y).keys()


class SearchsortedReference:
    """The order functionals written out with a stable sort and a
    `searchsorted` of every point, as the library computed them before it
    read run ends. Sums over the units are pairwise (`np.add.reduce`): the
    total in unit order, the Gini in sorted order."""

    def __init__(self, y, w):
        self.y, self.w = y, w
        self.order = order = np.argsort(y, kind="stable")
        self.s = y[order]
        self.cum_w = np.concatenate(([0.0], np.cumsum(w[order])))
        self.cum_wy = np.concatenate(([0.0], np.cumsum(w[order] * self.s)))
        self.nhat = float(w.sum())
        self.ty = float(np.add.reduce(w * y))

    def at_most(self, t):
        return self.cum_w[np.searchsorted(self.s, t, side="right")]

    def below(self, t):
        return self.cum_wy[np.searchsorted(self.s, t, side="left")]

    def gini(self):
        F = self.at_most(self.s) / self.nhat
        return float(np.add.reduce(self.w[self.order] * ((2.0 * F - 1.0) * self.s))) / self.ty

    def quantile(self, alpha):
        # one support point per run of ties: its first unit in stable order
        first = np.searchsorted(self.s, self.s, side="left") == np.arange(self.s.size)
        support = self.s[first]
        crossed = np.flatnonzero(self.at_most(support) / self.nhat >= alpha)
        if crossed.size == 0:
            raise ValueError("quantile undefined for this signed measure")
        return float(support[crossed[0]])

    def poverty_rate(self, strict):
        threshold = 0.6 * self.quantile(0.5)
        side = "left" if strict else "right"
        return float(self.cum_w[np.searchsorted(self.s, threshold, side=side)]) / self.nhat

    def linearized_gini(self):
        G = self.gini()
        F = self.at_most(self.y) / self.nhat
        below = self.below(self.y) / self.nhat
        return (2.0 * (F * self.y - below) / self.ty
                - self.y * (1.0 + G) / self.ty + (1.0 - G) / self.nhat)

    def linearized_poverty_rate(self):
        y, w, nhat = self.y, self.w, self.nhat
        q = self.quantile(0.5)
        t = 0.6 * q
        P = float(self.at_most(t)) / nhat
        h = silverman_bandwidth(WeightedMeasure(y, w))
        f_t, f_q = weighted_gaussian_density([t, q], WeightedMeasure(y, w), h)
        if f_q < 1e-12:
            raise ValueError("density too small at the quantile")
        adj = 0.6 * f_t / f_q
        return ((y <= t).astype(float) - P - adj * ((y <= q).astype(float) - 0.5)) / nhat


def _outcome(f):
    """The bytes of f's result, or its error message."""
    try:
        return np.asarray(f(), dtype=float).tobytes()
    except ValueError as err:
        return str(err)


class TestRunEndReads:
    """Order functionals read the distribution function at run ends; they
    must match the searchsorted reference bit for bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        for i in range(300):
            n = int(rng.integers(10, 300))
            y = [np.round(rng.lognormal(2.0, 1.0, n), 1),        # ties
                 rng.lognormal(2.0, 1.0, n),                     # no ties
                 rng.choice([-0.0, 0.0, 1.5, 4.0], n),           # signed zeros
                 np.full(n, 3.0)][i % 4]
            w = rng.uniform(0.5, 3.0, n) if i % 2 else rng.normal(1.0, 1.5, n)
            yield y, w

    def test_matches_searchsorted_reference(self):
        for y, w in self.cases():
            ref = SearchsortedReference(y, w)
            m = WeightedMeasure(y, w)
            pairs = [(lambda: gini(m), ref.gini),
                     (lambda: linearized_gini(WeightedMeasure(y, w)).values, ref.linearized_gini),
                     (lambda: linearized_poverty_rate(WeightedMeasure(y, w)).values,
                      ref.linearized_poverty_rate)]
            pairs += [(lambda a=a: quantile(m, a), lambda a=a: ref.quantile(a))
                      for a in (0.1, 0.5, 0.9)]
            pairs += [(lambda s=s: poverty_rate(m, strict=s),
                       lambda s=s: ref.poverty_rate(s)) for s in (False, True)]
            points = np.concatenate((y, [-1.0, 0.0, 2.0, 1e9]))
            pairs += [(lambda: m.mass_at_most(points), lambda: ref.at_most(points)),
                      (lambda: m.weighted_sum_below(points),
                       lambda: ref.below(points)),
                      (m.weighted_sum_below_own, lambda: ref.below(y))]
            for got, want in pairs:
                assert _outcome(got) == _outcome(want)

    def test_shared_ordering_sorts_once(self, monkeypatch):
        calls = []
        sort_runs = functionals._sort_runs
        monkeypatch.setattr(functionals, "_sort_runs",
                            lambda v: calls.append(v.size) or sort_runs(v))
        y = np.round(np.random.default_rng(4).lognormal(2.0, 1.0, 50), 1)
        ordering = Ordering(y)
        assert calls == []  # built on first use only
        for w in (np.ones(50), np.full(50, 2.5), np.linspace(-1.0, 3.0, 50)):
            m = WeightedMeasure(y, w, ordering)
            assert gini(m) == gini(WeightedMeasure(y, w))
        linearized_gini(WeightedMeasure(y, np.ones(50), ordering))
        linearized_poverty_rate(WeightedMeasure(y, np.ones(50), ordering))
        assert calls.count(50) == 1 + 3  # the shared sort, and one per unshared measure

    def test_ordering_of_other_values_is_refused(self):
        y = np.array([3.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="ordering must be built"):
            WeightedMeasure(y.copy(), None, Ordering(y))
