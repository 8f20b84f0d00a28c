import numpy as np
import pytest

from splinesurvey import (
    GivenProbabilities,
    Population,
    draw,
    draw_srswor,
    draw_stratified,
    replicate_seed,
)


def _toy_population(N, strata=None):
    return Population(ids=tuple(map(str, range(N))), z=np.arange(1.0, N + 1),
                      variables={"y": np.arange(1.0, N + 1) ** 2},
                      strata=strata)


class TestSrswor:
    def test_first_order_probabilities(self):
        d = draw_srswor(_toy_population(10), 3, 0)
        assert np.allclose(d.pi_full, 0.3)
        assert d.size == 3
        assert np.allclose(d.joint_prob(0, 1), 1 / 15)

    def test_census(self):
        d = draw_srswor(_toy_population(5), 5, 0)
        assert np.array_equal(d.indices, np.arange(5))
        assert np.allclose(d.pi_full, 1.0)

    def test_seed_determinism(self):
        a = draw_srswor(_toy_population(50), 10, 123)
        b = draw_srswor(_toy_population(50), 10, 123)
        assert np.array_equal(a.indices, b.indices)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            draw_srswor(_toy_population(4), 5, 0)

    def test_joint_prob_diagonal_and_formula(self):
        d = draw_srswor(_toy_population(4), 2, 0)
        assert d.joint_prob(2, 2) == pytest.approx(0.5)
        assert d.joint_prob(0, 3) == pytest.approx(1 / 6)

    def test_pi_sums_to_sample_size(self):
        d = draw_srswor(_toy_population(37), 9, 1)
        assert d.pi_full.sum() == pytest.approx(9.0)

    def test_fixed_size_joint_identity(self):
        # sum over l of pi_kl equals n * pi_k for fixed-size designs
        N, n = 12, 5
        d = draw_srswor(_toy_population(N), n, 0)
        k = 3
        total = sum(d.joint_prob(k, l) for l in range(N))
        assert total == pytest.approx(n * d.pi_of(k))

    def test_inclusion_frequencies(self):
        N, n, reps = 50, 10, 10000
        counts = np.zeros(N)
        pop = _toy_population(N)
        for i in range(reps):
            counts[draw_srswor(pop, n, replicate_seed(99, i)).indices] += 1
        freq = counts / reps
        se = np.sqrt(0.2 * 0.8 / reps)
        assert np.max(np.abs(freq - n / N)) < 3 * se + 0.01


class TestStratified:
    def test_per_stratum_rates(self):
        strata = tuple("a" * 100 + "b" * 50)
        pop = _toy_population(150, strata)
        d = draw_stratified(pop, {"a": 5, "b": 10}, 0)
        assert np.allclose(d.pi_full[:100], 0.05)
        assert np.allclose(d.pi_full[100:], 0.2)
        assert d.size == 15

    def test_cross_stratum_independence(self):
        strata = tuple("a" * 6 + "b" * 6)
        pop = _toy_population(12, strata)
        d = draw_stratified(pop, {"a": 2, "b": 3}, 0)
        assert d.joint_prob(0, 7) == pytest.approx(d.pi_of(0) * d.pi_of(7))

    def test_census_stratum(self):
        strata = tuple("a" * 4 + "b" * 4)
        pop = _toy_population(8, strata)
        d = draw_stratified(pop, {"a": 4, "b": 2}, 0)
        assert set(d.indices[:4]) >= {0, 1, 2, 3}

    def test_missing_allocation(self):
        strata = tuple("ab" * 5)
        pop = _toy_population(10, strata)
        with pytest.raises(ValueError, match="missing stratum allocation"):
            draw_stratified(pop, {"a": 2}, 0)

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError, match="stratum label"):
            draw_stratified(_toy_population(10), {"a": 2}, 0)

    def test_pi_sums_to_total_sample_size(self):
        strata = tuple("a" * 30 + "b" * 20 + "c" * 10)
        pop = _toy_population(60, strata)
        d = draw_stratified(pop, {"a": 6, "b": 5, "c": 2}, 3)
        assert d.pi_full.sum() == pytest.approx(13.0)

    def test_joint_matrix_matches_pointwise(self):
        cases = (("ab", 8, {"a": 3, "b": 4}),
                 # an n_h = 1 stratum and a census one
                 ((7, 30, 4), 5, {7: 1, 30: 5, 4: 2}))
        for labels, size, allocation in cases:
            strata = tuple(np.repeat(list(labels), size).tolist())
            pop = _toy_population(len(strata), strata)
            d = draw_stratified(pop, allocation, 5)
            M = d.joint_matrix()
            for i, k in enumerate(d.indices):
                for j, l in enumerate(d.indices):
                    assert M[i, j] == d.joint_prob(k, l)
                    h, g = strata[k], strata[l]
                    nh, Nh = allocation[h], strata.count(h)
                    if k == l:
                        want = nh / Nh
                    elif h == g:
                        want = nh * (nh - 1) / (Nh * (Nh - 1))
                    else:
                        want = d.pi_of(k) * d.pi_of(l)
                    assert M[i, j] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("labels", [(9, 10, 2), ("h9", "h10", "h2")])
    def test_draw_is_unchanged_for_a_fixed_seed(self, labels):
        # strata are drawn in the order of str(label), one RNG stream
        pick = np.random.default_rng(7).integers(0, 3, 45)
        pop = _toy_population(45, tuple(labels[j] for j in pick))
        d = draw_stratified(pop, dict(zip(labels, (3, 1, 5))), 2024)
        assert d.indices.tolist() == [2, 5, 7, 8, 11, 19, 24, 41, 44]
        assert np.array_equal(d.pi_full, np.array([3 / 12, 1 / 14, 5 / 19])[pick])

    def test_stratum_indices_are_shared_read_only(self):
        strata = tuple("ba" * 5)
        pop = _toy_population(10, strata)
        got = pop.stratum_indices()
        assert list(got) == ["b", "a"]
        assert got["a"].tolist() == [1, 3, 5, 7, 9]
        got["a"] = np.arange(3)
        del got["b"]
        with pytest.raises(ValueError):
            pop.stratum_indices()["b"][0] = 4
        again = pop.stratum_indices()
        assert again["a"].tolist() == [1, 3, 5, 7, 9]
        assert again["b"].tolist() == [0, 2, 4, 6, 8]
        assert pop.stratum_codes.codes.tolist() == [0, 1] * 5


class TestGivenProbabilities:
    def test_joint_probabilities_are_independent(self):
        pop = _toy_population(30)
        pi = np.linspace(0.2, 0.9, 30)
        d = draw(pop, GivenProbabilities(pi), 1)
        M = d.joint_matrix()
        assert np.array_equal(np.diag(M), d.pi)
        off = ~np.eye(d.size, dtype=bool)
        assert np.array_equal(M[off], np.outer(d.pi, d.pi)[off])
        assert d.joint_prob(0, 29) == pi[0] * pi[29]

    def test_empty_draw_rejected(self):
        pop = _toy_population(50)
        with pytest.raises(ValueError, match="empty sample"):
            draw(pop, GivenProbabilities(np.full(50, 1e-9)), 0)


class TestPopulationCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("id,stratum,z,y,x\nu1,a,1.5,2.0,3.0\nu2,b,2.5,4.0,5.0\n")
        pop = Population.from_csv(p)
        assert pop.size == 2
        assert pop.strata == ("a", "b")
        assert np.allclose(pop.variables["x"], [3.0, 5.0])

    def test_non_finite_study_value(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("id,z,y,x\nu1,1.5,2.0,3.0\nu2,2.5,4.0,nan\n")
        with pytest.raises(ValueError, match="study variable 'x' must be finite"):
            Population.from_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("1.5,2.0\n")
        with pytest.raises(ValueError):
            Population.from_csv(p)


class TestPopulationArrays:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_study_value_rejected(self, bad):
        y = np.arange(1.0, 6.0)
        y[3] = bad
        with pytest.raises(ValueError, match="study variable 'y' must be finite"):
            Population(ids=tuple("abcde"), z=np.arange(5.0),
                       variables={"x": np.ones(5), "y": y})

    def test_arrays_are_read_only_views(self):
        z, y = np.arange(1.0, 6.0), np.arange(5.0, 10.0)
        pop = Population(ids=tuple("abcde"), z=z, variables={"y": y})
        with pytest.raises(ValueError, match="read-only"):
            pop.variables["y"][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            pop.z[0] = 1.0
        # views of the caller's arrays, which stay writable
        assert np.shares_memory(pop.variables["y"], y)
        assert np.shares_memory(pop.z, z)
        assert y.flags.writeable and z.flags.writeable
