import codecs
import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from splinesurvey import (
    GivenProbabilities,
    Population,
    Srswor,
    StratifiedSrswor,
    draw,
    draw_srswor,
    draw_stratified,
    joint_prob,
    replicate_seed,
)
from splinesurvey import designs


def _toy_population(N, strata=None):
    return Population(ids=tuple(map(str, range(N))), z=np.arange(1.0, N + 1),
                      variables={"y": np.arange(1.0, N + 1) ** 2},
                      strata=strata)


class TestSrswor:
    def test_first_order_probabilities(self):
        d = draw_srswor(_toy_population(10), 3, 0)
        assert np.allclose(d.pi_full, 0.3)
        assert d.size == 3
        assert np.allclose(joint_prob(d, 0, 1), 1 / 15)

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

    @pytest.mark.parametrize("design", [Srswor(3), GivenProbabilities(np.full(10, 0.5))],
                             ids=["srswor", "poisson"])
    def test_empty_seed_list_refused(self, design):
        with pytest.raises(ValueError, match="^draw needs at least one seed: "
                                             "the seed list is empty$"):
            draw(_toy_population(10), design, [])

    def test_joint_prob_diagonal_and_formula(self):
        d = draw_srswor(_toy_population(4), 2, 0)
        assert joint_prob(d, 2, 2) == pytest.approx(0.5)
        assert joint_prob(d, 0, 3) == pytest.approx(1 / 6)

    def test_pi_sums_to_sample_size(self):
        d = draw_srswor(_toy_population(37), 9, 1)
        assert d.pi_full.sum() == pytest.approx(9.0)

    def test_fixed_size_joint_identity(self):
        # sum over l of pi_kl equals n * pi_k for fixed-size designs
        N, n = 12, 5
        d = draw_srswor(_toy_population(N), n, 0)
        k = 3
        total = sum(joint_prob(d, k, l) for l in range(N))
        assert total == pytest.approx(n * d.pi_full[k])

    @pytest.mark.parametrize("N,n,seed,indices", [
        (10, 3, 0, [5, 6, 9]),
        (45, 9, 2024, [3, 8, 12, 13, 25, 35, 39, 41, 42]),
        (200, 12, 7, [10, 44, 56, 59, 111, 118, 130, 150, 162, 172, 174, 178]),
        (7, 7, 1, [0, 1, 2, 3, 4, 5, 6]),
        (1000, 1, 99, [958]),
    ])
    def test_draw_is_unchanged_for_a_fixed_seed(self, N, n, seed, indices):
        d = draw_srswor(_toy_population(N), n, seed)
        assert d.indices.tolist() == indices
        assert np.array_equal(d.pi_full, np.full(N, n / N))

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
        assert joint_prob(d, 0, 7) == pytest.approx(d.pi_full[0] * d.pi_full[7])

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

    def test_allocation_to_an_absent_stratum(self):
        """An allocation the population cannot place is refused, not
        dropped from the sample size."""
        pop = _toy_population(10, tuple("ab" * 5))
        with pytest.raises(ValueError, match="stratum 'c', which the population lacks"):
            draw_stratified(pop, {"a": 2, "b": 2, "c": 3}, 0)

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
                    assert M[i, j] == joint_prob(d, k, l)
                    h, g = strata[k], strata[l]
                    nh, Nh = allocation[h], strata.count(h)
                    if k == l:
                        want = nh / Nh
                    elif h == g:
                        want = nh * (nh - 1) / (Nh * (Nh - 1))
                    else:
                        want = d.pi_full[k] * d.pi_full[l]
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


class TestDesignSizes:
    @pytest.mark.parametrize("n", ["50", 50.0, True, None])
    def test_sample_size_must_be_whole(self, n):
        with pytest.raises(ValueError,
                           match=f"sample size is not a whole number: {n!r}"):
            Srswor(n)

    @pytest.mark.parametrize("nh", ["40", 40.0, True, np.bool_(True)])
    def test_allocation_must_be_whole(self, nh):
        with pytest.raises(ValueError, match=r"allocation of stratum 'h0' is not "
                                             rf"a whole number: {nh!r}"):
            StratifiedSrswor({"h1": 30, "h0": nh})

    def test_allocations_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="allocations must map stratum labels"):
            StratifiedSrswor([40, 30])

    def test_numpy_integers_accepted(self):
        pop = _toy_population(12, tuple("ab" * 6))
        a = draw(pop, Srswor(np.int64(4)), 3)
        b = draw(pop, StratifiedSrswor({"a": np.int32(2), "b": np.uint8(3)}), 3)
        assert (a.size, b.size) == (4, 5)

    def test_allocations_are_a_read_only_copy(self):
        allocations = {"a": 2, "b": 3}
        design = StratifiedSrswor(allocations)
        allocations["a"] = 5
        assert dict(design.allocations) == {"a": 2, "b": 3}
        with pytest.raises(TypeError):
            design.allocations["a"] = 5

    def test_range_is_checked_at_draw_time(self):
        pop = _toy_population(6, tuple("aabbbb"))
        with pytest.raises(ValueError, match="allocation 3 out of range for stratum"):
            draw(pop, StratifiedSrswor({"a": 3, "b": 2}), 0)
        with pytest.raises(ValueError, match="sample size 7 out of range for N=6"):
            draw(pop, Srswor(7), 0)


class TestGivenProbabilities:
    def test_joint_probabilities_are_independent(self):
        pop = _toy_population(30)
        pi = np.linspace(0.2, 0.9, 30)
        d = draw(pop, GivenProbabilities(pi), 1)
        M = d.joint_matrix()
        assert np.array_equal(np.diag(M), d.pi)
        off = ~np.eye(d.size, dtype=bool)
        assert np.array_equal(M[off], np.outer(d.pi, d.pi)[off])
        assert joint_prob(d, 0, 29) == pi[0] * pi[29]

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
        with pytest.raises(ValueError, match="population CSV line 3, column 'x': "
                                             "not a finite number: 'nan'"):
            Population.from_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("1.5,2.0\n")
        with pytest.raises(ValueError):
            Population.from_csv(p)


def _reference_load(path):
    """The population CSV read one cell at a time: `csv.DictReader` and
    `float` per numeric cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        names = reader.fieldnames
    text = ("id", "stratum")
    return ({name: tuple(row[name] for row in rows) for name in names if name in text},
            {name: np.array([float(row[name]) for row in rows])
             for name in names if name not in text})


def _assert_same_load(path):
    text, numbers = _reference_load(path)
    pop = Population.from_csv(path)
    assert pop.ids == text["id"]
    assert pop.strata == text.get("stratum")
    assert list(pop.variables) == [name for name in numbers if name != "z"]
    arrays = {"z": pop.z, **pop.variables}
    for name, expected in numbers.items():
        assert np.array_equal(arrays[name].view(np.int64), expected.view(np.int64)), name


def _many_rows(rng, count):
    """`count` data lines with quoted ids holding commas and quotes, and a
    blank line every 1000 rows."""
    lines = []
    for i, (z, y) in enumerate(rng.lognormal(7.0, 0.4, (count, 2)).tolist()):
        lines.append(f'"u{i}, ""{i % 7}""",{z!r},"{y!r}"')
        if i % 1000 == 999:
            lines.append("")
    return lines


class TestPopulationCsvColumns:
    """`from_csv` gives, bit for bit, what a per-cell reader gives."""

    @pytest.mark.parametrize("text", [
        'id,z,y\n"a,1",1.5,"2.5"\n"b ""q""\nc",2,"3"\n',
        "id,z,y\r\n\r\nu1,1.25,2\r\n\r\n\r\nu2,3,4\r\nu3,5,6",
        "z,stratum,y,id,x\n1,h1,2,u1,3\n4,h0,5,u2,6\n7,h1,8,u3,9\n",
        "id,z,y\nu1, 1.5,1_0\nu2,-0.0,4.9e-324\nu3,0.1000000000000000055511151231257827,"
        "123456789012345678901234567890\nu4,\uff11\uff12\uff13,1.5 \n",
    ], ids=["quoted", "crlf-blank-no-final-newline", "stratum", "edge-numbers"])
    def test_same_as_per_cell_reader(self, tmp_path, text):
        p = tmp_path / "pop.csv"
        p.write_bytes(text.encode("utf-8"))
        _assert_same_load(p)

    def test_same_as_per_cell_reader_over_many_rows(self, tmp_path, rng):
        p = tmp_path / "pop.csv"
        lines = ["id,z,y", *_many_rows(rng, 9426)]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _assert_same_load(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "nan", "NaN", "-nan",
                                      "1e400", "2.4703282292062327e-324"])
    def test_cell_converts_as_float(self, tmp_path, cell):
        # the `1_0` of column y sends the file to the csv reader
        p = tmp_path / "pop.csv"
        p.write_text(f"id,z,y\nu1,{cell},1_0\n", encoding="utf-8")
        assert designs._one_pass_columns(p) is None
        value = float(cell)
        if np.isfinite(value):
            pop = Population.from_csv(p)
            assert pop.z.view(np.int64)[0] == np.float64(value).view(np.int64)
            return
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == ("population CSV line 2, column 'z': "
                                   f"not a finite number: {cell!r}")


class TestPopulationCsvByteOrderMark:
    """A file led by a UTF-8 byte-order mark, as Excel's "CSV UTF-8" export
    writes it, loads on either reader as the same file without the mark."""

    @pytest.mark.parametrize("text", [
        # y first: the mark leads a study variable's name
        "y,id,stratum,z\n2.5,u1,h1,1.5\n3,u2,h2,2.5\n",
        "id,stratum,z,y\r\nu1,h1,1_0,2.5\r\n\"u\n2\",h2,2.5,3\r\n",
    ], ids=["one-pass", "csv-reader"])
    def test_loads_as_without_the_mark(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert (designs._one_pass_columns(marked) is None) == ("1_0" in text)
        _assert_same_load(plain)
        want, got = Population.from_csv(plain), Population.from_csv(marked)
        assert (got.ids, got.strata, list(got.variables)) == (want.ids, want.strata,
                                                              list(want.variables))
        for a, b in zip((got.z, *got.variables.values()), (want.z, *want.variables.values())):
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


class TestPopulationCsvOnePass:
    """An ordinary file is parsed by numpy's reader alone; the `csv` reader
    re-reads only a file numpy's reader refuses."""

    @pytest.fixture
    def no_csv_reader(self, monkeypatch):
        def _fail(*args):
            raise AssertionError("the csv reader read the file again")
        monkeypatch.setattr(designs, "_row_columns", _fail)

    @pytest.mark.parametrize("text", [
        'id,z,"y\nnew"\nu1,1.5,2.5\n"u\r\n2",2,3\n',
        'id,z,y\ru1,1.5,2.5\r\ru2,2,3\r',
        'stratum,z,y,id\r\nh1," 1.5 ","2e-3",""\r\nh2,\xa02\t,-0,"a,""b"""\r\n',
    ], ids=["two-line-header", "lone-cr", "quoted-and-padded"])
    def test_same_as_per_cell_reader_without_the_csv_reader(self, tmp_path, text,
                                                           no_csv_reader):
        p = tmp_path / "pop.csv"
        p.write_bytes(text.encode("utf-8"))
        _assert_same_load(p)

    def test_many_rows_without_the_csv_reader(self, tmp_path, rng, no_csv_reader):
        p = tmp_path / "pop.csv"
        lines = ["id,z,y", *_many_rows(rng, 9426)]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _assert_same_load(p)

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_around_a_number_is_refused(self, tmp_path, separator):
        # numpy strips it as whitespace, but `float` refuses it
        p = tmp_path / "pop.csv"
        p.write_text(f"id,z,y\nu{separator}1,1,2\nu2,2,3{separator}\n")
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == ("population CSV line 3, column 'y': could not "
                                   f"convert string to float: {'3' + separator!r}")

    @pytest.mark.parametrize("text", ["id,z,y\n", "id,z,y\n\n\n"])
    def test_header_only_warns_nothing(self, tmp_path, text):
        p = tmp_path / "pop.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one unit"):
                Population.from_csv(p)


class TestPopulationCsvErrors:
    """A row or cell the loader refuses is named by its file line, also
    thousands of rows into the file and after quoted cells spanning several
    lines; of several, the first is named."""

    def _write(self, tmp_path, rng, bad_line):
        # line 1 is the header; one quoted id spanning two lines opens the
        # rows, and another comes a few rows before the bad line
        lines = ["id,z,y", '"multi\nline",1,2', *_many_rows(rng, 4596)]
        lines.insert(4196, '"multi\r\nline",1,2')
        lines.insert(4296, bad_line)
        line = 2 + sum(item.count("\n") + 1 for item in lines[1:4296])
        p = tmp_path / "pop.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p, line

    def test_bad_cell_names_line_column_and_text(self, tmp_path, rng):
        p, line = self._write(tmp_path, rng, "v1,3.5,abc")
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == (f"population CSV line {line}, column 'y': "
                                   "could not convert string to float: 'abc'")

    def test_empty_cell_names_its_line(self, tmp_path, rng):
        p, line = self._write(tmp_path, rng, "v1,,2")
        with pytest.raises(ValueError, match=f"line {line}, column 'z': could not "
                                             "convert string to float: ''"):
            Population.from_csv(p)

    @pytest.mark.parametrize("bad_line,column,cell", [
        ("v1,3.5,nan", "y", "nan"), ("v1,3.5,-inf", "y", "-inf"),
        ("v1,inf,2", "z", "inf"), ("v1,1e400,2", "z", "1e400")])
    def test_non_finite_cell_names_line_column_and_text(self, tmp_path, rng,
                                                        bad_line, column, cell):
        p, line = self._write(tmp_path, rng, bad_line)
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == (f"population CSV line {line}, column {column!r}: "
                                   f"not a finite number: {cell!r}")

    def test_first_refused_cell_of_a_column_is_named(self, tmp_path):
        # a NaN above a cell that is not a number: the NaN's line is named
        p = tmp_path / "pop.csv"
        p.write_text("id,z,y\nu1,1,2\nu2,2,NaN\nu3,3,abc\n")
        with pytest.raises(ValueError, match="line 3, column 'y': not a finite "
                                             "number: 'NaN'"):
            Population.from_csv(p)

    @pytest.mark.parametrize("text,message", [
        ("id,z,y\nu1,1,abc\nu2,xyz,1\n",
         "line 2, column 'y': could not convert string to float: 'abc'"),
        ("id,z,y\nu1,abc,1\nu2,1\n",
         "line 2, column 'z': could not convert string to float: 'abc'"),
        ("id,z,y\nu1,1,2\nu2,3\nu3,nan,abc\n", "line 3: 2 cells, but the header has 3"),
        ("id,z,y\r\n\r\n\"u\r\n1\",nan,abc\r\nu2,1\r\n",
         "line 3, column 'z': not a finite number: 'nan'"),
    ], ids=["cell-then-earlier-column", "cell-then-short-row", "short-row-then-cells",
            "non-finite-then-bad-cell"])
    def test_first_refused_line_is_named(self, tmp_path, text, message):
        p = tmp_path / "pop.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == f"population CSV {message}"

    def test_cell_past_the_csv_field_limit_names_its_line(self, tmp_path):
        # numpy's pass refuses the `1_0` cell, and the csv module the id
        p = tmp_path / "pop.csv"
        p.write_text("id,z,y\nu1,1,2\n" + "u" * 140_000 + ",1_0,3\n")
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == ("population CSV line 3: field larger than "
                                   f"field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("bad_line,cells", [("v1,3.5", 2), ("v1,3.5,2,7", 4)])
    def test_short_or_long_row_names_its_line(self, tmp_path, rng, bad_line, cells):
        p, line = self._write(tmp_path, rng, bad_line)
        with pytest.raises(ValueError) as info:
            Population.from_csv(p)
        assert str(info.value) == (f"population CSV line {line}: {cells} cells, "
                                   "but the header has 3")

    def test_repeated_column_refused(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("id,z,y,y\nu1,1,2,3\n")
        with pytest.raises(ValueError, match="header names column 'y' 2 times"):
            Population.from_csv(p)

    @pytest.mark.parametrize("text", ["id,z,y\n", "id,z,y\n\n\n"])
    def test_header_only_refused(self, tmp_path, text):
        p = tmp_path / "pop.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="at least one unit"):
            Population.from_csv(p)

    def test_empty_file_refused(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="needs a header with an 'id' column"):
            Population.from_csv(p)


@pytest.mark.parametrize("bad_cell", [False, True], ids=["one-pass", "csv-reader"])
def test_csv_load_peak_memory_is_bounded(tmp_path, rng, bad_cell):
    """Either reader keeps the load's peak within 3x what the population
    retains: numpy's holds the rows as one table, and the csv reader
    holds one row at a time next to the columns read so far. Holding every
    row of the file as lists of strings at once would not."""
    p = tmp_path / "pop.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "z", "y", "x"])
        for i, values in enumerate(rng.lognormal(7.0, 0.4, (20_000, 3))):
            writer.writerow([f"u{i}", *map(repr, values.tolist())])
        if bad_cell:  # read by `float` only: the csv reader reads the file
            writer.writerow(["u_last", "1_000", "2", "3"])
    assert (designs._one_pass_columns(p) is None) == bad_cell
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pop = Population.from_csv(p)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pop.size == 20_000 + bad_cell
    assert peak - before <= 3 * (retained - before)


class TestPositionalIds:
    """`PositionalIds(n)` reads as `tuple(map(str, range(n)))`."""

    N = 7
    TUPLE = tuple(map(str, range(N)))

    def test_length_and_indexes(self):
        ids = designs.PositionalIds(self.N)
        assert len(ids) == self.N
        for i in range(-self.N, self.N):
            assert ids[i] == self.TUPLE[i]
            assert ids[np.int64(i)] == self.TUPLE[i]
            assert ids[np.intp(i)] == self.TUPLE[i]
        for i in (self.N, -self.N - 1, np.int64(self.N)):
            with pytest.raises(IndexError):
                ids[i]
        with pytest.raises(TypeError):
            ids[1.0]

    @pytest.mark.parametrize("part", [slice(None), slice(2, 5), slice(-3, None),
                                      slice(None, None, -2), slice(5, 100), slice(4, 2)])
    def test_slices_are_tuples(self, part):
        got = designs.PositionalIds(self.N)[part]
        assert type(got) is tuple
        assert got == self.TUPLE[part]

    def test_iteration_and_equality(self):
        ids = designs.PositionalIds(self.N)
        assert list(ids) == list(self.TUPLE)
        assert list(reversed(ids)) == list(reversed(self.TUPLE))
        assert ids == self.TUPLE and self.TUPLE == ids
        assert ids == designs.PositionalIds(self.N)
        assert ids != self.TUPLE[:-1] and ids != ("x",) * self.N
        assert ids != list(self.TUPLE)
        assert ids != designs.PositionalIds(self.N + 1)
        assert "3" in ids and "03" not in ids and 3 not in ids
        assert ids.index("4") == 4
        assert designs.PositionalIds(0) == ()

    def test_read_only_with_a_short_repr(self):
        ids = designs.PositionalIds(10**9)
        assert repr(ids) == "PositionalIds(1000000000)"
        with pytest.raises(TypeError):
            ids[0] = "a"
        with pytest.raises(AttributeError):
            ids.extra = 1

    def test_written_csv_is_unchanged(self, tmp_path, rng):
        """A population CSV written from positional ids, by iteration and by
        numpy index, has the bytes it has from the tuple of strings."""
        z = rng.lognormal(7.0, 0.4, 50)
        texts = []
        for ids in (designs.PositionalIds(z.size), tuple(map(str, range(z.size)))):
            path = tmp_path / f"{type(ids).__name__}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "z"])
                for uid, value in zip(ids, z.tolist()):
                    writer.writerow([uid, repr(value)])
                for k in np.arange(z.size)[::7]:
                    writer.writerow([ids[k], repr(float(z[k]))])
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


class TestPopulationCsvLabels:
    """Both readers keep one string object per stratum label."""

    def _write(self, tmp_path, rng, bad_cell=False):
        z = rng.lognormal(7.0, 0.4, 8242).tolist()
        rows = [f"u{i},h{i % 3},{zk!r},{zk + 1.0!r}" for i, zk in enumerate(z)]
        if bad_cell:  # read by `float` only: the csv reader reads the file
            rows[-1] = "u_last,h1,1_000,2"
        p = tmp_path / "pop.csv"
        p.write_text("\n".join(["id,stratum,z,y", *rows]) + "\n", encoding="utf-8")
        return p

    @pytest.mark.parametrize("bad_cell", [False, True], ids=["one-pass", "csv-reader"])
    def test_one_object_per_label(self, tmp_path, rng, bad_cell):
        p = self._write(tmp_path, rng, bad_cell)
        assert (designs._one_pass_columns(p) is None) == bad_cell
        _assert_same_load(p)
        pop = Population.from_csv(p)
        assert len({id(h) for h in pop.strata}) == 3
        assert type(pop.ids) is tuple and len(set(map(id, pop.ids))) == pop.size


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
