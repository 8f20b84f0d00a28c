"""Property tests of the plug-in functionals: a measure is a set of point
masses, so every functional is invariant under permuting the units, and
the normalized ones are invariant under rescaling the masses. A measure
built without masses (the census) selects and counts instead of sorting,
and must give what the same values with masses of one give.

Values and masses are small integers (ties are common) and scale factors
are powers of two, so every sum is exact and the checks are equalities.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from splinesurvey import designs, functionals  # noqa: E402
from splinesurvey import (  # noqa: E402
    Ordering,
    Population,
    ParameterSpec,
    WeightedMeasure,
    cdf_value,
    gini,
    influence_oracle,
    mean,
    poverty_rate,
    quantile,
    ratio,
    total,
)
from splinesurvey.simulate import KINDS  # noqa: E402
from test_designs import _reference_load  # noqa: E402


@st.composite
def measures(draw, signed=False):
    """(values, masses, permutation) with at least two units."""
    n = draw(st.integers(2, 40))
    values = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    low = -4 if signed else 1
    masses = draw(st.lists(st.integers(low, 6), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return (np.asarray(values, dtype=float), np.asarray(masses, dtype=float),
            np.asarray(perm))


POWERS_OF_TWO = st.sampled_from([0.25, 0.5, 2.0, 8.0, 1024.0])
POINTS = np.arange(0.0, 14.0, 0.5)
LEVELS = (0.1, 0.5, 0.9)


def positive_functionals(m):
    out = [total(m), mean(m), gini(m), poverty_rate(m),
           poverty_rate(m, strict=True)]
    return out + [quantile(m, a) for a in LEVELS]


@settings(max_examples=150, deadline=None)
@given(measures(signed=True))
def test_distribution_sums_are_permutation_invariant(case):
    y, w, perm = case
    a, b = WeightedMeasure(y, w), WeightedMeasure(y[perm], w[perm])
    assert total(a) == total(b)
    assert np.array_equal(a.mass_at_most(POINTS), b.mass_at_most(POINTS))
    assert np.array_equal(a.weighted_sum_below(POINTS),
                          b.weighted_sum_below(POINTS))


@settings(max_examples=150, deadline=None)
@given(measures())
def test_functionals_are_permutation_invariant(case):
    y, w, perm = case
    a, b = WeightedMeasure(y, w), WeightedMeasure(y[perm], w[perm])
    got, want = positive_functionals(b), positive_functionals(a)
    # gini's final dot product runs in unit order, so it may round differently
    assert got[2] == pytest.approx(want[2], rel=1e-12, abs=1e-15)
    del got[2], want[2]
    assert got == want


@settings(max_examples=150, deadline=None)
@given(measures(), POWERS_OF_TWO)
def test_normalized_functionals_ignore_mass_scale(case, c):
    y, w, _ = case
    a, b = WeightedMeasure(y, w), WeightedMeasure(y, c * w)
    assert total(b) == c * total(a)
    assert positive_functionals(b)[1:] == positive_functionals(a)[1:]
    x = WeightedMeasure(y + 1.0, w)
    assert ratio(b, WeightedMeasure(y + 1.0, c * w)) == ratio(a, x)


@settings(max_examples=150, deadline=None)
@given(measures(), POWERS_OF_TWO)
def test_value_scale_equivariance(case, c):
    y, w, _ = case
    a, b = WeightedMeasure(y, w), WeightedMeasure(c * y, w)
    assert mean(b) == c * mean(a)
    assert gini(b) == gini(a)
    assert poverty_rate(b) == poverty_rate(a)
    for alpha in LEVELS:
        assert quantile(b, alpha) == c * quantile(a, alpha)


# Few distinct values, both signed zeros among them, and sizes past the
# small-array cutoffs of numpy's sorts.
TIED_VALUES = st.one_of(
    st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]), max_size=200),
    st.lists(st.floats(-1e3, 1e3), max_size=200),
    st.builds(lambda v, n: [v] * n, st.sampled_from([-0.0, 0.0, 7.5]),
              st.integers(0, 200)),
)


@settings(max_examples=300, deadline=None)
@given(TIED_VALUES)
def test_ordering_is_the_stable_argsort(values):
    y = np.asarray(values, dtype=float)
    ordering = Ordering(y)
    stable = np.argsort(y, kind="stable")
    assert np.array_equal(ordering.order, stable)
    assert ordering.sorted_values.tobytes() == y[stable].tobytes()
    # runs tile the sorted positions, one run per distinct value
    starts, ends = ordering.run_starts, ordering.run_ends
    assert starts.size == ends.size == np.unique(y).size
    assert np.array_equal(starts[1:], ends[:-1])
    if y.size:
        assert (starts[0], ends[-1]) == (0, y.size)
    s = ordering.sorted_values
    assert np.array_equal(ordering.run_end_at,
                          np.searchsorted(s, s, side="right"))
    assert np.array_equal(ordering.run_start_at,
                          np.searchsorted(s, s, side="left"))


@st.composite
def census_values(draw):
    """Values of one census (n,) or of a stack (R, n): few distinct or
    rounded values with both signed zeros, constant rows, single units."""
    n = draw(st.integers(1, 40))
    rows = draw(st.sampled_from([None, 1, 3]))
    element = draw(st.sampled_from([
        st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]),
        st.floats(-50, 50).map(lambda v: round(v, 1)),
        st.just(7.5),
    ]))
    shape = (n,) if rows is None else (rows, n)
    size = int(np.prod(shape))
    values = draw(st.lists(element, min_size=size, max_size=size))
    return np.asarray(values, dtype=float).reshape(shape)


def census_levels(n):
    """Levels in (0, 1): the usual ones, every k/n, and their neighbours."""
    exact = np.arange(1, n) / n
    near = np.concatenate((exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)))
    return np.concatenate((LEVELS, near[(near > 0) & (near < 1)], [0.1 * 3]))


def same(a, b) -> bool:
    """Equal values of one type, down to the sign of zero."""
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=120, deadline=None)
@given(census_values(), st.sampled_from([0.6, 1.0, 0.5]))
def test_census_measure_equals_masses_of_one(y, fraction):
    unit, ones = WeightedMeasure(y), WeightedMeasure(y, np.ones_like(y))
    assert unit.unit_masses and not ones.unit_masses
    for alpha in census_levels(y.shape[-1]):
        assert same(quantile(unit, alpha), quantile(ones, alpha))
        for strict in (False, True):
            assert same(poverty_rate(unit, fraction, alpha, strict),
                        poverty_rate(ones, fraction, alpha, strict))
    # one point per row: each unit's own value, and points between them
    for t in np.concatenate((y, y + 0.25, y - 0.25, -y), axis=-1).T:
        point = t if y.ndim == 2 else float(t)
        assert same(cdf_value(unit, point), cdf_value(ones, point))
        assert same(unit.mass_at_most(point), ones.mass_at_most(point))


# Points to rank: both signed zeros, values of census_values' pools, and
# values between or beyond them, infinities included.
RANK_POINTS = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 7.5, 0.25, -60.0, 60.0,
                               -np.inf, np.inf])


@settings(max_examples=150, deadline=None)
@given(census_values(), st.lists(RANK_POINTS, min_size=1, max_size=5),
       st.data())
def test_rank_is_searchsorted_row_by_row(y, extra, data):
    """`_rank` on sorted rows, (n,) or (R, n), is `np.searchsorted` of each
    row, at one point per row and at a row of points: each row's own
    values, then other points. The count of values below (left) or at
    most (right) each point is the oracle."""
    s = np.sort(y, axis=-1)
    rows = s.reshape(-1, s.shape[-1])
    lead = s.shape[:-1]
    own = data.draw(st.integers(0, s.shape[-1] - 1))
    many = np.concatenate((s, np.broadcast_to(extra, lead + (len(extra),))), axis=-1)
    one = np.where(data.draw(st.booleans()), s[..., own],
                   np.full(lead, data.draw(RANK_POINTS)))
    for points in (many, one):
        for side in ("left", "right"):
            got = functionals._rank(s, points, side)
            want = [[(row < q).sum() if side == "left" else (row <= q).sum() for q in p]
                    for row, p in zip(rows, points.reshape(rows.shape[0], -1))]
            assert got.shape == points.shape
            assert np.array_equal(got.reshape(rows.shape[0], -1), want)


@settings(max_examples=150, deadline=None)
@given(measures(signed=True), st.lists(RANK_POINTS, min_size=1, max_size=8))
def test_mass_at_most_of_one_sample_is_a_masked_sum(case, extra):
    """A weighted measure of one sample, at an array of points, gives the
    masses of the values at or below each point (and the mass-weighted
    values strictly below it)."""
    y, w, _ = case
    m = WeightedMeasure(y, w)
    points = np.concatenate((y, np.asarray(extra, dtype=float), POINTS))
    assert np.array_equal(m.mass_at_most(points),
                          [w[y <= p].sum() for p in points])
    assert np.array_equal(m.weighted_sum_below(points),
                          [(w * y)[y < p].sum() for p in points])


# Kinds whose linearization adjusts by a kernel density, which the
# finite-perturbation oracle does not reproduce.
DENSITY_KINDS = {"poverty_rate"}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(set(KINDS) - DENSITY_KINDS)), st.data())
def test_linearized_variable_is_the_influence_of_its_kind(kind, data):
    """Every smooth kind's linearized variable at weights w is the influence
    function of its functional at the measure with masses w: the oracle
    perturbs the mass of one unit, and so moves its (y, x) pair together.
    y is heaped, so that values tie. The oracle's rounding error is a few
    ulp(theta) / eps, about 1e-9 |theta| at eps = 1e-6; the floor of the
    tolerance, 1e-7 |theta|, keeps a kind whose u vanishes (the mean of
    tied values) from failing on rounding alone."""
    n = data.draw(st.integers(2, 25))
    y = 10.0 * np.asarray(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)))
    x = np.asarray(data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                   dtype=float)
    w = np.asarray(data.draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n)))
    spec = ParameterSpec(kind)

    def functional(m):
        idx = m.values.astype(int)
        return spec.evaluate({"y": y[idx], "x": x[idx]}, m.masses)

    units = WeightedMeasure(np.arange(n, dtype=float), w)
    oracle = [influence_oracle(functional, units, k, 1e-6, richardson=True)
              for k in range(n)]
    u = spec.linearized({"y": y, "x": x}, w)
    scale = max(np.max(np.abs(u)), 1e-2 * abs(functional(units)))
    np.testing.assert_allclose(oracle, u, rtol=0, atol=1e-5 * scale)


# The population CSV loader: numpy's one-pass reader must agree with the
# `csv` module and `float`, cell for cell, or leave the file to the `csv`
# reader, which names the refused line.

TEXT_CHARS = st.sampled_from(list('ab1 ,"\r\n\t#\x00\xe9'))
WHITESPACE = st.text(st.sampled_from(list(" \t\x0b\x0c\xa0\u2003\x1c\x1f")), max_size=2)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", ".5", "1.", "2.5e-3", "1E5", "+7", "4.9e-324"]),
)
# numbers only `float` reads, numbers that are not finite, and no numbers
ODD_NUMBERS = st.sampled_from(["1_000", "\uff11\uff12", "\u0663.5", "nan", "-inf",
                               "1e400", "0x1p3", "", "abc", "1e"])


@st.composite
def text_cells(draw):
    """A text cell as written in the file: quoted, with its quotes doubled,
    or bare (a quote that does not open a cell stays a quote)."""
    text = draw(st.text(TEXT_CHARS, max_size=6))
    if draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text.translate({ord(c): None for c in ',\r\n'}).lstrip('"')


@st.composite
def number_cells(draw):
    """A numeric cell as written in the file, mostly a finite number, at
    times padded with whitespace or quoted."""
    cell = draw(ODD_NUMBERS if draw(st.integers(0, 14)) == 0 else NUMBERS)
    if draw(st.integers(0, 3)) == 0:
        cell = draw(WHITESPACE) + cell + draw(WHITESPACE)
    return f'"{cell}"' if draw(st.integers(0, 3)) == 0 else cell


@st.composite
def csv_texts(draw):
    """A population CSV text: a header of id, z, y and maybe stratum in any
    order, rows that are mostly as wide as it, blank lines, and LF, CRLF or
    lone-CR line ends."""
    names = draw(st.permutations(["id", "z", "y", *draw(st.sampled_from([[], ["stratum"]]))]))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        cells = [draw(text_cells() if name in ("id", "stratum") else number_cells())
                 for name in names]
        width = len(names) + draw(st.sampled_from([0] * 18 + [-1, 1]))
        lines.append(",".join((cells + ["7"])[:width]))
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _load_outcome(path):
    """`Population.from_csv(path)` as the message it raises, or as its ids,
    strata and arrays (as int64 views)."""
    try:
        pop = Population.from_csv(path)
    except ValueError as err:
        return str(err)
    arrays = {"z": pop.z, **pop.variables}
    return pop.ids, pop.strata, {name: v.view(np.int64).tolist() for name, v in arrays.items()}


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_population_csv_loads_as_the_csv_module_reads_it(tmp_path_factory, text):
    """`from_csv` gives what a per-cell `csv.DictReader` and `float` reader
    gives, or raises the message the chunked `csv` reader raises."""
    path = tmp_path_factory.getbasetemp() / "population.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome = _load_outcome(path)
    with mock.patch.object(designs, "_one_pass_columns", return_value=None):
        assert outcome == _load_outcome(path)
    if isinstance(outcome, str):
        return
    texts, numbers = _reference_load(path)
    assert outcome[:2] == (texts["id"], texts.get("stratum"))
    assert outcome[2] == {name: numbers[name].view(np.int64).tolist()
                          for name in ("z", "y")}
