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
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from splinesurvey import basis, designs, functionals  # noqa: E402
from splinesurvey import (  # noqa: E402
    CovariateSummary,
    EstimatorSpec,
    Ordering,
    Population,
    ParameterSpec,
    SampleData,
    SampleDraw,
    SplineSpec,
    Srswor,
    StratifiedSrswor,
    WeightedMeasure,
    basis_matrix,
    bspline_weights,
    build_knots,
    cdf_value,
    closed_form_variance,
    gini,
    ht_variance_double_sum,
    influence_oracle,
    knot_groups,
    mean,
    penalty_matrix,
    post_weights,
    poverty_rate,
    quantile,
    ratio,
    srswor_variance,
    total,
)
from splinesurvey.simulate import KINDS  # noqa: E402
from test_designs import _reference_load  # noqa: E402
from test_variance import _dense_double_sum  # noqa: E402


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


# Equal masses: the HT weight N/n of an SRSWOR sample (N >= n) or any
# positive real.
EQUAL_MASS_SCALE = st.one_of(
    st.integers(0, 10**6).map(lambda extra: ("population", extra)),
    st.floats(min_value=0.0, exclude_min=True, max_value=1e300).map(lambda c: ("real", c)),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 2000), scale=EQUAL_MASS_SCALE, rows=st.sampled_from([0, 2, 3]),
       tied=st.booleans(), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 1999),
       other=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(n=800, scale=("population", 19378 - 800), rows=0, tied=False, seed=1, k=399,
         other=0.25)
@example(n=500, scale=("population", 19378 - 500), rows=2, tied=True, seed=2, k=374,
         other=0.5)
# the unequal first row's top share rounds below 1 - 2**-53, the last level
# before 1: its top run must still cross
@example(n=114, scale=("population", 0), rows=2, tied=False, seed=0, k=1,
         other=1 - 2**-53)
def test_equal_masses_give_the_census_quantile(n, scale, rows, tied, seed, k, other):
    """A row of equal masses, at any scale, has the census quantile of its
    values bit for bit, at levels with n * alpha whole and at others; a
    row of unequal masses in the same stack has the quantile it has alone."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows == 0 else (rows, n)
    y = (rng.choice([-0.0, 0.0, 1.0, -2.5, 3.0], shape) if tied
         else np.round(rng.normal(0.0, 20.0, shape), 1))
    kind, setting = scale
    w = np.full(shape, (n + setting) / n if kind == "population" else setting)
    equal = np.ones(rows or 1, dtype=bool)
    if rows:
        equal = rng.random(rows) < 0.5
        w[~equal] *= rng.uniform(0.5, 3.0, (rows - int(equal.sum()), n))
    measure = WeightedMeasure(y, w)
    for alpha in ((k % (n - 1) + 1) / n, other, 0.25, 0.5, 0.75):
        got = np.atleast_1d(quantile(measure, alpha))
        for r, (row, masses) in enumerate(zip(y.reshape(-1, n), w.reshape(-1, n))):
            alone = WeightedMeasure(row) if equal[r] else WeightedMeasure(row, masses)
            assert same(float(got[r]), quantile(alone, alpha))


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


# A stratified SRSWOR draw, as (N_h, n_h) per stratum (n_h is clipped to
# N_h), a stack size, a seed, the stratum whose units are then taken out
# of every sample (none when out of range) and the residuals' offset in
# standard deviations.
STRATIFIED_DRAWS = st.tuples(
    st.lists(st.tuples(st.integers(2, 12), st.integers(1, 12)), min_size=2, max_size=5),
    st.integers(1, 4), st.integers(0, 2**32 - 1), st.none() | st.integers(0, 4),
    st.floats(-100.0, 100.0))


@settings(max_examples=200, deadline=None)
@given(STRATIFIED_DRAWS)
@example(([(5, 2), (6, 3), (4, 4)], 3, 7, 1, 10.0))  # "h1" left unsampled
@example(([(5, 2), (6, 3), (9, 1)], 2, 7, None, -100.0))  # one unit of "h2"
@example(([(5, 2), (6, 3), (4, 4)], 2, 11, None, 100.0))
def test_variance_routes_on_stratified_draws(case):
    """Both variance routes over one draw's cells: the double sum is the
    n x n double sum (evaluated in long double), and the closed form is
    the sum of the strata's SRSWOR closed forms, or, when a stratum of a
    sample holds fewer than two units (none included), a refusal naming
    the first such stratum.

    The double sum's rounding error grows like eps (tbar / sd)^2, so its
    bound is 64 eps times the sum of t^2. The closed form divides e by pi,
    which moves each t = e / pi by up to eps |t|, and so the centred sum of
    squares of stratum h by up to about 2 eps sum |t| |t - tbar|: at an
    offset of 100 sd and a stratum of two close residuals that exceeds
    1e-12 relative, so the bound adds 8 eps times that sum, in units of e,
    scaled as the stratum's closed form scales it. Measured on 4000 random
    stacks, the largest error was 0.08 of the bound."""
    cells, R, seed, drop, offset = case
    sizes = [N for N, _ in cells]
    allocations = [min(n, N) for N, n in cells]
    labels = [f"h{j}" for j in range(len(cells))]
    strata = tuple(np.repeat(labels, sizes).tolist())
    N = len(strata)
    pop = Population(ids=tuple(map(str, range(N))), z=np.arange(1.0, N + 1),
                     variables={}, strata=strata)
    design = StratifiedSrswor(dict(zip(labels, allocations)))
    full = designs.draw(pop, design, [seed + r for r in range(R)])
    codes = pop.stratum_codes.codes
    keep = codes[full.indices] != drop
    indices = full.indices[keep].reshape(R, -1)
    d = SampleDraw(pop, design, indices, pi=full.pi[keep].reshape(R, -1))
    e = offset + np.random.default_rng(seed).standard_normal(indices.shape)

    double = ht_variance_double_sum(d, e).value
    for r in range(R):
        idx, pi = indices[r], d.pi[r].astype(np.longdouble)
        c = np.array([n * (n - 1) / (Nh * (Nh - 1)) for Nh, n in zip(sizes, allocations)],
                     dtype=np.longdouble)
        same = codes[idx][:, None] == codes[idx]
        pkl = np.where(same, c[codes[idx]][:, None], np.outer(pi, pi))
        np.fill_diagonal(pkl, pi)
        want = _dense_double_sum(pi, pkl, e[r].astype(np.longdouble))
        t = e[r] / d.pi[r]
        assert abs(double[r] - want) <= 64 * np.finfo(float).eps * float(t @ t)

    counts = [0 if j == drop else n for j, n in enumerate(allocations)]
    short = [h for h, n in zip(labels, counts) if n < 2]
    if d.size < 2 or short:
        message = (r"^variance needs n >= 2$" if d.size < 2 else
                   f"^variance needs n_h >= 2 in stratum '{short[0]}'$")
        with pytest.raises(ValueError, match=message):
            closed_form_variance(d, e)
        return
    closed = closed_form_variance(d, e).value
    for r in range(R):
        parts = [e[r][codes[indices[r]] == j] for j in range(len(cells))]
        want = sum(srswor_variance(Nh, nh, e_h).value
                   for e_h, Nh, nh in zip(parts, sizes, allocations))
        floor = 8 * np.finfo(float).eps * sum(
            Nh * (Nh - nh) / (nh * (nh - 1)) * (np.abs(e_h) @ np.abs(e_h - e_h.mean()))
            for e_h, Nh, nh in zip(parts, sizes, allocations))
        assert abs(closed[r] - want) <= 1e-12 * abs(want) + floor


@st.composite
def covariate_populations(draw):
    """A population covariate of 1 to 700 units, so from under one moment
    block to past five: few tied values, values heaped onto round numbers,
    or spread values."""
    N = draw(st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tied", "heaped", "spread"]))
    if kind == "tied":
        return rng.integers(0, draw(st.integers(1, 6)), N).astype(float)
    z = rng.lognormal(3.0, 0.6, N)
    return np.round(z, -1) if kind == "heaped" else z


def _interval_counts(bp: np.ndarray, z01: np.ndarray) -> np.ndarray:
    """Units in each [t_j, t_{j+1}), the last interval closed, by comparison."""
    above = z01 >= bp[:-1, None]
    below = np.vstack((z01 < bp[1:-1, None], np.ones((1, z01.size), dtype=bool)))
    return (above & below).sum(axis=1)


@settings(max_examples=150, deadline=None)
@given(covariate_populations(), st.integers(1, 4), st.data())
def test_basis_totals_sum_the_basis_over_the_population(z, m, data):
    """`CovariateSummary.basis_totals` on knots that `knot_groups` places
    on an (R, n) sample stack, collapsed rows included, and on the
    population: order 1 gives each interval's unit count exactly, every
    order the basis summed over the units to 1e-12 relative, and each row
    of a stacked call the one-sample call on that row's knots.

    A total below one unit's mass is held to 1e-12 absolute: it comes from
    polynomial pieces whose rounding is relative to the interval's whole
    mass (three units at 0, 0.99 and 1 give a cubic total of 2.7e-4 off by
    2e-15, 8e-12 relative). The rows agree bit for bit at every order: the
    powers are products, which do not depend on the width of the stack's
    widest interval, where numpy's pow would (its vector and scalar loops
    round apart)."""
    if np.ptp(z) == 0:
        with pytest.raises(ValueError, match="degenerate covariate"):
            CovariateSummary(z)
        return
    cs = CovariateSummary(z)
    N = z.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    R, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, N))
    sample = cs.z01[np.stack([rng.choice(N, n, replace=False) for _ in range(R)])]
    support = min(basis._distinct_count(np.sort(sample, axis=-1)).min(), cs.distinct_count)
    K = data.draw(st.integers(0, min(5, support - 1)))
    groups = [kv for _, kv in knot_groups(SplineSpec(m, K), sample)]
    groups.append(build_knots(SplineSpec(m, K, "population_quantile"), cs))
    for knots in groups:
        totals = cs.basis_totals(knots, m)
        bp = knots.breakpoints()
        assert totals.shape == bp.shape[:-1] + (knots.num_interior + m,)
        values = basis_matrix(knots, m, np.broadcast_to(cs.z01, bp.shape[:-1] + (N,)))
        direct = np.ascontiguousarray(values.swapaxes(-1, -2)).sum(axis=-1)
        assert np.max(np.abs(totals - direct) / np.maximum(np.abs(direct), 1.0)) <= 1e-12
        rows = totals.reshape(-1, totals.shape[-1])
        for r, row_bp in enumerate(bp.reshape(-1, bp.shape[-1])):
            if m == 1:
                assert np.array_equal(rows[r], _interval_counts(row_bp, cs.z01))
            if bp.ndim == 2:
                assert rows[r].tobytes() == cs.basis_totals(knots.row(r), m).tobytes()


# A calibration case: population size, spline order, interior knots, the
# number of strata (one: SRSWOR), units sampled per stratum, stack size
# and seed. Strata of 40 units or more and 8 sampled units per interval
# keep every knot interval of every sample nonempty.
CALIBRATIONS = st.tuples(st.integers(120, 400), st.integers(1, 4), st.integers(0, 3),
                         st.integers(1, 3), st.integers(8, 14), st.integers(1, 4),
                         st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(CALIBRATIONS)
def test_spline_weights_meet_their_calibration_totals(case):
    """Unpenalized spline weights (POST at order 1) calibrate each sample of
    a stack on the population basis totals: every calibration residual is
    at most 1e-10, and, as the basis sums to one, the weights sum to N to
    1e-10 relative."""
    N, m, K, H, per_stratum, R, seed = case
    rng = np.random.default_rng(seed)
    labels = [f"h{h}" for h in range(H)]
    pop = Population(ids=tuple(map(str, range(N))), z=rng.lognormal(3.0, 0.6, N),
                     variables={}, strata=tuple(labels[k % H] for k in range(N)))
    n = per_stratum * (K + 1)
    design = Srswor(n) if H == 1 else StratifiedSrswor(dict.fromkeys(labels, n // H + 1))
    d = designs.draw(pop, design, [seed + r for r in range(R)])
    ws = (post_weights(d, K) if m == 1 else
          bspline_weights(d, SplineSpec(m, K, "sample_quantile", lam=0.0)))
    residuals = np.asarray(ws.diagnostics["calibration_residuals"])
    assert residuals.shape == (R, K + m)
    assert np.abs(residuals).max() <= 1e-10
    np.testing.assert_allclose(ws.weights.sum(axis=-1), N, rtol=1e-10, atol=0)


# A penalized calibration case: population size, spline order, interior
# knots, lambda, the number of strata (one: SRSWOR), units sampled per knot
# interval and stratum, stack size and seed.
PENALIZED_CALIBRATIONS = st.tuples(
    st.integers(120, 400), st.integers(2, 4), st.integers(1, 4),
    st.sampled_from([0.1, 1.0, 10.0]), st.integers(1, 3), st.integers(8, 14),
    st.integers(1, 4), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(PENALIZED_CALIBRATIONS)
def test_penalized_weights_miss_their_totals_by_the_penalty(case):
    """At lambda > 0 the weights w = d - (B_s * d) A^-1 (B_s' d - T) miss the
    population basis totals T by exactly the penalty's share:
    B_s' w - T = lambda D A^-1 (B_s' d - T), with A the system's normal
    matrix B_s' diag(d) B_s + lambda D and D its penalty matrix. Checked on
    each sample of a stack to 1e-10 relative to the largest total."""
    N, m, K, lam, H, per_stratum, R, seed = case
    rng = np.random.default_rng(seed)
    labels = [f"h{h}" for h in range(H)]
    pop = Population(ids=tuple(map(str, range(N))), z=rng.lognormal(3.0, 0.6, N),
                     variables={}, strata=tuple(labels[k % H] for k in range(N)))
    n = per_stratum * (K + 1)
    design = Srswor(n) if H == 1 else StratifiedSrswor(dict.fromkeys(labels, n // H + 1))
    d = designs.draw(pop, design, [seed + r for r in range(R)])
    spec = SplineSpec(m, K, "sample_quantile", lam=lam)
    system = bspline_weights(d, spec).system
    fit = system._only
    B, T, dw = fit.basis_sample, fit.basis_pop_total, 1.0 / d.pi
    w = system.weight_vector()
    lhs = np.einsum("rnq,rn->rq", B, w) - T
    gap = np.einsum("rnq,rn->rq", B, dw) - T
    D = penalty_matrix(spec, fit.knots)
    rhs = lam * np.einsum("rqp,rp->rq", D, np.linalg.solve(fit.normal_matrix, gap[..., None])[..., 0])
    assert lhs.shape == (R, K + m)
    scale = np.abs(T).max(axis=-1, keepdims=True)
    assert (np.abs(lhs - rhs) <= 1e-10 * scale).all()
    assert (np.abs(lhs) > 1e-6 * scale).any()  # the penalty moves the totals


# Weights on stratified samples with n_h = 1 strata: the family, the spline
# order (BS reads it), interior knots, a stratum of 120 to 400 units holding
# 8 to 14 sampled units per knot interval, one to three further strata of 1
# to 30 units with one sampled unit each, stack size and seed.
SINGLETON_CALIBRATIONS = st.tuples(
    st.sampled_from(["HT", "GREG", "POST", "BS"]), st.integers(2, 4), st.integers(0, 3),
    st.integers(120, 400), st.integers(8, 14),
    st.lists(st.integers(1, 30), min_size=1, max_size=3),
    st.integers(1, 4), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(SINGLETON_CALIBRATIONS)
@example(("POST", 2, 2, 120, 8, [1, 1, 1], 3, 0))  # three strata of one unit, each a census
def test_weights_on_strata_of_one_sampled_unit(case):
    """HT weights give each stratum its size N_h, and the unpenalized GREG,
    POST and BS weights meet their population basis totals to 1e-10, on
    stacks whose samples hold strata of one sampled unit. A spline family's
    diagnostics hold one entry per sample of the stack; HT has none."""
    family, m, K, N0, per_interval, singletons, R, seed = case
    sizes = [N0, *singletons]
    labels = [f"h{h}" for h in range(len(sizes))]
    N = sum(sizes)
    pop = Population(ids=tuple(map(str, range(N))),
                     z=np.random.default_rng(seed).lognormal(3.0, 0.6, N), variables={},
                     strata=tuple(np.repeat(labels, sizes).tolist()))
    allocations = [per_interval * (K + 1)] + [1] * len(singletons)
    d = designs.draw(pop, StratifiedSrswor(dict(zip(labels, allocations))),
                     [seed + r for r in range(R)])
    ws = EstimatorSpec(family, order=m, knots=K).build_weights(d)
    np.testing.assert_allclose(ws.weights.sum(axis=-1), N, rtol=1e-10, atol=0)
    if family == "HT":
        assert ws.diagnostics == {}
        codes = pop.stratum_codes.codes[d.indices]
        for h, Nh in enumerate(sizes):
            np.testing.assert_allclose(np.where(codes == h, ws.weights, 0.0).sum(axis=-1),
                                       Nh, rtol=1e-10, atol=0)
        return
    diagnostics = ws.diagnostics
    assert all(len(entry) == R for entry in diagnostics.values())
    residuals = np.asarray(diagnostics["calibration_residuals"])
    assert residuals.shape == (R, ws.system.spec.interior_knots + ws.system.spec.order)
    assert np.abs(residuals).max() <= 1e-10
    assert diagnostics["min_weight"] == ws.weights.min(axis=-1).tolist()


# A constant study variable on a 400-unit population in three strata: every
# family (BS at orders 2-4, unpenalized or at lambda 1), SRSWOR and
# stratified SRSWOR, stacks of one to three samples, both variance methods.
CONSTANT_Z = np.random.default_rng(21).lognormal(7.0, 0.5, 400)
CONSTANT_ROSTER = st.sampled_from([EstimatorSpec("HT"), EstimatorSpec("GREG"),
                                   EstimatorSpec("POST", knots=2)]) | st.builds(
    lambda m, lam: EstimatorSpec("BS", order=m, knots=2, lam=lam),
    st.integers(2, 4), st.sampled_from([0.0, 1.0]))
CONSTANT_DESIGNS = st.sampled_from([Srswor(60), StratifiedSrswor({"h0": 20, "h1": 15,
                                                                  "h2": 25})])


@settings(max_examples=80, deadline=None)
@given(CONSTANT_ROSTER, CONSTANT_DESIGNS,
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
       st.sampled_from(["closed", "double_sum"]),
       st.floats(1e-3, 1e6) | st.floats(-1e6, -1e-3))
def test_constant_study_variable(estimator, design, seeds, method, c):
    """Every weight system is calibrated on N, so with y = c the mean is c
    and the total cN, and their variances vanish to rounding. A constant
    sample has no spread for the poverty rate's kernel bandwidth."""
    N = CONSTANT_Z.size
    pop = Population(ids=tuple(map(str, range(N))), z=CONSTANT_Z,
                     variables={"y": np.full(N, c)},
                     strata=tuple(f"h{k % 3}" for k in range(N)))
    sample = designs.draw(pop, design, seeds)
    ws = estimator.build_weights(sample)
    data = SampleData(sample, (ParameterSpec("mean"), ParameterSpec("total")))
    for parameter, want in ((ParameterSpec("mean"), c), (ParameterSpec("total"), c * N)):
        est = data.estimate(ws, parameter, method, 0.95)
        assert np.abs(est.point - want).max() <= 1e-14 * abs(want), parameter.label
        assert (est.variance.value <= 1e-12 * est.point ** 2).all(), parameter.label
    with pytest.raises(ValueError, match="degenerate sample for bandwidth selection"):
        SampleData(sample, (ParameterSpec("poverty_rate"),))
