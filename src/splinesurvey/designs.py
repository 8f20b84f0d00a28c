"""Finite populations and probability sampling designs (SRSWOR, stratified)."""

from __future__ import annotations

import csv
import io
import math
import operator
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .basis import CovariateSummary, SortedReference

TEXT_COLUMNS = ("id", "stratum")
# ASCII file, group, record and unit separators: numpy strips them around a
# number as whitespace, while `float` refuses them.
_ASCII_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class PositionalIds(Sequence):
    """The ids "0", "1", ..., str(n - 1) of n units, as a read-only sequence
    that formats each id when it is read instead of holding n strings.

    It reads as the tuple `tuple(map(str, range(n)))` does: by int or numpy
    integer index, negative ones included (IndexError past either end), by
    slice (a tuple), by iteration, and it compares equal to that tuple.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = operator.index(n)
        if self._n < 0:
            raise ValueError(f"unit count must be >= 0, got {n!r}")

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(str, range(self._n)[index]))
        return str(range(self._n)[operator.index(index)])

    def __iter__(self):
        return map(str, range(self._n))

    def __eq__(self, other):
        if isinstance(other, PositionalIds):
            return self._n == other._n
        if isinstance(other, tuple):
            return len(other) == self._n and tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PositionalIds({self._n})"


@dataclass(frozen=True, eq=False)
class Population:
    """Immutable finite universe: ids, auxiliary covariate z, study variables.

    `ids` may be any sequence of strings, one per unit: a tuple, or the
    `PositionalIds` "0".."N-1" of a synthetic population, which holds no
    string per unit. `strata`, when given, holds one stratum label per
    unit; the populations this package builds (`from_csv`,
    `synth_population`) repeat one string object per stratum.

    `z` and each study variable are kept as read-only views of the
    caller's arrays, not copies. The Population cannot write into them, but
    the caller still can through the original arrays; doing so after
    construction is unsupported, because the cached `covariate_summary`
    would no longer describe `z`.
    """

    ids: Sequence[str]
    z: np.ndarray
    variables: Mapping[str, np.ndarray]
    strata: tuple | None = None

    def __post_init__(self):
        z = _read_only(self.z)
        object.__setattr__(self, "z", z)
        if z.size < 1:
            raise ValueError("population must contain at least one unit")
        if len(self.ids) != z.size:
            raise ValueError("ids and z length mismatch")
        if not np.all(np.isfinite(z)):
            raise ValueError("auxiliary covariate must be finite everywhere")
        clean = {}
        for name, vals in self.variables.items():
            v = _read_only(vals)
            if v.size != z.size:
                raise ValueError(f"study variable {name!r} length mismatch")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"study variable {name!r} must be finite everywhere")
            clean[name] = v
        object.__setattr__(self, "variables", clean)
        if self.strata is not None and len(self.strata) != z.size:
            raise ValueError("strata length mismatch")

    @property
    def size(self) -> int:
        return self.z.size

    @cached_property
    def covariate_summary(self) -> CovariateSummary:
        """Scaled, sorted covariate with block power sums, built on first use."""
        return CovariateSummary(self.z)

    @cached_property
    def stratum_codes(self) -> StratumCodes:
        """Stratum labels as codes, in order of first appearance; built on first use."""
        if self.strata is None:
            raise ValueError("population has no stratum labels")
        code = {h: j for j, h in enumerate(dict.fromkeys(self.strata))}
        return StratumCodes(tuple(code), np.fromiter(
            map(code.__getitem__, self.strata), dtype=np.intp, count=self.size))

    @cached_property
    def one_stratum(self) -> StratumCodes:
        """The whole population as a single stratum, built on first use."""
        return StratumCodes((None,), np.zeros(self.size, dtype=np.intp))

    def stratum_indices(self) -> dict:
        """Map stratum label -> read-only array of its unit indices, ascending."""
        codes = self.stratum_codes
        return dict(zip(codes.labels, codes.members))

    @classmethod
    def from_csv(cls, path) -> "Population":
        """Load a population from a CSV file with columns id, [stratum], z
        and the study variables, in any order.

        The file is read as UTF-8 by the `csv` module's default dialect, so
        a quoted cell may hold commas, quotes or line breaks; a leading
        byte-order mark, which Excel's "CSV UTF-8" export writes, is
        dropped. The first row is the header, and its column names must be
        unique. Blank lines are skipped; every other row must have as many
        cells as the header. `id` and `stratum` are kept as strings: the
        ids as a tuple, and the stratum labels as one string object per
        distinct label, repeated for each of its units, so the strata cost
        no string per row. Every other cell must be a finite number as
        Python's `float` reads it (so not `nan`, `inf` or `1e400`). The
        first row of the wrong width, or holding a cell that is not a
        finite number, raises a ValueError naming its file line, and for a
        cell the row's first such cell from left to right.

        The rows are parsed in one pass by numpy's C reader (`np.loadtxt`),
        which converts a number with the same correctly rounded routine as
        `float`. When it refuses a row or a cell, or reads a number that is
        not finite, the `csv` module reads the file again, one row at a
        time: that reader names the refused line, and it accepts the
        numbers only `float` reads, such as `1_000` or non-ASCII digits.
        """
        columns = _one_pass_columns(path)
        if columns is None:
            columns = _row_columns(path)
        return cls(
            ids=columns.pop("id"),
            z=columns.pop("z"),
            strata=columns.pop("stratum", None),
            variables=columns,
        )


def _csv_rows(reader):
    """The rows of a population CSV's `csv.reader`. A row the `csv` module
    refuses, such as one holding a cell past its field size limit, raises
    a ValueError naming the file line the reader reached."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise ValueError(f"population CSV line {reader.line_num}: {err}") from None
        yield row


def _csv_header(rows) -> list:
    """The header row of a population CSV's `rows` (`_csv_rows`), checked
    for an `id` and a `z` column and for repeated names."""
    header = next(rows, None)
    if header is None or "id" not in header:
        raise ValueError("population CSV needs a header with an 'id' column")
    if "z" not in header:
        raise ValueError("population CSV needs a 'z' column")
    for name, count in Counter(header).items():
        if count > 1:
            raise ValueError(f"population CSV header names column {name!r} "
                             f"{count} times")
    return header


def _one_pass_columns(path) -> dict | None:
    """The columns of the population CSV at `path`, its rows parsed by one
    `np.loadtxt` call; None when that call refuses the file or a numeric
    column is not all finite. Around a number numpy also strips the ASCII
    separators that `float` refuses, so a file holding one is left to the
    `csv` reader as well."""
    with open(path, "rb") as fh:
        data = fh.read()
    if any(separator in data for separator in _ASCII_SEPARATORS):
        return None
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
        header = _csv_header(_csv_rows(csv.reader(fh)))
        dtype = np.dtype([(f"c{j}", object if name in TEXT_COLUMNS else np.float64)
                          for j, name in enumerate(header)])
        try:
            with warnings.catch_warnings():
                # a header-only file: the population refuses zero units
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1)
        except ValueError:
            return None
    columns = {}
    for name, field in zip(header, dtype.names):
        if name == "stratum":
            columns[name] = _one_object_per_label(table[field].tolist())
        elif name in TEXT_COLUMNS:
            columns[name] = tuple(table[field].tolist())
        else:
            columns[name] = table[field].copy()
            if not np.isfinite(columns[name]).all():
                return None
    return columns


def _row_columns(path) -> dict:
    """The columns of the population CSV at `path` read by the `csv` module
    one row at a time, each numeric cell converted by `float`. The first
    refused row is named by its first file line: a row of the wrong width,
    or its first cell, from left to right, that `float` refuses or reads as
    a number that is not finite (`nan`, `inf` or an overflow such as
    `1e400`). The numbers go to one float array per column, and each
    stratum label is kept as the first string object read for it, so the
    strata hold no string per row."""
    from array import array  # here, so that importing the package loads no more

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader)
        header = _csv_header(rows)
        columns = [[] if name in TEXT_COLUMNS else array("d") for name in header]
        labels = {}
        line = reader.line_num + 1
        for row in rows:
            if row and len(row) != len(header):
                raise ValueError(f"population CSV line {line}: {len(row)} cells, "
                                 f"but the header has {len(header)}")
            for name, column, cell in zip(header, columns, row):
                if name in TEXT_COLUMNS:
                    column.append(labels.setdefault(cell, cell) if name == "stratum" else cell)
                    continue
                try:
                    value = float(cell)
                except ValueError as err:
                    raise ValueError(f"population CSV line {line}, column {name!r}: "
                                     f"{err}") from None
                if not math.isfinite(value):
                    raise ValueError(f"population CSV line {line}, column {name!r}: "
                                     f"not a finite number: {cell!r}")
                column.append(value)
            line = reader.line_num + 1
    return {name: tuple(column) if name in TEXT_COLUMNS else np.frombuffer(column)
            for name, column in zip(header, columns)}


def _one_object_per_label(cells) -> tuple:
    """`cells` as a tuple in which equal labels are one string object, the
    first seen."""
    labels = {}
    return tuple(map(labels.setdefault, cells, cells))


def _read_only(values) -> np.ndarray:
    """A read-only float view of `values` (no copy when already float)."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


class StratumCodes:
    """A partition of a population into strata, as integer codes.

    `labels` lists the stratum labels (`None` for the one-stratum
    partition); a stratum's code is its position there. `codes` holds every
    unit's code, `sizes` the stratum sizes N_h, and `members` each stratum's
    unit indices in ascending order. The arrays are read-only, so every
    caller can share them.
    """

    def __init__(self, labels: tuple, codes: np.ndarray):
        self.labels = labels
        self.codes = codes
        self.sizes = np.bincount(codes, minlength=len(labels))
        order = np.argsort(codes, kind="stable")
        for a in (self.codes, self.sizes, order):
            a.flags.writeable = False
        self.members = tuple(np.split(order, np.cumsum(self.sizes)[:-1]))

    def allocation(self, allocations: Mapping) -> list:
        """The sample size n_h of each stratum, in code order.

        Every stratum needs an allocation with 1 <= n_h <= N_h, and an
        allocation to a stratum the population does not have is refused.
        """
        for h in self.labels:
            if h not in allocations:
                raise ValueError(f"missing stratum allocation for {h!r}")
        for h in allocations:
            if h not in self.labels:
                raise ValueError(f"allocation for stratum {h!r}, which the population lacks")
        out = [allocations[h] for h in self.labels]
        for h, nh, Nh in zip(self.labels, out, self.sizes.tolist()):
            if not 1 <= nh <= Nh:
                raise ValueError(f"allocation {nh} out of range for stratum {h!r}")
        return out


# Srswor and StratifiedSrswor state their strata once, in `strata(population)`: the
# partition and each stratum's sample size; `closed_form` names their closed form
# (None for Poisson sampling, which has none).

@dataclass(frozen=True)
class Srswor:
    """Simple random sampling without replacement, fixed size n: stratified
    SRSWOR with the whole population as its one stratum."""

    n: int
    closed_form = "srswor_closed"

    def __post_init__(self):
        _check_whole("sample size", self.n)

    def strata(self, population: Population) -> tuple[StratumCodes, list]:
        N = population.size
        if not 1 <= self.n <= N:
            raise ValueError(f"sample size {self.n} out of range for N={N}")
        return population.one_stratum, [self.n]


@dataclass(frozen=True)
class StratifiedSrswor:
    """Independent SRSWOR inside each stratum; allocations keyed by label,
    kept as a read-only copy."""

    allocations: Mapping
    closed_form = "stsi_closed"

    def __post_init__(self):
        if not isinstance(self.allocations, Mapping):
            raise ValueError(f"allocations must map stratum labels to sample sizes: "
                             f"{self.allocations!r}")
        allocations = MappingProxyType(dict(self.allocations))
        for h, nh in allocations.items():
            _check_whole(f"allocation of stratum {h!r}", nh)
        object.__setattr__(self, "allocations", allocations)

    def strata(self, population: Population) -> tuple[StratumCodes, list]:
        codes = population.stratum_codes
        return codes, codes.allocation(self.allocations)


def _check_whole(what: str, size) -> None:
    """Refuse a design size that is not an int or a numpy integer (or is a bool).
    Whether it fits the population is checked at draw time."""
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ValueError(f"{what} is not a whole number: {size!r}")


@dataclass(frozen=True, eq=False)
class GivenProbabilities:
    """Poisson sampling: unit k enters independently with probability pi_k,
    so pi_kl = pi_k * pi_l. The probabilities are checked once, here, and
    kept as a read-only copy."""

    pi: np.ndarray
    closed_form = None

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float)
        _check_probabilities(pi)
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


def _check_probabilities(pi: np.ndarray) -> None:
    """Refuse probabilities outside (0,1], NaN included."""
    if not np.all((pi > 0) & (pi <= 1)):
        raise ValueError("inclusion probabilities must lie in (0,1]")


class SampleDraw:
    """A realized sample, or a stack of samples, with inclusion-probability
    accessors.

    `indices` holds the sampled units: shape (n,) for one sample, (R, n)
    for a stack of R samples of one design, one per row. `pi` has the same
    shape, and so do the design weights d_k = 1/pi_k (`design_weights`),
    which every weight family and every `SampleData` reads, and so do the
    sampled covariates on the population's [0,1] scale (`scaled_z`, with
    its one row-wise sort `sorted_scaled_z`), which every spline system
    reads. Either the caller gives `pi_full` over the whole universe, which
    is checked whole, or `pi` at the sampled units (as `draw` does), which
    is checked there; `pi_full` is then built from the design on first use,
    so a draw does O(n) work past its random choice. The variances' cells
    (`pair_cells`: the sampled units grouped by sample and joint group)
    depend on the draw alone, so they too are built on first use, once per
    draw, and every variance of the draw, closed form or double sum, shares
    them.
    """

    def __init__(self, population: Population, design, indices,
                 pi_full=None, *, pi=None):
        self.population = population
        self.design = design
        self.indices = np.asarray(indices, dtype=int)
        if self.indices.size == 0:
            raise ValueError("empty sample: the draw holds no sampled unit")
        if pi is None:
            pi_full = np.asarray(pi_full, dtype=float)
            _check_probabilities(pi_full)
            self.__dict__["pi_full"] = pi_full
            pi = pi_full[self.indices]
        else:
            pi = np.asarray(pi, dtype=float)
            if pi.shape != self.indices.shape:
                raise ValueError("indices and pi shape mismatch")
            _check_probabilities(pi)
        self.pi = pi

    @property
    def size(self) -> int:
        """Sample size n (of each sample of a stack)."""
        return self.indices.shape[-1]

    @property
    def replicates(self) -> tuple:
        """Leading shape: () for one sample, (R,) for a stack."""
        return self.indices.shape[:-1]

    @cached_property
    def design_weights(self) -> np.ndarray:
        """The design weights 1/pi_k of the sampled units, read-only and
        built once per draw: the HT weights, and the base every spline
        system calibrates."""
        d = 1.0 / self.pi
        d.flags.writeable = False
        return d

    @cached_property
    def scaled_z(self) -> np.ndarray:
        """The sampled covariates on the population's [0,1] scale
        (`covariate_summary.scale`), read-only and built once per draw:
        every spline system on the draw evaluates its basis there."""
        z = self.population.covariate_summary.scale.apply(self.sample_z)
        z.flags.writeable = False
        return z

    @cached_property
    def sorted_scaled_z(self) -> SortedReference:
        """`scaled_z` sorted row by row, with each row's distinct count,
        built once per draw: the reference of every sample-quantile knot
        rule on the draw, so POST and BS read one sort."""
        return SortedReference(self.scaled_z)

    @cached_property
    def strata(self) -> tuple[StratumCodes, list]:
        """The design's strata on the population (`design.strata`)."""
        return self.design.strata(self.population)

    @cached_property
    def pi_full(self) -> np.ndarray:
        """First-order probabilities over the whole universe, built on first
        use: n_h / N_h over each stratum the design states, or the given
        probabilities of a Poisson design."""
        if isinstance(self.design, GivenProbabilities):
            return self.design.pi
        strata, sizes = self.strata
        return _stratum_rates(strata, sizes)[strata.codes]

    def sample_values(self, name: str) -> np.ndarray:
        return self.population.variables[name][self.indices]

    @property
    def sample_z(self) -> np.ndarray:
        return self.population.z[self.indices]

    def joint_groups(self, indices=None) -> tuple[np.ndarray, np.ndarray]:
        """The design's second-order inclusion probabilities, by group.

        Returns `(group, within)`: the group code of each unit in `indices`
        (default: the sample, in its shape), and per code the pi_kl of two
        distinct units of that group. Units in different groups are selected
        independently, so pi_kl = pi_k pi_l between groups, and all units
        of a group share one pi_k. Each stratum the design states is a
        group (SRSWOR states one), with pi_kl = 0 where n_h = 1; with
        `GivenProbabilities` every unit is a group of its own.
        """
        idx = self.indices if indices is None else np.asarray(indices, dtype=int)
        if isinstance(self.design, GivenProbabilities):
            n = idx.shape[-1]
            return np.broadcast_to(np.arange(n), idx.shape), np.zeros(n)
        strata, sizes = self.strata
        within = [_srswor_joint(nh, Nh) for nh, Nh in zip(sizes, strata.sizes.tolist())]
        return strata.codes[idx], np.array(within)

    @cached_property
    def pair_cells(self) -> PairCells:
        """The variances' cells, built once per draw from `joint_groups` and
        `pi`: one cell per (sample, group) of a stack, so every variance of
        the draw, closed form and double sum, reads the same read-only
        arrays.

        Refuses inclusion probabilities that differ inside a group, and a
        zero pi_kl in a group holding two sampled units."""
        pi = self.pi.reshape(-1)
        group, within = self.joint_groups()
        G = within.size
        rows = group.reshape(-1, self.size)
        code = (rows + G * np.arange(rows.shape[0])[:, None]).reshape(-1)
        cells = G * rows.shape[0]
        within = np.tile(within, rows.shape[0])
        p = np.ones(cells)
        p[code] = pi
        if (p[code] != pi).any():
            raise ValueError("inclusion probabilities differ inside a joint group")
        count = np.bincount(code, minlength=cells)
        pairs = count > 1
        if (within[pairs] <= 0).any():
            raise ValueError("zero joint inclusion probability encountered")
        a = np.zeros(cells)
        c = within[pairs]
        a[pairs] = (c - p[pairs] * p[pairs]) / c
        d = 1.0 - p
        occupied = count > 0
        # units already in cell order (every SRSWOR stack and Poisson draw)
        # need no gather
        if (code[1:] >= code[:-1]).all():
            order = slice(None)
        else:
            order = np.argsort(code, kind="stable")
            order.flags.writeable = False
        starts = np.cumsum(count[occupied]) - count[occupied]
        arrays = (starts, count, occupied, d - a, d + (count - 1) * a)
        for x in arrays:
            x.flags.writeable = False
        return PairCells(order, *arrays)

    def joint_matrix(self, indices=None) -> np.ndarray:
        """Matrix of pi_kl over the given unit indices (default: the sample,
        which must be one sample, not a stack)."""
        idx = self.indices if indices is None else np.asarray(indices, dtype=int)
        pi = self.pi_full[idx]
        group, within = self.joint_groups(idx)
        M = np.where(group[:, None] == group, within[group][:, None],
                     np.outer(pi, pi))
        np.fill_diagonal(M, pi)
        return M


@dataclass(frozen=True, eq=False)
class PairCells:
    """A draw's cells for its variances (`SampleDraw.pair_cells`), one per
    (sample, group), sample-major. With p the cell's first-order
    probability, d = 1 - p and a = (pi_kl - p^2) / pi_kl its pair
    coefficient (0 in a cell of fewer than two units): `order` is the
    stable sort of the sampled units (flattened over a stack) by cell, or
    the basic index `slice(None)` when they are already in cell order,
    `starts` where each nonempty cell's segment begins in that order (an
    empty cell has no segment), `count` the units per cell, `occupied`
    where count > 0, `spread_coef` d - a and `level_coef` d + (count - 1) a."""

    order: np.ndarray | slice
    starts: np.ndarray
    count: np.ndarray
    occupied: np.ndarray
    spread_coef: np.ndarray
    level_coef: np.ndarray


def _srswor_joint(n: int, N: int) -> float:
    """pi_kl of two distinct units under SRSWOR of n from N (0 when n = 1)."""
    return n * (n - 1) / (N * (N - 1)) if n > 1 else 0.0


def replicate_seed(master_seed: int, replicate: int):
    """Derived per-replicate seed; deterministic regardless of scheduling."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))


def draw_srswor(population: Population, n: int, rng_seed) -> SampleDraw:
    """Uniform n-subset of U; pi_k = n/N."""
    return draw(population, Srswor(n), rng_seed)


def draw_stratified(population: Population, allocations: Mapping,
                    rng_seed) -> SampleDraw:
    """Independent SRSWOR inside each stratum; pi_k = n_h / N_h."""
    return draw(population, StratifiedSrswor(allocations), rng_seed)


def draw(population: Population, design, rng_seed) -> SampleDraw:
    """Draw a sample under `design` from one RNG stream: SRSWOR of n_h inside
    each stratum the design states (`design.strata`), strata in the order of
    str(label), pi_k = n_h / N_h; a Poisson draw for `GivenProbabilities`.

    A list of seeds draws an (R, n) stack, R >= 1: row r is the sample
    drawn from its own stream `rng_seed[r]`, unit for unit the sample
    `draw` gives that seed alone. Poisson samples vary in size, so a
    Poisson list holds one seed: a stack of one. The strata, their order
    and their rates are found once per call, for every seed.
    """
    seeds = rng_seed if isinstance(rng_seed, list) else [rng_seed]
    if not seeds:
        raise ValueError("draw needs at least one seed: the seed list is empty")
    poisson = isinstance(design, GivenProbabilities)
    if poisson and len(seeds) > 1:
        raise ValueError("Poisson samples vary in size and cannot be stacked")
    if not poisson:
        strata, sizes = design.strata(population)
        rates = _stratum_rates(strata, sizes)
        ordered = [(strata.members[j], sizes[j])
                   for j in sorted(range(len(strata.labels)), key=lambda j: str(strata.labels[j]))]
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if poisson:
            units = np.flatnonzero(rng.random(design.pi.size) < design.pi)
            if units.size == 0:
                raise ValueError("empty sample: the Poisson draw selected no unit")
        else:
            units = np.sort(np.concatenate(
                [members[rng.choice(members.size, size=nh, replace=False)]
                 for members, nh in ordered]))
        rows.append(units)
    indices = np.stack(rows) if isinstance(rng_seed, list) else rows[0]
    pi = design.pi[indices] if poisson else rates[strata.codes[indices]]
    return SampleDraw(population, design, indices, pi=pi)


def _stratum_rates(strata: StratumCodes, sizes: list) -> np.ndarray:
    """The sampling rate n_h / N_h of each stratum, in code order."""
    return np.array([nh / m.size for nh, m in zip(sizes, strata.members)])
