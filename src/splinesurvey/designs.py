"""Finite populations and probability sampling designs (SRSWOR, stratified)."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .basis import CovariateSummary

# `Population.from_csv` reads this many rows at a time: it holds one chunk of
# rows as lists of strings, next to the columns converted so far.
CSV_CHUNK_ROWS = 4096
TEXT_COLUMNS = ("id", "stratum")


@dataclass(frozen=True)
class Population:
    """Immutable finite universe: ids, auxiliary covariate z, study variables.

    `z` and each study variable are kept as read-only views of the
    caller's arrays, not copies. The Population cannot write into them, but
    the caller still can through the original arrays; doing so after
    construction is unsupported, because the cached `covariate_summary`
    would no longer describe `z`.
    """

    ids: tuple
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
        a quoted cell may hold commas, quotes or line breaks. The first row
        is the header, and its column names must be unique. Blank lines are
        skipped; every other row must have as many cells as the header. `id`
        and `stratum` are kept as strings, and every other cell must be a
        finite number as Python's `float` reads it (so not `nan`, `inf` or
        `1e400`). A row of the wrong width, or a cell that is not a finite
        number, raises a ValueError naming its file line.
        """
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or "id" not in header:
                raise ValueError("population CSV needs a header with an 'id' column")
            if "z" not in header:
                raise ValueError("population CSV needs a 'z' column")
            for name, count in Counter(header).items():
                if count > 1:
                    raise ValueError(f"population CSV header names column {name!r} "
                                     f"{count} times")
            pieces = [[] for _ in header]
            first_line = reader.line_num + 1
            while rows := list(islice(reader, CSV_CHUNK_ROWS)):
                columns = _chunk_columns(rows, header, first_line)
                _refuse_non_finite(rows, header, columns, first_line)
                for piece, column in zip(pieces, columns):
                    piece.append(column)
                first_line = reader.line_num + 1
        # the leading empty array gives a file without rows empty columns
        columns = {
            name: (tuple(chain.from_iterable(piece)) if name in TEXT_COLUMNS
                   else np.concatenate([np.empty(0), *piece]))
            for name, piece in zip(header, pieces)
        }
        return cls(
            ids=columns.pop("id"),
            z=columns.pop("z"),
            strata=columns.pop("stratum", None),
            variables=columns,
        )


def _chunk_columns(rows: list, header: list, first_line: int) -> list:
    """The columns of one chunk of CSV rows: tuples of strings for the text
    columns and float arrays for the rest. Blank rows are skipped; a row
    that is not as wide as the header, or a cell that is not a number, is
    refused with its file line (`first_line` is the line rows[0] starts on).
    """
    width = len(header)
    widths = set(map(len, rows))
    if widths != {width}:
        bad = next((i for i, row in enumerate(rows) if row and len(row) != width), None)
        if bad is not None:
            raise ValueError(f"population CSV line {first_line + _lines_spanned(rows[:bad])}: "
                             f"{len(rows[bad])} cells, but the header has {width}")
    cells = list(filter(None, rows)) if 0 in widths else rows
    columns = list(zip(*cells)) or [()] * width
    for j, name in enumerate(header):
        if name in TEXT_COLUMNS:
            continue
        try:
            columns[j] = np.array(columns[j], dtype=float)
        except ValueError:
            _refuse_cell(rows, j, name, first_line)
            raise
    return columns


def _refuse_non_finite(rows: list, header: list, columns: list, first_line: int) -> None:
    """Refuse, naming its file line, the first cell of a converted chunk
    (`_chunk_columns`) that is a number but not a finite one: `nan`, `inf`
    or an overflow such as `1e400`."""
    for j, name in enumerate(header):
        if name not in TEXT_COLUMNS and not np.isfinite(columns[j]).all():
            _refuse_cell(rows, j, name, first_line)


def _refuse_cell(rows: list, j: int, name: str, first_line: int) -> None:
    """Raise a ValueError naming the file line, column and text of the
    first cell of column `j` in `rows` that is not a finite number."""
    for i, row in enumerate(rows):
        if not row:
            continue
        try:
            if np.isfinite(np.array(row[j], dtype=float)):
                continue
            problem = f"not a finite number: {row[j]!r}"
        except ValueError as err:
            problem = str(err)
        raise ValueError(f"population CSV line {first_line + _lines_spanned(rows[:i])}, "
                         f"column {name!r}: {problem}")


def _lines_spanned(rows: list) -> int:
    """File lines the csv reader read to produce `rows`: one per row, plus
    each line break inside a quoted cell."""
    breaks = sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n")
                 for row in rows for cell in row)
    return len(rows) + breaks


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

        Every stratum needs an allocation with 1 <= n_h <= N_h; labels of
        strata the population does not have are ignored.
        """
        for h in self.labels:
            if h not in allocations:
                raise ValueError(f"missing stratum allocation for {h!r}")
        out = [allocations[h] for h in self.labels]
        for h, nh, Nh in zip(self.labels, out, self.sizes.tolist()):
            if not 1 <= nh <= Nh:
                raise ValueError(f"allocation {nh} out of range for stratum {h!r}")
        return out


# Srswor and StratifiedSrswor state their strata once, in `strata(population)`: the
# partition and each stratum's sample size; `closed_form` names their closed form.

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


@dataclass(frozen=True)
class GivenProbabilities:
    """Poisson sampling: unit k enters independently with probability pi_k,
    so pi_kl = pi_k * pi_l. The probabilities are checked once, here, and
    kept as a read-only copy."""

    pi: np.ndarray

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
    shape. Either the caller gives `pi_full` over the whole universe, which
    is checked whole, or `pi` at the sampled units (as `draw` does), which
    is checked there; `pi_full` is then built from the design on first use,
    so a draw does O(n) work past its random choice. The double-sum
    variance's cells (`pair_cells`) depend on the draw alone, so they too
    are built on first use, once per draw, and every variance of the draw
    shares them.
    """

    def __init__(self, population: Population, design, indices,
                 pi_full=None, *, pi=None):
        self.population = population
        self.design = design
        self.indices = np.asarray(indices, dtype=int)
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

    def pi_of(self, k) -> float:
        return float(self.pi_full[k])

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

    @cached_property
    def sample_strata(self) -> list:
        """(label, N_h, sample positions of its units) for each stratum the
        design states (`design.strata`), in code order. In a stack the
        positions have one row per sample, and every sample must hold the
        same number of units of each stratum."""
        strata = self.strata[0]
        H, n = len(strata.labels), self.size
        codes = strata.codes[self.indices]
        rows = codes.reshape(-1, n)
        offsets = (H * np.arange(rows.shape[0]))[:, None]
        counts = np.bincount((rows + offsets).ravel(),
                             minlength=H * rows.shape[0]).reshape(-1, H)
        if np.any(counts != counts[0]):
            raise ValueError("stacked samples differ in their stratum sizes")
        ends = np.cumsum(counts[0]).tolist()
        order = np.argsort(codes, axis=-1, kind="stable")
        return [(h, Nh, order[..., a:b]) for h, Nh, a, b in
                zip(strata.labels, strata.sizes.tolist(), [0, *ends], ends)]

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
        """The double-sum variance's cells, built once per draw from
        `joint_groups` and `pi`: one cell per (sample, group) of a stack,
        so every variance of the draw reads the same read-only arrays.

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
        arrays = (code, count, count > 0, d - a, d + (count - 1) * a)
        for x in arrays:
            x.flags.writeable = False
        return PairCells(*arrays)

    def joint_prob(self, k: int, l: int) -> float:
        """Second-order inclusion probability pi_kl; pi_k on the diagonal."""
        N = self.population.size
        if not (0 <= k < N and 0 <= l < N):
            raise ValueError("unknown unit")
        if k == l:
            return self.pi_of(k)
        group, within = self.joint_groups([k, l])
        if group[0] == group[1]:
            return float(within[group[0]])
        return self.pi_of(k) * self.pi_of(l)

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


@dataclass(frozen=True)
class PairCells:
    """A draw's cells for the double-sum variance (`SampleDraw.pair_cells`):
    with p the cell's first-order probability, d = 1 - p and a = (pi_kl -
    p^2) / pi_kl its pair coefficient (0 in a cell of fewer than two units),
    `code` is each sampled unit's cell (flattened over a stack), `count`
    the units per cell, `occupied` where count > 0, `spread_coef` d - a and
    `level_coef` d + (count - 1) a."""

    code: np.ndarray
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

    A list of seeds draws a stack: row r is the sample drawn from its own
    stream `rng_seed[r]`, unit for unit the sample `draw` gives that seed
    alone. Poisson samples vary in size and are drawn one at a time.
    """
    if isinstance(rng_seed, list):
        if isinstance(design, GivenProbabilities):
            raise ValueError("Poisson samples vary in size and cannot be stacked")
        rows = [_draw_units(population, design, seed) for seed in rng_seed]
        indices = np.stack([units for units, _ in rows])
        return SampleDraw(population, design, indices,
                          pi=np.stack([pi for _, pi in rows]))
    indices, pi = _draw_units(population, design, rng_seed)
    return SampleDraw(population, design, indices, pi=pi)


def _draw_units(population: Population, design, rng_seed) -> tuple:
    """The sampled units of one draw, ascending, and their pi_k."""
    rng = np.random.default_rng(rng_seed)
    if isinstance(design, GivenProbabilities):
        indices = np.flatnonzero(rng.random(design.pi.size) < design.pi)
        if indices.size == 0:
            raise ValueError("empty sample: the Poisson draw selected no unit")
        return indices, design.pi[indices]
    strata, sizes = design.strata(population)
    chosen = []
    for j in sorted(range(len(strata.labels)), key=lambda j: str(strata.labels[j])):
        members = strata.members[j]
        chosen.append(members[rng.choice(members.size, size=sizes[j], replace=False)])
    indices = np.sort(np.concatenate(chosen))
    return indices, _stratum_rates(strata, sizes)[strata.codes[indices]]


def _stratum_rates(strata: StratumCodes, sizes: list) -> np.ndarray:
    """The sampling rate n_h / N_h of each stratum, in code order."""
    return np.array([nh / m.size for nh, m in zip(sizes, strata.members)])
