"""Finite populations and probability sampling designs (SRSWOR, stratified)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .basis import CovariateSummary


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
        """Load a population from CSV with columns id, [stratum], z, variables."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "id" not in reader.fieldnames:
                raise ValueError("population CSV needs a header with an 'id' column")
            if "z" not in reader.fieldnames:
                raise ValueError("population CSV needs a 'z' column")
            var_names = [
                c for c in reader.fieldnames if c not in ("id", "stratum", "z")
            ]
            ids, z, strata = [], [], []
            variables: dict = {name: [] for name in var_names}
            has_stratum = "stratum" in reader.fieldnames
            for row in reader:
                ids.append(row["id"])
                z.append(float(row["z"]))
                if has_stratum:
                    strata.append(row["stratum"])
                for name in var_names:
                    variables[name].append(float(row[name]))
        return cls(
            ids=tuple(ids),
            z=np.asarray(z),
            variables={k: np.asarray(v) for k, v in variables.items()},
            strata=tuple(strata) if has_stratum else None,
        )


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
    so pi_kl = pi_k * pi_l. Provided for extensibility."""

    pi: np.ndarray


class SampleDraw:
    """A realized sample with inclusion-probability accessors."""

    def __init__(self, population: Population, design, indices: np.ndarray,
                 pi_full: np.ndarray):
        self.population = population
        self.design = design
        self.indices = np.asarray(indices, dtype=int)
        self._pi_full = np.asarray(pi_full, dtype=float)
        if np.any(self._pi_full <= 0) or np.any(self._pi_full > 1):
            raise ValueError("inclusion probabilities must lie in (0,1]")

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def pi(self) -> np.ndarray:
        """First-order probabilities of the sampled units, sample order."""
        return self._pi_full[self.indices]

    def pi_of(self, k) -> float:
        return float(self._pi_full[k])

    @property
    def pi_full(self) -> np.ndarray:
        """First-order probabilities over the whole universe."""
        return self._pi_full

    def sample_values(self, name: str) -> np.ndarray:
        return self.population.variables[name][self.indices]

    @property
    def sample_z(self) -> np.ndarray:
        return self.population.z[self.indices]

    @cached_property
    def sample_strata(self) -> list:
        """(label, N_h, sample positions of its units) for each stratum the
        design states (`design.strata`), in code order."""
        strata = self.design.strata(self.population)[0]
        codes = strata.codes[self.indices]
        ends = np.cumsum(np.bincount(codes, minlength=len(strata.labels))).tolist()
        order = np.argsort(codes, kind="stable")
        return [(h, Nh, order[a:b]) for h, Nh, a, b in
                zip(strata.labels, strata.sizes.tolist(), [0, *ends], ends)]

    def joint_groups(self, indices=None) -> tuple[np.ndarray, np.ndarray]:
        """The design's second-order inclusion probabilities, by group.

        Returns `(group, within)`: the group code of each unit in `indices`
        (default: the sample), and per code the pi_kl of two distinct units
        of that group. Units in different groups are selected
        independently, so pi_kl = pi_k pi_l between groups, and all units
        of a group share one pi_k. Each stratum the design states is a
        group (SRSWOR states one), with pi_kl = 0 where n_h = 1; with
        `GivenProbabilities` every unit is a group of its own.
        """
        idx = self.indices if indices is None else np.asarray(indices, dtype=int)
        if isinstance(self.design, GivenProbabilities):
            return np.arange(idx.size), np.zeros(idx.size)
        strata, sizes = self.design.strata(self.population)
        within = [_srswor_joint(nh, Nh) for nh, Nh in zip(sizes, strata.sizes.tolist())]
        return strata.codes[idx], np.array(within)

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
        """Matrix of pi_kl over the given unit indices (default: the sample)."""
        idx = self.indices if indices is None else np.asarray(indices, dtype=int)
        pi = self._pi_full[idx]
        group, within = self.joint_groups(idx)
        M = np.where(group[:, None] == group, within[group][:, None],
                     np.outer(pi, pi))
        np.fill_diagonal(M, pi)
        return M


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
    str(label), pi_k = n_h / N_h; a Poisson draw for `GivenProbabilities`."""
    rng = np.random.default_rng(rng_seed)
    if isinstance(design, GivenProbabilities):
        pi = np.asarray(design.pi, dtype=float)
        indices = np.flatnonzero(rng.random(pi.size) < pi)
        if indices.size == 0:
            raise ValueError("empty sample: the Poisson draw selected no unit")
        return SampleDraw(population, design, indices, pi)
    strata, sizes = design.strata(population)
    chosen = []
    for j in sorted(range(len(strata.labels)), key=lambda j: str(strata.labels[j])):
        members = strata.members[j]
        chosen.append(members[rng.choice(members.size, size=sizes[j], replace=False)])
    indices = np.sort(np.concatenate(chosen))
    rates = np.array([nh / m.size for nh, m in zip(sizes, strata.members)])
    return SampleDraw(population, design, indices, rates[strata.codes])
