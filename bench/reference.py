"""A fixed reference task, timed beside every benchmark operation.

The host this benchmark was tuned on slows its CPUs by up to 1.8x in phases
that last from seconds to minutes, so an operation's wall time says as much
about the host's phase as about the program. The reference task does a
fixed mix of the same kinds of work as the library (CSV text parsed in
Python, element-wise numpy passes over arrays larger than the L2 cache,
an n x n outer difference and a small dense solve) and uses nothing from
`splinesurvey`, so no change to the library changes its cost. An operation's
time divided by the time of the reference runs on either side of it is the
operation's cost with the host's phase cancelled; see WORKLOADS.md.
"""

import csv
import io
import time

import numpy as np

ROWS = 3000
POINTS = 80_000
KNOTS = 6
OUTER = 400
SYSTEM = 60


class Reference:
    """The reference task on inputs fixed once for all runs and seeds."""

    def __init__(self):
        rng = np.random.default_rng(20120106)
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["id", "z", "y", "x"])
        for i, values in enumerate(rng.random((ROWS, 3)).tolist()):
            writer.writerow([i, *map(repr, values)])
        self.text = out.getvalue()
        self.points = rng.random(POINTS)
        self.knots = np.linspace(0.0, 1.0, KNOTS + 2)[1:-1]
        self.sample = rng.random(OUTER)
        a = rng.random((SYSTEM, SYSTEM))
        self.gram = a @ a.T + SYSTEM * np.eye(SYSTEM)
        self.rhs = rng.random(SYSTEM)
        self.expected = self.run()

    def run(self) -> float:
        """One reference task; returns a checksum of its results."""
        columns = ([], [], [])
        reader = csv.DictReader(io.StringIO(self.text))
        for row in reader:
            columns[0].append(float(row["z"]))
            columns[1].append(float(row["y"]))
            columns[2].append(float(row["x"]))
        parsed = sum(np.asarray(c).sum() for c in columns)

        x = self.points
        basis = [np.ones_like(x), x, x * x]
        basis += [np.maximum(x - k, 0.0) ** 2 for k in self.knots]
        totals = np.array([b.sum() for b in basis])
        cells = np.searchsorted(self.knots, x)

        outer = np.subtract.outer(self.sample, self.sample)
        solved = np.linalg.solve(self.gram, self.rhs)
        return float(parsed + totals.sum() + cells.sum()
                     + np.abs(outer).sum() + solved.sum())

    def timed(self) -> float:
        """Seconds taken by one reference task, whose result is checked."""
        start = time.perf_counter()
        checksum = self.run()
        elapsed = time.perf_counter() - start
        if checksum != self.expected:
            raise RuntimeError(f"reference task gave {checksum!r}, "
                               f"expected {self.expected!r}")
        return elapsed
