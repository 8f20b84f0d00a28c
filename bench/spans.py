"""Outside-in span tracing of the splinesurvey layers.

`Tracer.installed()` replaces the library's functions with timing wrappers
at the names the calling module looks them up (``simulate.draw``,
``weights.basis_matrix``, ``linearize.SplineSystem``, ...) and puts the
originals back on exit. The library itself is not edited, and a run that
never enters `installed()` runs with no wrapper at all.

A wrapper records one span per call while an operation is open: name,
start, end, parent span and operation id. Spans stay in memory until
`write()`. An operation is either opened explicitly (`begin_op`, one CLI
call) or, for a Monte Carlo batch, at every top-level `simulate.draw`
call, so each replicate is one operation. A layer's self time is its
span's duration minus the time its child spans cover; the part of an
operation no span covers is the orchestrating code's own time (the
`run_monte_carlo` loop or the CLI command body).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute path, span name). The attribute is looked up on the
# module that calls it, so each caller that imported a name gets its own
# entry. Span names are "<layer module>.<function>".
HOOKS = (
    ("splinesurvey.designs", "Population.from_csv", "designs.load"),
    ("splinesurvey.simulate", "draw", "designs.draw"),
    ("splinesurvey.cli", "draw", "designs.draw"),
    ("splinesurvey.designs", "SampleDraw.joint_matrix", "designs.joint_matrix"),
    ("splinesurvey.weights", "normalize_covariate", "basis.normalize"),
    ("splinesurvey.weights", "build_knots", "basis.knots"),
    ("splinesurvey.weights", "basis_matrix", "basis.eval"),
    ("splinesurvey.weights", "SplineSystem", "weights.system"),
    ("splinesurvey.linearize", "SplineSystem", "weights.system"),
    ("splinesurvey.simulate", "ht_weights", "weights.ht"),
    ("splinesurvey.simulate", "greg_weights", "weights.greg"),
    ("splinesurvey.simulate", "post_weights", "weights.post"),
    ("splinesurvey.simulate", "bspline_weights", "weights.bs"),
    ("splinesurvey.cli", "ht_weights", "weights.ht"),
    ("splinesurvey.cli", "greg_weights", "weights.greg"),
    ("splinesurvey.cli", "post_weights", "weights.post"),
    ("splinesurvey.cli", "bspline_weights", "weights.bs"),
    ("splinesurvey.simulate", "WeightedMeasure", "functionals.measure"),
    ("splinesurvey.linearize", "WeightedMeasure", "functionals.measure"),
    ("splinesurvey.cli", "WeightedMeasure", "functionals.measure"),
    ("splinesurvey.simulate", "total", "functionals.eval"),
    ("splinesurvey.simulate", "mean", "functionals.eval"),
    ("splinesurvey.simulate", "ratio", "functionals.eval"),
    ("splinesurvey.simulate", "gini", "functionals.eval"),
    ("splinesurvey.simulate", "poverty_rate", "functionals.eval"),
    ("splinesurvey.linearize", "total", "functionals.eval"),
    ("splinesurvey.linearize", "gini", "functionals.eval"),
    ("splinesurvey.linearize", "quantile", "functionals.eval"),
    ("splinesurvey.simulate", "linearized_total", "linearize.influence"),
    ("splinesurvey.simulate", "linearized_ratio", "linearize.influence"),
    ("splinesurvey.simulate", "linearized_gini", "linearize.influence"),
    ("splinesurvey.simulate", "linearized_poverty_rate", "linearize.influence"),
    ("splinesurvey.simulate", "residual_fit", "linearize.residual_fit"),
    # the CLI imports residual_fit from linearize at call time
    ("splinesurvey.linearize", "residual_fit", "linearize.residual_fit"),
    ("splinesurvey.simulate", "closed_form_variance", "variance.closed"),
    ("splinesurvey.simulate", "ht_variance_double_sum", "variance.double_sum"),
    ("splinesurvey.simulate", "confidence_interval", "variance.ci"),
    ("splinesurvey.cli", "closed_form_variance", "variance.closed"),
    ("splinesurvey.cli", "ht_variance_double_sum", "variance.double_sum"),
    ("splinesurvey.cli", "confidence_interval", "variance.ci"),
    ("splinesurvey.simulate", "ParameterSpec.truth", "simulate.truth"),
)

# Operation-level time the wrapped spans do not cover.
ORCHESTRATION = "orchestration.self"


# Work counted per operation, from a span's result.
ROWS = {
    "basis.eval": lambda result: result.shape[0],      # basis rows evaluated
    "designs.load": lambda result: result.size,        # units loaded
    "designs.joint_matrix": lambda result: result.size,  # pi_kl entries built
}


class Tracer:
    """Span recorder for one benchmark process.

    `population_rows` is the size of the frame the workload samples from;
    a basis evaluation over that many rows is a population evaluation
    (`basis.pop_eval`), any other is a sample evaluation
    (`basis.sample_eval`).
    """

    def __init__(self, population_rows: int, replicate_boundaries: bool):
        self.population_rows = population_rows
        self.replicate_boundaries = replicate_boundaries
        self.spans: list = []   # [name, start, end, parent index, op id]
        self.ops: list = []     # [op id, kind, start, end]
        self.rows: dict = defaultdict(Counter)  # op id -> name -> rows
        self._stack: list = []
        self._op = None

    # -- operations -------------------------------------------------------
    def begin_op(self, kind: str) -> None:
        now = time.perf_counter()
        if self._op is not None:
            self.ops[self._op][3] = now
        self._op = len(self.ops)
        self.ops.append([self._op, kind, now, None])

    def end_op(self) -> None:
        self.ops[self._op][3] = time.perf_counter()
        self._op = None

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name: str, fn, opens_replicate: bool):
        tracer = self
        rows_of = ROWS.get(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if opens_replicate and not tracer._stack:
                tracer.begin_op("replicate")
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer._op]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if rows_of is not None:
                n = rows_of(result)
                if name == "basis.eval":
                    record[0] = ("basis.pop_eval" if n == tracer.population_rows
                                 else "basis.sample_eval")
                tracer.rows[tracer._op][record[0]] += n
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every hook for the duration of the block."""
        saved = []
        try:
            for module_name, path, name in HOOKS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                opens = (self.replicate_boundaries and name == "designs.draw"
                         and module_name == "splinesurvey.simulate")
                if isinstance(original, classmethod):
                    hooked = classmethod(self._wrap(name, original.__func__, opens))
                else:
                    hooked = self._wrap(name, original, opens)
                saved.append((owner, attr, original))
                setattr(owner, attr, hooked)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------
    def per_op(self, kind: str) -> list:
        """For each operation of `kind`: duration, self time and call count
        per span name, and rows per counted span name (times in seconds)."""
        child_time = [0.0] * len(self.spans)
        top_time: Counter = Counter()
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_time[op] += end - start
        out = {op_id: {"duration": end - start, "self": Counter(),
                       "calls": Counter(), "rows": self.rows[op_id]}
               for op_id, op_kind, start, end in self.ops if op_kind == kind}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in out:
                out[op]["self"][name] += end - start - child_time[i]
                out[op]["calls"][name] += 1
        for op_id, record in out.items():
            record["self"][ORCHESTRATION] = record["duration"] - top_time[op_id]
        return list(out.values())

    def write(self, path) -> None:
        """Write the spans as JSON lines, then the operations."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for op_id, kind, start, end in self.ops:
                fh.write(json.dumps({"op": op_id, "kind": kind, "start": start,
                                     "end": end}) + "\n")
