"""Run one splinesurvey benchmark workload and print its metrics.

    python3 bench/run.py --workload mc_paper_table --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. Inputs are generated from --seed. Operations run one after another
in this process until --seconds of operation time (and the workload's
minimum operation count) have passed, and every operation's output is
checked. A human-readable summary goes to stdout, followed by one JSON
line with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics; no tracing wrapper is installed.
Each operation runs between two runs of the fixed reference task of
`reference.py`, and the gated throughput counts its time in reference-task
times, which cancels the host's changing speed.
--trace 1 reports the per-layer metrics: each operation runs twice, once
plain and once with the span wrappers of `spans.py` installed (alternating
which goes first), the difference being the tracing overhead; the spans
are written to .bench_build/trace-<workload>.jsonl when the run ends.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Times `import workloads` (numpy, splinesurvey and its CLI) in a fresh
# interpreter, as main() does in this one; interpreter start-up is excluded.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")

# per-layer metric -> span names whose self time it sums, per operation.
# A module-wide "self" metric stands in where a single function runs on
# only some workloads (see WORKLOADS.md).
LAYER_TIMES = {
    "designs.self_ms": ("designs.load", "designs.draw", "designs.joint_matrix"),
    "designs.draw_ms": ("designs.draw",),
    "basis.pop_eval_ms": ("basis.pop_eval",),
    "basis.sample_eval_ms": ("basis.sample_eval",),
    "basis.knots_ms": ("basis.knots",),
    "basis.normalize_ms": ("basis.normalize",),
    "weights.self_ms": ("weights.system", "weights.ht", "weights.greg",
                        "weights.post", "weights.bs"),
    "weights.system_ms": ("weights.system",),
    "weights.bs_ms": ("weights.bs",),
    "functionals.measure_ms": ("functionals.measure",),
    "functionals.eval_ms": ("functionals.eval",),
    "linearize.influence_ms": ("linearize.influence",),
    "linearize.residual_fit_ms": ("linearize.residual_fit",),
    "variance.self_ms": ("variance.closed", "variance.double_sum", "variance.ci"),
    "variance.ci_ms": ("variance.ci",),
    "orchestration.self_ms": ("orchestration.self",),
}
# per-layer count -> (calls | rows, span name), per operation.
LAYER_COUNTS = {
    "designs.load_rows": ("rows", "designs.load"),
    "designs.joint_cells": ("rows", "designs.joint_matrix"),
    "basis.pop_rows": ("rows", "basis.pop_eval"),
    "weights.system_builds": ("calls", "weights.system"),
    "functionals.measures_built": ("calls", "functionals.measure"),
    "variance.double_sum_calls": ("calls", "variance.double_sum"),
}


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def decile(values, k):
    """k-th decile (inclusive method); the value itself for one value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def import_seconds(first: float) -> float:
    """Median import time over this process's import and fresh interpreters."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def attempt(workload, index, tracer=None):
    """Run and check operation `index`; (seconds, units) or None if it failed.

    The check runs after the clock stops and outside any traced operation.
    """
    try:
        if tracer is None:
            start = time.perf_counter()
            result = workload.run(index)
            elapsed = time.perf_counter() - start
        else:
            with tracer.installed():
                start = time.perf_counter()
                tracer.begin_op("batch" if workload.replicate_boundaries
                                else workload.traced_kind)
                try:
                    result = workload.run(index)
                finally:
                    tracer.end_op()
                elapsed = time.perf_counter() - start
        problems = workload.problems(index, result)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        return None
    for problem in problems:
        print(f"operation {index}: {problem}", file=sys.stderr)
    return None if problems else (elapsed, workload.units(result))


def measure(workload, seconds, reference):
    """Untraced operations, each between two runs of the reference task;
    returns (attempted, successes), a success being (seconds, units,
    reference seconds), the last the mean of the reference runs either side."""
    done, index = [], 0
    before = reference.timed()
    spent = before
    while spent < seconds or index < workload.min_ops:
        start = time.perf_counter()
        outcome = attempt(workload, index)
        after = reference.timed()
        spent += time.perf_counter() - start
        index += 1
        if outcome:
            done.append((*outcome, (before + after) / 2.0))
        before = after
    return index, done


def measure_traced(workload, seconds, tracer):
    """Each operation plain and traced; returns (attempted, successes, overheads)."""
    attempted, done, overheads, spent, index = 0, [], [], 0.0, 0
    while spent < seconds or index < workload.min_ops:
        start = time.perf_counter()
        if index % 2:
            traced = attempt(workload, index, tracer)
            plain = attempt(workload, index)
        else:
            plain = attempt(workload, index)
            traced = attempt(workload, index, tracer)
        spent += time.perf_counter() - start
        attempted += 2
        index += 1
        done += [o for o in (plain, traced) if o]
        if plain and traced:
            overheads.append(100.0 * (traced[0] / plain[0] - 1.0))
    return attempted, done, overheads


def end_to_end_metrics(done, setup_s):
    """Gated metrics, and the informational ones printed beside them.

    The host's speed changes in phases that can cover a whole run and slow
    the reference task as much as the operation beside it, so the gated
    throughput counts time in reference tasks: replicates per thousand
    reference-task times, the median over the run's operations. The plain
    wall-clock figures are printed but not gated; see WORKLOADS.md.
    """
    per_kref = [1000.0 * units * ref / seconds for seconds, units, ref in done]
    per_unit_ms = [1000.0 * seconds / units for seconds, units, _ in done]
    gated = {
        "replicates_per_kref": (statistics.median(per_kref), "1/kref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }
    beyond_p90 = sum(v > decile(per_unit_ms, 9) for v in per_unit_ms)
    shown = {
        "replicates_per_s": (sum(u for _, u, _ in done) / sum(s for s, _, _ in done),
                             "1/s"),
        "fastest replicates_per_s": (1000.0 / min(per_unit_ms), "1/s"),
        "estimate_ms_p10": (decile(per_unit_ms, 1), "ms"),
        "estimate_ms_p50": (statistics.median(per_unit_ms), "ms"),
        f"estimate_ms_p90 ({beyond_p90} beyond)": (decile(per_unit_ms, 9), "ms"),
        "reference_ms_p50": (statistics.median([1000.0 * r for _, _, r in done]), "ms"),
    }
    return gated, shown


def layer_metrics(ops, overheads):
    from spans import ORCHESTRATION

    median = statistics.median
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = (median([1000.0 * sum(op["self"][n] for n in names)
                               for op in ops]), "ms")
    for metric, (field, name) in LAYER_COUNTS.items():
        out[metric] = (median([op[field][name] for op in ops]), "count")
    out["trace.op_ms"] = (median([1000.0 * op["duration"] for op in ops]), "ms")
    out["trace.unattributed_pct"] = (
        median([100.0 * op["self"][ORCHESTRATION] / op["duration"] for op in ops]), "%")
    out["trace.overhead_pct"] = (median(overheads), "%")
    return out


def print_function_table(tracer, ops):
    """Per span name: calls and self time per operation, and share of the
    traced operation time (means, so that the shares add up to 100%)."""
    total = sum(op["duration"] for op in ops)
    names = sorted({n for op in ops for n in op["self"]})
    print(f"\n{len(ops)} traced operations")
    print(f"  {'span':26}{'calls':>8}{'self ms p50':>13}{'share':>9}")
    accounted = 0.0
    for name in names:
        share = 100.0 * sum(op["self"][name] for op in ops) / total
        accounted += share
        calls = statistics.median(op["calls"][name] for op in ops)
        self_ms = statistics.median(1000.0 * op["self"][name] for op in ops)
        print(f"  {name:26}{calls:8g}{self_ms:13.4f}{share:8.2f}%")
    print(f"  {'(sum)':26}{'':8}{'':13}{accounted:8.2f}%")
    batches = tracer.per_op("batch")
    if batches:
        truth = [1000.0 * b["self"]["simulate.truth"] for b in batches]
        print(f"per batch before the first draw: simulate.truth self "
              f"{statistics.median(truth):.3f} ms (median of {len(batches)})")


def run_workload(workload, seconds, trace, import_s, trace_path):
    """Set up and measure one workload: (attempted, failed, metrics, shown),
    metrics being None when no operation succeeded. `shown` are printed
    but not part of the result."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    if not trace:
        from reference import Reference

        reference = Reference()
        reference.timed()  # warm-up
        attempted, done = measure(workload, seconds, reference)
        if not done:
            return attempted, attempted, None, {}
        setup_s = import_s + statistics.median(setups)
        return (attempted, attempted - len(done),
                *end_to_end_metrics(done, setup_s))
    import spans

    tracer = spans.Tracer(workload.population_rows, workload.replicate_boundaries)
    attempted, done, overheads = measure_traced(workload, seconds, tracer)
    tracer.write(trace_path)
    ops = tracer.per_op(workload.traced_kind)
    if not (done and ops and overheads):
        return attempted, attempted - len(done), None, {}
    print_function_table(tracer, ops)
    return attempted, attempted - len(done), layer_metrics(ops, overheads), {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splinesurvey" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads  # numpy and splinesurvey, with its CLI
    import_s = time.perf_counter() - start
    if not args.trace:
        import_s = import_seconds(import_s)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        attempted, failed, metrics, shown = run_workload(
            workload, args.seconds, args.trace, import_s,
            WORK / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    print(f"\nworkload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {threads}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(error_rate {failed / attempted:g})")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:32}{value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
