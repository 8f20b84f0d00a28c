"""Quick self-test of the benchmark, every workload at toy size.

    python3 bench/selftest.py

Run from the root of a source checkout. For each workload it checks that
a toy-sized run, plain and traced, passes its own output checks and
reports exactly the metrics, with the units, that BENCHMARK.json names;
that the traced counts repeat exactly and match the roster; and that the
output checks reject corrupted results. Last, it checks that run.py exits
non-zero without printing a result in a directory holding only
BENCHMARK.json and the benchmark. Exits 1 if anything failed.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES = []
SEED = 1


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def metric_units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def check_run(workloads, name, trace, wanted, workdir):
    workload = workloads.build(name, SEED, workdir, toy=True)
    attempted, failed, metrics, _ = run.run_workload(
        workload, 0.0, trace, 0.0, Path(workdir) / f"trace-{name}.jsonl")
    got = {} if metrics is None else {k: unit for k, (_, unit) in metrics.items()}
    expect(failed == 0 and metrics is not None,
           f"{name} trace={trace}: {attempted} operations, {failed} failed")
    expect(got == wanted, f"{name} trace={trace}: metric names and units")
    return workload, metrics


def check_counts(name, metrics, again, expected):
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    repeat = {k: v for k, (v, unit) in again.items() if unit == "count"}
    expect(counts == repeat, f"{name}: traced counts repeat exactly")
    for key, value in expected.items():
        expect(counts.get(key) == value,
               f"{name}: {key} = {counts.get(key)} (expected {value})")


def corrupted_tables(workload, result):
    """(description, corrupted result) pairs for a Monte Carlo result."""
    plan, table = result
    first_param = plan.parameters[0].label
    bs_label = plan.estimators[-1].label
    out = []

    def variant(description, mutate):
        bad = copy.deepcopy(table)
        mutate(bad)
        out.append((description, (plan, bad)))

    variant("non-finite RRMSE",
            lambda t: setattr(t.rows[(first_param, bs_label)], "rrmse_percent",
                              float("nan")))
    variant("non-finite RB",
            lambda t: setattr(t.rows[(first_param, bs_label)], "rb_percent",
                              float("inf")))
    variant("HT RRMSE off 100",
            lambda t: setattr(t.rows[(first_param, "HT")], "rrmse_percent",
                              100.0 + 1e-9))
    variant("truth off the reference",
            lambda t: t.truths.__setitem__(first_param,
                                           t.truths[first_param] * (1 + 1e-8)))
    variant("missing cell", lambda t: t.rows.pop((first_param, bs_label)))
    if workload.pattern_replicates:
        def swap(t):
            bs, post = t.rows[("gini(y)", bs_label)], t.rows[("gini(y)", "POST(K=2)")]
            bs.rrmse_percent, post.rrmse_percent = post.rrmse_percent, bs.rrmse_percent
        variant("gini BS and POST swapped", swap)
    return out


def corrupted_reports(text):
    """(description, corrupted JSON) pairs for a CLI result."""
    out = []

    def variant(description, mutate):
        reports = json.loads(text)
        mutate(reports)
        out.append((description, json.dumps(reports)))

    variant("estimate off by 1e-8",
            lambda r: r[0].__setitem__("estimate", r[0]["estimate"] * (1 + 1e-8)))
    variant("variance off by 1e-8",
            lambda r: r[-1].__setitem__("variance", r[-1]["variance"] * (1 + 1e-8)))
    variant("parameter label", lambda r: r[1].__setitem__("parameter", "mean(x)"))
    variant("missing report", lambda r: r.pop())
    return out


def check_corruptions(name, workload):
    result = workload.run(0)
    expect(workload.problems(0, result) == [], f"{name}: clean result passes")
    variants = (corrupted_reports(result) if isinstance(result, str)
                else corrupted_tables(workload, result))
    for description, bad in variants:
        expect(workload.problems(0, bad) != [], f"{name}: rejects {description}")


def check_without_sources():
    """run.py in a directory with only BENCHMARK.json and the benchmark."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).resolve().parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_estimate_csv",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without library sources: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = metric_units(spec["end_to_end"])
    per_layer = metric_units(spec["per_layer"])
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOAD_COUNTS),
           "BENCHMARK.json names every workload")
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads

    from reference import Reference

    expect(Reference().expected == Reference().expected,
           "reference task: same result from its fixed inputs")

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        for name, counts in WORKLOAD_COUNTS.items():
            check_run(workloads, name, 0, end_to_end, workdir)
            workload, traced = check_run(workloads, name, 1, per_layer, workdir)
            _, again = check_run(workloads, name, 1, per_layer, workdir)
            if traced and again:
                check_counts(name, traced, again, counts(workload))
            check_corruptions(name, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_without_sources()
    print(f"\n{len(FAILURES)} failed" if FAILURES else "\nall passed")
    return 1 if FAILURES else 0


# Traced counts per operation implied by each roster at any population size:
# SplineSystem builds are one per spline estimator plus one per residual fit.
WORKLOAD_COUNTS = {
    "mc_paper_table": lambda w: {"weights.system_builds": 6,
                                 "basis.pop_rows": 6 * w.population_rows},
    "mc_strata_doublesum": lambda w: {"weights.system_builds": 3,
                                      "basis.pop_rows": 3 * w.population_rows,
                                      "variance.double_sum_calls": 6},
    "cli_estimate_csv": lambda w: {"weights.system_builds": 5,
                                   "basis.pop_rows": 5 * w.population_rows,
                                   "designs.load_rows": w.population_rows},
}


if __name__ == "__main__":
    sys.exit(main())
