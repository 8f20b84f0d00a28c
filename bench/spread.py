"""Run-to-run spread of the metrics, and the baseline record.

    python3 bench/spread.py --workload cli_estimate_csv --seeds 1 2 3 4 5
    python3 bench/spread.py --workload cli_estimate_csv --seeds 1 2 3 4 5 \
        --out bench/baseline.json
    python3 bench/spread.py --workload cli_estimate_csv --seeds 1 2 --trace \
        --out bench/baseline.json
    python3 bench/spread.py --workload cli_estimate_csv --seeds 11 12 13 \
        --out bench/baseline.json --record-as end_to_end_second_set

Run from the root of a source checkout. Runs bench/run.py once per seed,
one run at a time, for the run length in BENCHMARK.json. For each metric it
prints the median of the runs and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound if it has one. --trace runs the
traced runs, whose per-layer metrics have no bound. --out merges the runs,
the summary and a record of the machine into a JSON file, one entry per
workload and mode (or under --record-as, for a second set of runs).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile range over median; None for one value or a zero median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def machine() -> dict:
    """CPU, caches, Python, numpy and commit of this run."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        shared = (index / "shared_cpu_list").read_text().strip()
        caches[f"L{level} {kind}"] = (f"{(index / 'size').read_text().strip()}"
                                      f" (cpus {shared})")
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu_model": cpu, "caches_cpu0": caches,
            "python": platform.python_version(), "numpy": numpy,
            "blas_thread_cap": nproc, "git_commit": commit or None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record-as")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(int(args.trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"], **values})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [run[name] for run in runs]
        summary[name] = {"median": statistics.median(values),
                         "spread": spread(values),
                         "bound": bound}
        print(f"{name:28} median {summary[name]['median']:12.6g}  "
              f"spread {summary[name]['spread']}  bound {bound}")
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record["machine"] = machine()
        record["run_seconds"] = spec["run_seconds"]
        mode = args.record_as or ("traced" if args.trace else "end_to_end")
        record.setdefault(mode, {})[args.workload] = {"runs": runs,
                                                      "summary": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
