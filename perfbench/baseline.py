"""Measure the benchmark over several seeds and record the baseline.

usage: python3 perfbench/baseline.py [--first-seed S]

For each workload of BENCHMARK.json, runs `run.py` untraced once per seed
(seeds S..S+9) and traced once (seed S), each with BENCHMARK.json's
run_seconds, and writes perfbench/baseline.json.  For every
end-to-end metric it records the values, their median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound.  The output also names the machine, the Python version and
the git commit.  Run from the root of a checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from session import HERE, ROOT

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = 10


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_sha": sha}


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(BENCHMARK, encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    out = {"machine": machine(), "run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in seeds:
            report, result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
            results.append((report, result))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        e2e = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for _, r in results],
                                 m["bound"])
            for m in bench["end_to_end"]
        }
        rates = {
            name: statistics.median(rep["report"][name]["value"] for rep, _ in results)
            for name in results[0][0]["report"]
            if name.endswith("_per_s")
        }
        traced_report, traced = run_once(workload, args.first_seed, seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": e2e,
            "rates_median": rates,
            "ops_attempted_per_run": results[0][1]["attempted"],
            "ops_failed": sum(r["failed"] for _, r in results),
            "traced_seed": args.first_seed,
            "traced_correct": traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        with open(BASELINE, "w", encoding="ascii") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
