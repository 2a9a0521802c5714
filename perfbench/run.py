"""fiidlab's benchmark: one workload, measured in fresh processes.

usage: python3 perfbench/run.py --workload {exact_laws,sampling,search,all}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from src/.
A run starts sessions (perfbench/session.py), one at a time, each a fresh
single-threaded interpreter that runs the workload once on the inputs of
--seed.  Untraced (--trace 0), it starts sessions until --seconds have passed,
at least three, and reports the medians of the end-to-end metrics.  Traced
(--trace 1), it alternates untraced and traced sessions until --seconds have
passed, at least two of each; it reports the per-layer metrics (median times;
counts, which must agree between the traced sessions) and trace.overhead_s,
the median over pairs of the traced minus the untraced session's wall_s.

The last line of output is {"correct", "attempted", "failed", "metrics"}.
The line before it gives every named metric of the workload, with the
ops_failed_frac and the rates of its op kinds.  `--workload all` runs each
workload in turn.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
from session import HERE, ROOT

WORKLOAD_NAMES = ("exact_laws", "sampling", "search")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "work_s": "s"}
MIN_SESSIONS = 3
MIN_TRACED_SESSIONS = 2

# report-line rates: metric -> (workload, op kind), in units of that kind per
# second of its timed calls
RATES = {
    "exact_rules_per_s": ("exact_laws", "exact_rule"),
    "mc_samples_per_s": ("sampling", "mc_generic"),
    "mc_t1_samples_per_s": ("sampling", "mc_t1"),
    "emulate_vertices_per_s": ("sampling", "sim_run"),
    "graphgen_vertices_per_s": ("sampling", "graph_gen"),
    "search_rules_per_s": ("search", "scan"),
}


class SessionFailed(Exception):
    pass


def run_session(workload, seed, profile, traced):
    """One session in a fresh process; its result plus wall_s and peak_rss_mib."""
    spawned = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "session.py"), workload, str(seed), profile,
            "1" if traced else "0", repr(spawned)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionFailed(f"{workload} session exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["peak_rss_mib"] = usage.ru_maxrss / 1024
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _median(sessions, key):
    return statistics.median(s[key] for s in sessions)


def _rates(workload, sessions):
    out = {}
    for name, (owner, kind) in RATES.items():
        if owner == workload:
            out[name] = _metric(
                statistics.median(s["kinds"][kind][0] / s["kinds"][kind][1] for s in sessions),
                "1/s",
            )
    return out


def run(workload, seed, seconds, trace, profile="full"):
    """Measure one workload; prints the report and result lines and returns
    the result."""
    started = time.monotonic()
    plain, traced = [], []
    if trace:
        while len(traced) < MIN_TRACED_SESSIONS or time.monotonic() - started < seconds:
            plain.append(run_session(workload, seed, profile, False))
            traced.append(run_session(workload, seed, profile, True))
    else:
        while len(plain) < MIN_SESSIONS or time.monotonic() - started < seconds:
            plain.append(run_session(workload, seed, profile, False))
    sessions = plain + traced
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    report = {
        "ops_failed_frac": _metric(failed / attempted, "1"),
        "ops_attempted": _metric(attempted, "count"),
        **{name: _metric(_median(plain, name), unit) for name, unit in END_TO_END_UNITS.items()},
        **_rates(workload, plain),
    }
    deterministic = True
    if trace:
        layers = {}
        for name, unit in spans.LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = statistics.median(
                    t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain)
                )
            elif unit in spans.EXACT_UNITS:
                values = {s["layers"][name] for s in traced}
                if len(values) > 1:
                    deterministic = False
                    print(f"{name} differs between traced sessions: {sorted(values)}",
                          file=sys.stderr)
                value = traced[0]["layers"][name]
            else:
                value = statistics.median(s["layers"][name] for s in traced)
            layers[name] = _metric(value, unit)
        report.update(layers)
        metrics = layers
    else:
        metrics = {name: report[name] for name in END_TO_END_UNITS}
    print(json.dumps({"workload": workload, "seed": seed, "sessions": len(sessions),
                      "traced_sessions": len(traced), "deterministic": deterministic,
                      "report": report}))
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed + (not deterministic),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fiidlab", "__init__.py")):
        print(f"error: no fiidlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run(name, args.seed, args.seconds, args.trace) for name in names]
    except SessionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
