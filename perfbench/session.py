"""One benchmark session: a fresh single-threaded process that runs one
workload once and prints its measurements as a JSON line.

usage: python3 perfbench/session.py WORKLOAD SEED PROFILE TRACE SPAWNED

SPAWNED is the parent's `time.monotonic()` just before it started this
process, so set-up time counts interpreter start.  With TRACE=1 the public
library functions are wrapped in spans and the per-layer metrics are added.
"""

import json
import os
import shutil
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")


def load_references(workload, index):
    with open(REFERENCES, encoding="ascii") as fh:
        sets = json.load(fh)["sets"]
    return sets[index][workload]


def main(argv):
    workload, seed, profile, traced, spawned = argv
    seed, traced, spawned = int(seed), traced == "1", float(spawned)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = perf_counter()
    import fiidlab.cli  # noqa: F401  (all six modules)

    import_s = perf_counter() - start
    import spans
    import workloads

    recorder = None
    if traced:
        recorder = spans.Recorder()
        recorder.install()
    index = seed % workloads.INPUT_SETS
    references = load_references(workload, index)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    ctx = {"workdir": workdir, "references": references}
    failures = []
    kinds = {}
    work_s = 0.0

    def checked(op):
        seconds, answer, error = workloads.run_op(op, recorder)
        if error is None and answer != references.get(op.name):
            error = f"{op.name}: answer {answer} != recorded {references.get(op.name)}"
        if error is not None:
            failures.append(error)
        return seconds

    try:
        build, setup_ops, timed_ops = workloads.WORKLOADS[workload](
            workloads.SIZES[profile], index, ctx
        )
        if recorder is not None:
            recorder.active = True
        build()
        if recorder is not None:
            recorder.active = False
        for op in setup_ops:
            checked(op)
        setup_s = time.monotonic() - spawned
        for op in timed_ops:
            seconds = checked(op)
            work_s += seconds
            row = kinds.setdefault(op.kind, [0, 0.0])
            row[0] += op.units() if callable(op.units) else op.units
            row[1] += seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in failures:
        print(f"op failed: {error}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "work_s": work_s,
        "attempted": len(setup_ops) + len(timed_ops),
        "failed": len(failures),
        "kinds": kinds,
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder, import_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
