"""Record the answer of every benchmark op for each input set.

usage: python3 perfbench/record.py

Runs every op of every workload in both profiles, untimed, for input sets
0..INPUT_SETS-1 and writes perfbench/references.json: per set and workload,
the digest of each op's answer fields.  An op that both profiles have must
give the same answer in both.  The sampling workload also gets the
exact pair law of its alphabet:3 t=2 rule, which its Monte Carlo law is
checked against.  Re-record only when the program's answers are meant to
change, and say so where the change is described.
"""

import json
import os
import shutil
import sys
import tempfile

from session import REFERENCES, ROOT, WORKDIR

sys.path.insert(0, os.path.join(ROOT, "src"))

from fiidlab import entropy, rules  # noqa: E402

import workloads  # noqa: E402


def exact_pair(index):
    seed = workloads.derive(index, "alphabet_rule")
    rule = rules.random_rule(3, 2, rules.alphabet(3), (0, 1, 2), seed)
    _, pair = entropy.exact_marginals(rule)
    return {f"{a},{b}": float(p) for (a, b), p in sorted(pair.probs.items())}


def record_set(index):
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        refs = {"alphabet3_t2_exact_pair": exact_pair(index)} if name == "sampling" else {}
        for profile in ("full", "smoke"):
            os.makedirs(WORKDIR, exist_ok=True)
            workdir = tempfile.mkdtemp(dir=WORKDIR)
            try:
                build, setup_ops, timed_ops = workload(
                    workloads.SIZES[profile], index, {"workdir": workdir, "references": refs}
                )
                build()
                for op in setup_ops + timed_ops:
                    _, answer, error = workloads.run_op(op)
                    if error is not None:
                        raise SystemExit(f"set {index}: {error}")
                    if refs.setdefault(op.name, answer) != answer:
                        raise SystemExit(f"set {index}: {op.name} differs between profiles")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        out[name] = refs
    return out


def main():
    sets = []
    for index in range(workloads.INPUT_SETS):
        sets.append(record_set(index))
        print(f"input set {index} recorded", file=sys.stderr)
    with open(REFERENCES, "w", encoding="ascii") as fh:
        json.dump({"input_sets": len(sets), "sets": sets}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
