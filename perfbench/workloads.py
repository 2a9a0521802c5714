"""The three benchmark workloads: inputs from a seed, set-up, and checked ops.

Every input a session uses derives from the workload seed through `derive`.
The seed selects one of `INPUT_SETS` recorded input sets (seed mod
INPUT_SETS), so each op's answer can be compared with the answer recorded in
`references.json` for that set.  `record.py` rewrites that file.

A workload is a function of (sizes, index, ctx) that returns a `build`
callable, which makes the rule-independent tables every op shares, and two
lists of `Op`s: those run during set-up (checked, untimed) and the timed ones.
An op's `prepare` builds its input (untimed), `run` makes the library or CLI
call (timed), and `answer` checks structural properties, raising
`CheckFailed`, and returns the JSON-able answer fields that are compared with
the reference.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from fiidlab import cli, entropy, graphs, homsearch, rules, simulate

INPUT_SETS = 32
D = 3

# Sizes per profile.  "smoke" keeps every per-op input whose answer does not
# depend on the profile (rule seeds, Monte Carlo counts, scan targets) and
# shrinks the rest; ops whose answer depends on the graph size carry n in
# their name.
SIZES = {
    "full": {"batches": 15, "graph_n": 20_000, "scans": 6},
    "smoke": {"batches": 1, "graph_n": 2_000, "scans": 2},
}
T1_SAMPLES = 100_000
GENERIC_SAMPLES = 6_000

# total-variation distance allowed between the Monte Carlo pair law of the
# alphabet:3 t=2 rule and its exact law, at GENERIC_SAMPLES = 6000: 2.5 times
# the largest distance (0.020) over the recorded input sets
MC_TV_BOUND = 0.05

C0 = "0.089"
C_PIPELINE = 5


class CheckFailed(Exception):
    pass


def derive(index, *labels):
    """A 63-bit seed for one input, from the input set and a purpose label."""
    text = ":".join([str(index), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str  # unique in a session; keys the reference answer
    kind: str  # ops of one kind share a rate on the report line
    prepare: Callable
    run: Callable
    answer: Callable
    # rules, samples or vertices this op processes; a callable for a count
    # that is known only after the workload's build
    units: int | Callable = 1


def run_op(op, recorder=None):
    """(seconds in op.run, answer digest or None, error or None).  Spans are
    recorded only around op.run."""
    seconds = 0.0
    try:
        arg = op.prepare()
        if recorder is not None:
            recorder.active = True
        start = perf_counter()
        try:
            result = op.run(arg)
        finally:
            seconds = perf_counter() - start
            if recorder is not None:
                recorder.active = False
        return seconds, digest(op.answer(result)), None
    except CheckFailed as exc:
        return seconds, None, f"{op.name}: {exc}"
    except Exception:  # a failing op is counted and reported; the session goes on
        return seconds, None, f"{op.name}: {traceback.format_exc()}"


# ---------------------------------------------------------------------------
# exact_laws


EXACT_CLASSES = (
    # (name, t, model, output alphabet)
    ("alphabet3_t2", 2, rules.alphabet(3), (0, 1, 2)),
    ("hybrid2_t1", 1, rules.hybrid(2), (0, 1, 2)),
    ("rank_t1_petersen", 1, rules.rank(), tuple(range(10))),
)
EXACT_BATCH = 20


def _fractions(dist_items):
    return [[str(k), str(v)] for k, v in dist_items]


def _law_answer(vertex, pair):
    return {
        "vertex": _fractions(zip(vertex.labels, vertex.p)),
        "pair": _fractions(sorted(pair.probs.items(), key=str)),
    }


def _audit_answer(res):
    return [[v.check, v.passed, round(v.margin, 9)] for v in res.verdicts]


def _exact_op(cls, index, first, count, petersen):
    """Rules first..first+count-1 of a class, each through its exact law and
    audit, or through the exact pipeline into Petersen."""
    name, t, model, alphabet = cls

    def prepare():
        return [
            rules.random_rule(D, t, model, alphabet, derive(index, name, i))
            for i in range(first, first + count)
        ]

    if model.kind == "rank":

        def run(batch):
            return [
                simulate.theorem_pipeline(rule, petersen, C0, C_PIPELINE, mode="exact")
                for rule in batch
            ]

        def answer(reports):
            require(all(r.classification for r in reports), "empty classification")
            return [
                [r.classification, [[s.index, s.name, s.passed] for s in r.steps]]
                for r in reports
            ]

    else:

        def run(batch):
            out = []
            for rule in batch:
                vertex, pair = entropy.exact_marginals(rule)
                out.append((vertex, pair, entropy.audit(vertex, pair, r=3)))
            return out

        def answer(results):
            require(
                all(sum(v.p) == 1 and sum(p.probs.values()) == 1 for v, p, _ in results),
                "law mass != 1",
            )
            return [{**_law_answer(v, p), "audit": _audit_answer(a)} for v, p, a in results]

    return Op(f"{name}/{first}", "exact_rule", prepare, run, answer, units=count)


def exact_laws(sizes, index, ctx):
    """Set-up enumerates the canonical balls and runs rule 0 of each class,
    which carries the rule-independent edge-ball build of its class; the
    timed ops are batches of EXACT_BATCH further rules."""

    def build():
        for _, t, model, _ in EXACT_CLASSES:
            rules.enumerate_canonical_balls(D, t, model)

    petersen = graphs.named_graph("Petersen")
    setup_ops = [_exact_op(cls, index, 0, 1, petersen) for cls in EXACT_CLASSES]
    timed_ops = [
        _exact_op(cls, index, 1 + b * EXACT_BATCH, EXACT_BATCH, petersen)
        for cls in EXACT_CLASSES
        for b in range(sizes["batches"])
    ]
    return build, setup_ops, timed_ops


# ---------------------------------------------------------------------------
# sampling: the README's CLI journey, through cli.main in one process


def cli_call(argv):
    """Run one CLI command in-process; returns (exit code, payload)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--no-timestamp", *argv])
    lines = buf.getvalue().splitlines()
    require(lines, f"no output from {argv[:2]}")
    return code, json.loads(lines[-1])["payload"]


def _cli_ok(result):
    code, payload = result
    require(code == 0, f"exit code {code}")
    return payload


def _read_graph_edges(path):
    with open(path, encoding="ascii") as fh:
        n, m = map(int, fh.readline().split())
        edges = [tuple(map(int, line.split())) for line in fh if line.strip()]
    require(len(edges) == m, f"graph file lists {len(edges)} edges, header says {m}")
    return n, edges


def _graph_answer(path, n_expected):
    """Checks that the graph file is simple and 3-regular; its answer is the
    size and a digest of the sorted edge set."""
    n, edges = _read_graph_edges(path)
    require(n == n_expected, f"graph has {n} vertices, asked for {n_expected}")
    degree = [0] * n
    seen = set()
    for u, v in edges:
        require(0 <= u < n and 0 <= v < n, f"edge {u} {v} out of range")
        require(u != v, f"loop at {u}")
        key = (min(u, v), max(u, v))
        require(key not in seen, f"double edge {key}")
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    require(all(x == D for x in degree), "graph is not 3-regular")
    return {"n": n, "m": len(edges), "edges": digest(sorted(seen))}


def _rule_file_answer(path):
    with open(path, encoding="ascii") as fh:
        return digest(fh.read())


# smallest covered fraction allowed for an emulation on a graph of n vertices:
# just below the smallest over the recorded input sets and both rules
# (0.99745 at n=20000, 0.9645 at n=2000, both from the t=2 rule)
COVERED_FLOOR = {20_000: 0.997, 2_000: 0.96}


def _emulation_answer(payload, labels):
    hist = payload["histogram"]
    require(sum(hist.values()) == payload["covered"], "histogram does not sum to covered")
    require(set(hist) <= {str(x) for x in labels}, f"labels {sorted(hist)} outside {labels}")
    floor = COVERED_FLOOR[payload["n"]]
    require(floor <= payload["covered_fraction"] <= 1.0,
            f"covered fraction {payload['covered_fraction']} below {floor}")
    return {"covered": payload["covered"], "histogram": hist,
            "seed_collisions": payload["seed_collisions"]}


def _mc_law(payload, samples):
    require(payload["samples"] == samples, "sample count differs")
    return {"vertex": payload["vertex"], "pair": payload["pair"]}


def _tv_from_exact(pair, exact_pair):
    keys = set(pair) | set(exact_pair)
    return 0.5 * sum(abs(pair.get(k, 0.0) - exact_pair.get(k, 0.0)) for k in keys)


def sampling(sizes, index, ctx):
    work = ctx["workdir"]
    graph = os.path.join(work, "g.graph")
    alpha_rule = os.path.join(work, "alphabet3_t2.rule")
    rank_rule = os.path.join(work, "rank_t2.rule")
    n = sizes["graph_n"]

    def graph_gen(payload):
        require(payload["n"] == n and payload["m"] == n * D // 2, "wrong graph size")
        return _graph_answer(graph, n)

    def graph_profile(payload):
        require(payload["regular_degree"] == D and payload["n"] == n, "profile is not 3-regular")
        girth = payload["girth"]
        require(isinstance(girth, int) and 3 <= girth <= 2 * math.log2(n) + 1, f"girth {girth}")
        return {k: payload[k] for k in ("n", "m", "girth", "connected", "bipartite")}

    def sim_is(payload):
        answer = _emulation_answer(payload, ("IN", "OUT"))
        iset = payload["independent_set"]
        require(iset["adjacent_in_in"] == 0, "IS rule produced an IN-IN edge")
        require(iset["size"] == payload["histogram"].get("IN", 0), "IS size != IN count")
        return {**answer, "is_size": iset["size"]}

    def sim_k3(payload):
        answer = _emulation_answer(payload, (0, 1, 2))
        violating, covered_edges = payload["violating_edges"], payload["covered_edges"]
        require(0 <= violating <= covered_edges, "edge counts")
        return {**answer, "covered_edges": covered_edges, "violating_edges": violating}

    def mc_alpha(payload):
        law = _mc_law(payload, GENERIC_SAMPLES)
        tv = _tv_from_exact(payload["pair"], ctx["references"]["alphabet3_t2_exact_pair"])
        require(tv <= MC_TV_BOUND, f"TV {tv:.4f} from the exact law > {MC_TV_BOUND}")
        return law

    def rule_file(path):
        return lambda payload: _rule_file_answer(path)

    def op(name, kind, argv, check, units=1):
        return Op(name, kind, lambda: argv, cli_call, lambda r: check(_cli_ok(r)), units)

    def seed(label):
        return ["--seed", str(derive(index, label))]

    is_rule = "builtin:max_seed_independent"
    alphabet = ["--alphabet", "0,1,2"]
    return lambda: None, [], [
        op(f"graph_gen/{n}", "graph_gen",
           ["graph", "gen", "--n", str(n), "--d", "3", *seed("graph"), "--out", graph],
           graph_gen, n),
        op(f"graph_profile/{n}", "graph_profile", ["graph", "profile", "--target", graph],
           graph_profile),
        op(f"sim_run_is/{n}", "sim_run",
           ["sim", "run", "--rule", is_rule, "--graph", graph, *seed("sim_is")], sim_is, n),
        op("rule_random_alphabet3_t2", "rule_random",
           ["rule", "random", "--t", "2", "--model", "alphabet:3", *alphabet,
            *seed("alphabet_rule"), "--out", alpha_rule],
           rule_file(alpha_rule)),
        op(f"sim_run_k3/{n}", "sim_run",
           ["sim", "run", "--rule", alpha_rule, "--graph", graph, "--target", "K3",
            *seed("sim_k3")],
           sim_k3, n),
        op("mc_rank_t1", "mc_t1",
           ["entropy", "mc", "--rule", is_rule, "--samples", str(T1_SAMPLES), *seed("mc_t1")],
           lambda payload: _mc_law(payload, T1_SAMPLES), T1_SAMPLES),
        op("mc_alphabet3_t2", "mc_generic",
           ["entropy", "mc", "--rule", alpha_rule, "--samples", str(GENERIC_SAMPLES),
            *seed("mc_alphabet")],
           mc_alpha, GENERIC_SAMPLES),
        op("rule_random_rank_t2", "rule_random",
           ["rule", "random", "--t", "2", "--model", "rank", *alphabet, *seed("rank_rule"),
            "--out", rank_rule],
           rule_file(rank_rule)),
        op("mc_rank_t2", "mc_generic",
           ["entropy", "mc", "--rule", rank_rule, "--samples", str(GENERIC_SAMPLES),
            *seed("mc_rank")],
           lambda payload: _mc_law(payload, GENERIC_SAMPLES), GENERIC_SAMPLES),
    ]


# ---------------------------------------------------------------------------
# search: exhaustive homsearch scans; the edge-ball tables are built in set-up


SCANS = (
    # (name, model, target, force_enumeration); the smoke profile keeps the
    # first two
    ("rank_t1_C5", rules.rank(), "C5", False),
    ("alphabet2_t1_K4", rules.alphabet(2), "K4", True),
    ("rank_t1_Petersen", rules.rank(), "Petersen", False),
    ("rank_t1_Heawood", rules.rank(), "Heawood", False),
    ("rank_t1_McGee", rules.rank(), "McGee", False),
    ("alphabet2_t1_C5", rules.alphabet(2), "C5", True),
)


def _relabelled(name, seed):
    """The named graph with its vertices renamed by a seeded permutation."""
    H = graphs.named_graph(name)
    perm = list(range(H.n))
    random.Random(seed).shuffle(perm)
    return graphs.build_graph(H.n, [(perm[u], perm[v]) for u, v in H.edges()])


def _scan_op(scan, index):
    name, model, target, force = scan
    budget_seed = derive(index, name, "witnesses")
    labels = graphs.named_graph(target).n

    def rule_count():
        # called after build(), so the cold enumeration stays inside its span
        return labels ** len(rules.enumerate_canonical_balls(D, 1, model))

    def prepare():
        return _relabelled(target, derive(index, name, "labels"))

    def run(H):
        budget = homsearch.SearchBudget(rng_seed=budget_seed)
        return homsearch.search(H, D, 1, model, budget=budget, force_enumeration=force)

    def answer(outcome):
        require(outcome.kind == "ExhaustedNone", f"search ended {outcome.kind}")
        require(outcome.rules_examined == rule_count(), "rules_examined != L^|balls|")
        return {
            "kind": outcome.kind,
            "rules_examined": outcome.rules_examined,
            "witnesses": [[i, list(w.config), list(w.outputs)] for i, w in outcome.witnesses],
        }

    return Op(name, "scan", prepare, run, answer, units=rule_count)


def search(sizes, index, ctx):
    def build():
        for model in (rules.rank(), rules.alphabet(2)):
            rules.enumerate_canonical_balls(D, 1, model)
            rules.edge_pair_table(D, 1, model)

    return build, [], [_scan_op(scan, index) for scan in SCANS[: sizes["scans"]]]


WORKLOADS = {"exact_laws": exact_laws, "sampling": sampling, "search": search}
