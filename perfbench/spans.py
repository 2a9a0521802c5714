"""Spans around the public functions of fiidlab's six modules.

`Recorder.install` assigns a wrapper onto each traced function's module, so
calls made inside the package through module globals are caught as well as
the benchmark's own.  Spans (name, parent span, start, end) are kept in
arrays in memory while the session runs; `layer_metrics` turns them into the
per-layer metrics when it ends.  A span's self time is its duration minus the
durations of its child spans.
"""

import functools
import importlib
import inspect
import statistics
from array import array
from time import perf_counter

TRACED = {
    "rules": (
        "canonicalize",
        "enumerate_canonical_balls_weighted",
        "make_rule",
        "random_rule",
        "edge_pair_table",
        "evaluate",
        "endpoint_codes",
    ),
    "entropy": ("exact_marginals", "mc_marginals", "audit"),
    "graphs": ("random_regular", "profile", "girth", "write_graph", "read_graph"),
    "simulate": ("run_on_graph", "theorem_pipeline"),
    "homsearch": ("search", "is_homomorphism_rule"),
    "cli": ("main",),
}

# per-layer metric -> unit; "count" and "ratio" metrics must repeat exactly
# for a fixed seed
LAYER_UNITS = {
    "rules.canonicalize.calls": "count",
    "rules.canonicalize.self_s": "s",
    "rules.canonicalize.us_per_call": "us",
    "rules.enumerate_canonical_balls_weighted.self_s": "s",
    "rules.enumerate_canonical_balls_weighted.hit_ratio": "ratio",
    "rules.make_rule.self_s": "s",
    "rules.edge_pair_table.self_s": "s",
    "rules.edge_pair_table.configs": "count",
    "rules.evaluate.calls": "count",
    "rules.endpoint_codes.calls": "count",
    "entropy.exact_marginals.cold_s": "s",
    "entropy.exact_marginals.warm_ms_p50": "ms",
    "entropy.exact_marginals.warm_ms_p90": "ms",
    "entropy.audit.self_s": "s",
    "simulate.theorem_pipeline.self_s": "s",
    "entropy.mc_marginals.samples": "count",
    "entropy.mc_marginals.generic_us_per_sample": "us",
    "entropy.mc_marginals.rank_t1_us_per_sample": "us",
    "graphs.random_regular.self_s": "s",
    "graphs.girth.self_s": "s",
    "graphs.write_graph.self_s": "s",
    "graphs.read_graph.self_s": "s",
    "simulate.run_on_graph.self_s": "s",
    "simulate.run_on_graph.us_per_vertex": "us",
    "simulate.run_on_graph.covered_fraction": "ratio",
    "homsearch.search.self_s": "s",
    "homsearch.search.rules_examined": "count",
    "homsearch.search.us_per_rule": "us",
    "homsearch.is_homomorphism_rule.calls": "count",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

EXACT_UNITS = ("count", "ratio")


class Recorder:
    def __init__(self):
        self.active = False  # spans are recorded only while the library is being timed
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.seen = set()  # (function, key) pairs met before: cache hits or warm calls
        self.tally = {}

    def add(self, key, amount):
        self.tally[key] = self.tally.get(key, 0) + amount

    def first_time(self, function, key):
        if (function, key) in self.seen:
            return False
        self.seen.add((function, key))
        return True

    def install(self):
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"fiidlab.{module_name}")
            for fname in functions:
                qualname = f"{module_name}.{fname}"
                fn = getattr(module, fname)
                setattr(module, fname, self._wrap(qualname, fn, HOOKS.get(qualname)))

    def _wrap(self, qualname, fn, hook):
        sid = len(self.names)
        self.names.append(qualname)
        signature = inspect.signature(fn)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec.stack
            idx = len(rec.span_name)
            rec.span_name.append(sid)
            rec.span_parent.append(stack[-1])
            rec.span_start.append(0.0)
            rec.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.span_start[idx] = start
                rec.span_end[idx] = end
            if hook is not None:
                hook(rec, signature.bind(*args, **kwargs).arguments, result, end - start)
            return result

        return traced

    def per_function(self):
        """{qualname: [calls, total_s, self_s]} over all recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out


# hooks: (recorder, bound arguments, result, seconds) after each traced call


def _enum_hook(rec, a, result, dt):
    if not rec.first_time("enum", (a["d"], a["t"], a["model"])):
        rec.add("enum_hits", 1)


def _pair_table_hook(rec, a, result, dt):
    if rec.first_time("pair_table", (a["d"], a["t"], a["model"])):
        rec.add("pair_table_configs", result.total)


def _exact_hook(rec, a, result, dt):
    rule = a["rule"]
    if rec.first_time("exact", (rule.d, rule.t, rule.model)):
        rec.add("exact_cold_s", dt)
    else:
        rec.tally.setdefault("exact_warm_s", []).append(dt)


def _mc_hook(rec, a, result, dt):
    rule, n = a["rule"], a["n_samples"]
    path = "rank_t1" if rule.model.kind == "rank" and rule.t == 1 else "generic"
    rec.add("mc_samples", n)
    rec.add(f"mc_{path}_samples", n)
    rec.add(f"mc_{path}_s", dt)


def _run_on_graph_hook(rec, a, result, dt):
    rec.add("graph_vertices", a["G"].n)
    rec.add("graph_covered", result[1].covered)


def _search_hook(rec, a, result, dt):
    rec.add("rules_examined", result.rules_examined)


HOOKS = {
    "rules.enumerate_canonical_balls_weighted": _enum_hook,
    "rules.edge_pair_table": _pair_table_hook,
    "entropy.exact_marginals": _exact_hook,
    "entropy.mc_marginals": _mc_hook,
    "simulate.run_on_graph": _run_on_graph_hook,
    "homsearch.search": _search_hook,
}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(rec, import_s):
    """Every per-layer metric except trace.overhead_s, which needs an
    untraced session."""
    fn = rec.per_function()
    tally = rec.tally

    def calls(name):
        return fn[name][0]

    def total(name):
        return fn[name][1]

    def self_s(name):
        return fn[name][2]

    warm_ms = [1000 * x for x in tally.get("exact_warm_s", [])]
    enum_calls = calls("rules.enumerate_canonical_balls_weighted")
    return {
        "rules.canonicalize.calls": calls("rules.canonicalize"),
        "rules.canonicalize.self_s": self_s("rules.canonicalize"),
        "rules.canonicalize.us_per_call": _ratio(
            self_s("rules.canonicalize"), calls("rules.canonicalize"), 1e6
        ),
        "rules.enumerate_canonical_balls_weighted.self_s": self_s(
            "rules.enumerate_canonical_balls_weighted"
        ),
        "rules.enumerate_canonical_balls_weighted.hit_ratio": _ratio(
            tally.get("enum_hits", 0), enum_calls
        ),
        "rules.make_rule.self_s": self_s("rules.make_rule"),
        "rules.edge_pair_table.self_s": self_s("rules.edge_pair_table"),
        "rules.edge_pair_table.configs": tally.get("pair_table_configs", 0),
        "rules.evaluate.calls": calls("rules.evaluate"),
        "rules.endpoint_codes.calls": calls("rules.endpoint_codes"),
        "entropy.exact_marginals.cold_s": tally.get("exact_cold_s", 0.0),
        "entropy.exact_marginals.warm_ms_p50": _percentile(warm_ms, 50),
        "entropy.exact_marginals.warm_ms_p90": _percentile(warm_ms, 90),
        "entropy.audit.self_s": self_s("entropy.audit"),
        "simulate.theorem_pipeline.self_s": self_s("simulate.theorem_pipeline"),
        "entropy.mc_marginals.samples": tally.get("mc_samples", 0),
        "entropy.mc_marginals.generic_us_per_sample": _ratio(
            tally.get("mc_generic_s", 0.0), tally.get("mc_generic_samples", 0), 1e6
        ),
        "entropy.mc_marginals.rank_t1_us_per_sample": _ratio(
            tally.get("mc_rank_t1_s", 0.0), tally.get("mc_rank_t1_samples", 0), 1e6
        ),
        "graphs.random_regular.self_s": self_s("graphs.random_regular"),
        "graphs.girth.self_s": self_s("graphs.girth"),
        "graphs.write_graph.self_s": self_s("graphs.write_graph"),
        "graphs.read_graph.self_s": self_s("graphs.read_graph"),
        "simulate.run_on_graph.self_s": self_s("simulate.run_on_graph"),
        "simulate.run_on_graph.us_per_vertex": _ratio(
            total("simulate.run_on_graph"), tally.get("graph_vertices", 0), 1e6
        ),
        "simulate.run_on_graph.covered_fraction": _ratio(
            tally.get("graph_covered", 0), tally.get("graph_vertices", 0)
        ),
        "homsearch.search.self_s": self_s("homsearch.search"),
        "homsearch.search.rules_examined": tally.get("rules_examined", 0),
        "homsearch.search.us_per_rule": _ratio(
            total("homsearch.search"), tally.get("rules_examined", 0), 1e6
        ),
        "homsearch.is_homomorphism_rule.calls": calls("homsearch.is_homomorphism_rule"),
        "cli.import_s": import_s,
        "cli.main.self_s": self_s("cli.main"),
    }
