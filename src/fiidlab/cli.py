"""Command-line front end: every subcommand prints one JSON report line.

Exit codes: 0 success (and audited property holds), 1 the audited property
fails or a search is inconclusive, 2 usage or input errors.  Randomized
subcommands either take --seed or record the seed they generated, so every
run is reproducible; with --no-timestamp the output is byte-identical across
repeats of the same command line when it gives --seed.  Without it, graph
gen, rule random, entropy mc and sim run draw a fresh seed each run and
print it; entropy audit --samples, sim pipeline --samples and hom search
use seed 0 and print none.

Each refusal is made once, where its input arrives: the parser refuses
usage (a missing flag, a --name outside its choices, not exactly one of
--exact and --samples N); a handler, what needs two flags or a loaded file
(--seed with --exact in `entropy audit`, --d against a rule file); the
library, values out of range (a sample count below 1, a seed in exact mode)
and classes past a budget.  Every refusal exits 2 with nothing on stdout.

`argparse` loads where the parser is built and `datetime` where an envelope
is stamped, so a process that imports this module without parsing a command
line, or prints only under --no-timestamp, loads neither.
"""

import errno
import json
import os
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

from . import SCHEMA_VERSION, __version__, entropy, graphs, homsearch, jsonable, rules, simulate
from . import write_lines


class UsageError(Exception):
    pass


RULE_D_HELP = "degree of a builtin rule (default 3); a rule file's d must match it"


def _emit(args, payload):
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command_echo,
        "payload": jsonable(payload),
    }
    if not args.no_timestamp:
        from datetime import datetime, timezone

        envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
    line = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    print(line)


def _label(token):
    """The label a command-line token names.  A token whose label prints as
    other text is refused, as a rule file could not carry it: 007 reads as 7."""
    label = rules._parse_label(token)
    if str(label) != token:
        raise UsageError(f"label {token!r} reads as {label!r}, which prints as {str(label)!r}")
    return label


def _alphabet(spec):
    return tuple(map(_label, spec.split(",")))


def _load_target(spec, flag="--target"):
    try:
        return graphs.named_graph(spec)
    except graphs.UnknownName:
        pass
    try:
        return graphs.read_graph(spec)
    except OSError as exc:
        raise UsageError(f"{flag} {spec!r} is neither a named graph nor a readable file: {exc}")


def _load_rule(spec, d, target=None):
    """The rule of --rule.  A builtin rule is built at --d (3 when absent); a
    rule file carries its own d, which --d, when given, must match.  A
    builtin:constant rule outputs into the loaded target's vertices, when
    there is a target."""
    if spec.startswith("builtin:"):
        d = 3 if d is None else d
        if spec == "builtin:max_seed_independent":
            return rules.builtin_rule("max_seed_independent", d=d)
        if spec.startswith("builtin:constant:"):
            label = _label(spec[len("builtin:constant:"):])
            out = None if target is None else tuple(range(target.n))
            return rules.builtin_rule("constant", label=label, d=d, output_alphabet=out)
        if spec == "builtin:constant":
            raise UsageError("builtin:constant needs a label, e.g. builtin:constant:0")
        raise UsageError(f"unknown builtin rule spec {spec!r}")
    try:
        rule = rules.load_rule(spec)
    except OSError as exc:
        raise UsageError(f"cannot read rule file {spec!r}: {exc}")
    if d is not None and d != rule.d:
        raise UsageError(f"--d {d} disagrees with d = {rule.d} in rule file {spec!r}")
    return rule


def _check_out_dir(path):
    """Refuse an output path in a missing directory before any work, with
    the error that opening it would raise; a path of None is no output."""
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _seed_of(args, payload):
    if args.seed is not None:
        payload["seed"] = args.seed
        return args.seed
    seed = random.SystemRandom().randrange(1 << 63)
    payload["seed"] = seed
    return seed


def _dist_payload(dist):
    return {"labels": list(dist.labels), "p": {str(a): x for a, x in zip(dist.labels, dist.p)}}


def _pair_payload(pair):
    return {
        f"{a},{b}": x for (a, b), x in sorted(pair.probs.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    }


def _audit_payload(res):
    verdicts = [{"check": v.check, "pass": v.passed, "margin": v.margin} for v in res.verdicts]
    return {**asdict(res), "verdicts": verdicts}


def _certificate_payload(cert):
    # an alphabet certificate's q names its model; hybrid:q shares q, so
    # the other models print their name
    if cert.model.kind == "alphabet":
        model = {"q": cert.model.q}
    else:
        model = {"model": str(cert.model)}
    return {"d": cert.d, "t": cert.t, **model, "config": cert.config, "reasoning": cert.reasoning}


def _search_payload(out):
    return {
        "kind": out.kind,
        "rules_examined": out.rules_examined,
        "witnesses_stored": len(out.witnesses),
        "witness_sample": [
            {"rule_index": idx, **asdict(w)} for idx, w in out.witnesses[:10]
        ],
        "class_caveat": out.caveat,
        "certificate": None if out.certificate is None else _certificate_payload(out.certificate),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: return (payload, exit_code)


def _cmd_graph_gen(args):
    _check_out_dir(args.out)
    payload = {}
    seed = _seed_of(args, payload)
    G = graphs.random_regular(args.n, args.d, seed)
    graphs.write_graph(G, args.out)
    payload.update({"n": G.n, "d": args.d, "m": G.m, "path": args.out})
    return payload, 0


def _cmd_graph_profile(args):
    G = _load_target(args.target)
    return {"target": args.target, "n": G.n, "m": G.m, **asdict(graphs.profile(G))}, 0


def _cmd_graph_invariants(args):
    G = _load_target(args.target)
    alpha, chi = graphs.exact_invariants(G)
    return {
        "target": args.target,
        "independence_number": alpha,
        "chromatic_number": chi,
    }, 0


def _rule_summary(rule):
    return {
        "d": rule.d,
        "t": rule.t,
        "model": str(rule.model),
        "output_alphabet": list(rule.output_alphabet),
        "table_size": len(rule.outputs),
    }


def _cmd_rule_make(args):
    _check_out_dir(args.out)
    if args.name == "constant":
        if args.label is None:
            raise UsageError("rule make --name constant needs --label")
        out = _alphabet(args.alphabet) if args.alphabet else None
        rule = rules.builtin_rule(
            "constant", label=_label(args.label), d=args.d, output_alphabet=out
        )
    else:
        for flag in ("label", "alphabet"):
            if getattr(args, flag) is not None:
                raise UsageError(f"rule make --name max_seed_independent takes no --{flag}")
        rule = rules.builtin_rule("max_seed_independent", d=args.d)
    payload = _rule_summary(rule)
    if args.out:
        rules.save_rule(rule, args.out)
        payload["path"] = args.out
    return payload, 0


def _cmd_rule_random(args):
    _check_out_dir(args.out)
    model = rules.SeedModel.parse(args.model)
    out = _alphabet(args.alphabet)
    payload = {}
    seed = _seed_of(args, payload)
    rule = rules.random_rule(args.d, args.t, model, out, seed)
    if args.out:
        rules.save_rule(rule, args.out)
        payload["path"] = args.out
    payload.update(_rule_summary(rule))
    return payload, 0


def _cmd_rule_show(args):
    rule = _load_rule(args.rule, args.d)
    payload = _rule_summary(rule)
    codes = rules.enumerate_canonical_balls(rule.d, rule.t, rule.model)
    payload["table"] = {code.hex(): str(rule.output_alphabet[i]) for code, i in zip(codes, rule.outputs)}
    return payload, 0


def _laws_payload(vertex, pair):
    return {
        "vertex": _dist_payload(vertex),
        "pair": _pair_payload(pair),
        "h_vertex": entropy.entropy(vertex),
        "h_edge": entropy.joint_entropy(pair),
        "h_nbr_given_vertex": entropy.conditional_entropy(pair),
    }


def _cmd_entropy_exact(args):
    rule = _load_rule(args.rule, args.d)
    return _laws_payload(*entropy.exact_marginals(rule)), 0


def _cmd_entropy_mc(args):
    rule = _load_rule(args.rule, args.d)
    payload = {"samples": args.samples}
    seed = _seed_of(args, payload)
    payload.update(_laws_payload(*entropy.mc_marginals(rule, args.samples, seed)))
    return payload, 0


def _cmd_entropy_audit(args):
    # the one check that reads two flags: only a Monte Carlo run reads --seed
    if args.exact and args.seed is not None:
        raise UsageError("--seed applies only to --samples runs, not to --exact")
    H = _load_target(args.target) if args.target else None
    rule = _load_rule(args.rule, args.d, H)
    if args.exact:
        vertex, pair = entropy.exact_marginals(rule)
    else:
        vertex, pair = entropy.mc_marginals(rule, args.samples, args.seed or 0)
    res = entropy.audit(vertex, pair, r=args.r, H=H, d=rule.d)
    return _audit_payload(res), 0 if res.all_passed() else 1


def _cmd_entropy_constant(args):
    return {"C": entropy.min_girth_constant(args.r, args.c0)}, 0


def _cmd_entropy_tail(args):
    if args.probs is not None:
        if args.d is not None:
            raise UsageError("entropy tail takes --d only with --rule")
        try:
            masses = [Fraction(x) for x in args.probs.split(",")]
        except ZeroDivisionError:
            raise ValueError(f"--probs {args.probs!r} has a zero denominator") from None
        dist = entropy.LabelDistribution(
            tuple(range(len(masses))), tuple(masses), entropy.EXACT
        )
    else:
        rule = _load_rule(args.rule, args.d)
        dist, _ = entropy.exact_marginals(rule)
    sel = entropy.tail_select(dist, args.C, args.c0)
    return sel, 0


def _cmd_hom_check(args):
    H = _load_target(args.target)
    rule = _load_rule(args.rule, args.d, H)
    res = homsearch.is_homomorphism_rule(rule, H)
    payload = {
        "passed": res.passed,
        "verdict": "homomorphism rule (exact scan)" if res.passed else "violation found",
        "witness": None if res.witness is None else asdict(res.witness),
    }
    return payload, 0 if res.passed else 1


def _cmd_hom_search(args):
    H = _load_target(args.target)
    model = rules.SeedModel.parse(args.model)
    budget = homsearch.SearchBudget(
        max_rules=args.max_rules, rng_seed=args.seed or 0
    )
    out = homsearch.search(H, args.d, args.t, model, budget=budget)
    return _search_payload(out), 0 if out.kind != "BudgetExceeded" else 1


def _cmd_hom_certificate(args):
    H = _load_target(args.target)
    model = rules.SeedModel.parse(args.model)
    cert = homsearch.impossibility_certificate(H, args.d, args.t, model)
    return _certificate_payload(cert), 0


def _cmd_sim_run(args):
    _check_out_dir(args.labels_out)
    H = _load_target(args.target) if args.target else None
    rule = _load_rule(args.rule, args.d, H)
    G = _load_target(args.graph, "--graph")
    payload = {}
    seed = _seed_of(args, payload)
    labeling, report = simulate.run_on_graph(rule, G, seed, target=H)
    if args.labels_out:
        with open(args.labels_out, "w", encoding="ascii") as fh:
            write_lines(fh, (f"{v} {labeling[v]}\n" for v in sorted(labeling)))
        payload["labels_path"] = args.labels_out
    payload.update(asdict(report))
    return payload, 0


def _cmd_sim_pipeline(args):
    H = _load_target(args.target)
    rule = _load_rule(args.rule, args.d, H)
    mode = "exact" if args.exact else "mc"
    report = simulate.theorem_pipeline(
        rule, H, args.c0, args.C, mode=mode, samples=args.samples, rng_seed=args.seed
    )
    refuted = report.classification.startswith("refuted")
    return report, 0 if refuted else 1


# ---------------------------------------------------------------------------
# parser


def _u64(text):
    """A --seed value: an int in 0..2^64-1.  random.Random seeds from the
    absolute value, so a negative seed would repeat another seed's output."""
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"{value} is not in 0..2^64-1")
    return value


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fiidlab",
        description="local rules on regular trees: marginals, entropy audits, "
        "homomorphism search, and finite-graph emulation",
    )
    parser.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    top = parser.add_subparsers(dest="group", required=True)

    def common(p, *names):
        if "seed" in names:
            p.add_argument("--seed", type=_u64, default=None, help="master rng seed (u64)")
        if "target" in names:
            p.add_argument("--target", default=None, help="named graph or graph file path")
        if "rule" in names:
            p.add_argument("--rule", required=True, help="builtin:<name> or rule file path")
            p.add_argument("--d", type=int, default=None, help=RULE_D_HELP)
        if "dt" in names:
            p.add_argument("--d", type=int, default=3)
            p.add_argument("--t", type=int, default=1)
        if "model" in names:
            p.add_argument("--model", required=True, help="alphabet:q | rank | hybrid:q")
        if "out" in names:
            p.add_argument("--out", default=None, help="output file path")

    def exact_or_samples(p):
        laws = p.add_mutually_exclusive_group(required=True)
        laws.add_argument("--exact", action="store_true")
        laws.add_argument("--samples", type=int, default=None)

    graph = top.add_parser("graph", help="graph construction and invariants").add_subparsers(
        dest="sub", required=True
    )
    g = graph.add_parser("gen", help="random regular graph to a file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    common(g, "seed")
    g.add_argument("--out", required=True, help="output file path")
    g.set_defaults(func=_cmd_graph_gen)
    g = graph.add_parser("profile", help="girth, regularity, bipartiteness, connectivity")
    g.add_argument("--target", required=True)
    g.set_defaults(func=_cmd_graph_profile)
    g = graph.add_parser("invariants", help="exact independence and chromatic numbers")
    g.add_argument("--target", required=True)
    g.set_defaults(func=_cmd_graph_invariants)

    rule = top.add_parser("rule", help="rule construction and inspection").add_subparsers(
        dest="sub", required=True
    )
    r = rule.add_parser("make", help="a built-in rule, optionally saved to a file")
    r.add_argument("--name", required=True, choices=("constant", "max_seed_independent"))
    r.add_argument("--label", default=None)
    r.add_argument("--alphabet", default=None, help="comma-separated output labels")
    r.add_argument("--d", type=int, default=3)
    common(r, "out")
    r.set_defaults(func=_cmd_rule_make)
    r = rule.add_parser("random", help="uniform random rule table")
    common(r, "dt", "model", "seed", "out")
    r.add_argument("--alphabet", required=True, help="comma-separated output labels")
    r.set_defaults(func=_cmd_rule_random)
    r = rule.add_parser("show", help="rule header and table")
    common(r, "rule")
    r.set_defaults(func=_cmd_rule_show)

    entg = top.add_parser("entropy", help="marginals, entropies, audits").add_subparsers(
        dest="sub", required=True
    )
    e = entg.add_parser("exact", help="exact marginals and entropies of a rule")
    common(e, "rule")
    e.set_defaults(func=_cmd_entropy_exact)
    e = entg.add_parser("mc", help="Monte Carlo marginals of a rule")
    common(e, "rule", "seed")
    e.add_argument("--samples", type=int, required=True)
    e.set_defaults(func=_cmd_entropy_mc)
    e = entg.add_parser("audit", help="entropy inequality audit (exit 1 on failure)")
    common(e, "rule", "seed", "target")
    exact_or_samples(e)
    e.add_argument("--r", type=int, default=None, help="target regularity for the caps")
    e.set_defaults(func=_cmd_entropy_audit)
    e = entg.add_parser("constant", help="least integer above r^(3/c0), the d=3 constant")
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--c0", required=True)
    e.set_defaults(func=_cmd_entropy_constant)
    e = entg.add_parser("tail", help="top C-1 labels, tail mass and entropy")
    law = e.add_mutually_exclusive_group(required=True)
    law.add_argument("--rule", default=None)
    law.add_argument("--probs", default=None, help="comma-separated masses, e.g. 1/4,1/4,1/2")
    e.add_argument("--C", type=int, required=True)
    e.add_argument("--c0", required=True)
    e.add_argument("--d", type=int, default=None, help=RULE_D_HELP)
    e.set_defaults(func=_cmd_entropy_tail)

    hom = top.add_parser("hom", help="homomorphism rule checks and search").add_subparsers(
        dest="sub", required=True
    )
    h = hom.add_parser("check", help="is the rule a homomorphism rule into the target")
    common(h, "rule")
    h.add_argument("--target", required=True)
    h.set_defaults(func=_cmd_hom_check)
    h = hom.add_parser("search", help="scan a whole rule class against the target")
    h.add_argument("--target", required=True)
    common(h, "dt", "model", "seed")
    h.add_argument("--max-rules", type=int, default=homsearch.SearchBudget.max_rules)
    h.set_defaults(func=_cmd_hom_search)
    h = hom.add_parser("certificate", help="impossibility certificate into a loopless target")
    h.add_argument("--target", required=True)
    common(h, "dt", "model")
    h.set_defaults(func=_cmd_hom_certificate)

    sim = top.add_parser("sim", help="emulation and the refutation pipeline").add_subparsers(
        dest="sub", required=True
    )
    s = sim.add_parser("run", help="run a rule on a finite graph")
    common(s, "rule", "seed", "target")
    s.add_argument("--graph", required=True, help="substrate graph (name or path)")
    s.add_argument("--labels-out", default=None, help="write 'vertex label' lines here")
    s.set_defaults(func=_cmd_sim_run)
    s = sim.add_parser("pipeline", help="five-step refutation chain (exit 1 when inconclusive)")
    common(s, "rule", "seed")
    s.add_argument("--target", required=True)
    s.add_argument("--c0", required=True)
    s.add_argument("--C", type=int, required=True)
    exact_or_samples(s)
    s.set_defaults(func=_cmd_sim_pipeline)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.command_echo = argv
    try:
        payload, code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        graphs.GraphError,
        rules.RuleError,
        entropy.EntropyError,
        simulate.DegreeMismatch,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(args, payload)
    return code


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
