"""Acceptance suite: one test per criterion, each printing a pass/fail line
into the terminal summary.  Run with `pytest tests/test_acceptance.py -v`.

The headline girth threshold is astronomically large for any realistic c0,
so no girth-threshold graph can be built; these criteria check the exact
desk-scale components instead: chain rule and the edge-vertex inequality
over a 200-rule corpus, the entropy caps on edge-supported laws, the
max-seed rule's exact and sampled laws, the girth constant, tail selection,
exhaustive homomorphism search, large-graph emulation, the pipeline's
worked numbers, and the graph oracles.
"""

import json
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import cycle
import random

import pytest

from fiidlab import entropy, graphs, homsearch, jsonable, rules, simulate

TOL = 1e-9


@pytest.fixture(scope="session")
def rule_corpus():
    """200 random rules: alphabet q in {2,3} at t <= 2, rank at t = 1,
    with their exact laws.  Shared by criteria 1 and 2."""
    alphabets = cycle([("a", "b"), (0, 1, 2), ("w", "x", "y", "z"), (0, 1, 2, 3, 4)])
    classes = [
        (rules.alphabet(2), 0, 10),
        (rules.alphabet(2), 1, 30),
        (rules.alphabet(2), 2, 35),
        (rules.alphabet(3), 0, 10),
        (rules.alphabet(3), 1, 30),
        (rules.alphabet(3), 2, 35),
        (rules.rank(), 1, 50),
    ]
    start = time.monotonic()
    corpus = []
    seed = 0
    for model, t, count in classes:
        for _ in range(count):
            rule = rules.random_rule(3, t, model, next(alphabets), seed)
            seed += 1
            corpus.append((rule, *entropy.exact_marginals(rule)))
    elapsed = time.monotonic() - start
    assert len(corpus) == 200
    return corpus, elapsed


def test_criterion_01_chain_rule(rule_corpus, acceptance_log):
    corpus, build_time = rule_corpus
    start = time.monotonic()
    worst = 0.0
    for rule, vertex, pair in corpus:
        residual = abs(
            entropy.joint_entropy(pair)
            - entropy.entropy(vertex)
            - entropy.conditional_entropy(pair)
        )
        worst = max(worst, residual)
    elapsed = build_time + (time.monotonic() - start)
    ok = worst < TOL and elapsed < 120
    acceptance_log(1, ok, f"max |h_edge - h_vertex - h_nbr| = {worst:.2e}, {elapsed:.1f}s")
    assert worst < TOL
    assert elapsed < 120


def test_criterion_02_edge_vertex_inequality(rule_corpus, acceptance_log):
    corpus, _ = rule_corpus
    worst = math.inf
    for rule, vertex, pair in corpus:
        slack = entropy.joint_entropy(pair) - (4.0 / 3.0) * entropy.entropy(vertex)
        worst = min(worst, slack)
    ok = worst >= -TOL
    acceptance_log(2, ok, f"min slack over 200 rules = {worst:.6f}")
    assert worst >= -TOL


def test_criterion_03_entropy_caps_on_edge_laws(acceptance_log):
    start = time.monotonic()
    targets = [("C5", 2), ("Petersen", 3), ("Heawood", 3)]
    rng = random.Random(12345)
    checked = 0
    ok = True
    for round_idx in range(34):
        for name, r in targets:
            if checked == 100:
                break
            H = graphs.named_graph(name)
            weights = {e: rng.randrange(1, 1000) for e in H.edges()}
            pair = entropy.pair_from_edge_weights(H, weights)
            res = entropy.audit(pair.marginal(), pair, H=H)
            by_check = {v.check: v for v in res.verdicts}
            ok = ok and by_check["support_in_target"].passed
            ok = ok and by_check["nbr_entropy_cap"].margin >= -TOL
            ok = ok and by_check["vertex_entropy_cap"].margin >= -TOL
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked == 100 and elapsed < 60
    acceptance_log(3, ok, f"{checked} laws, {elapsed:.1f}s")
    assert ok


def test_criterion_04_max_seed_rule_laws(acceptance_log):
    rule = rules.builtin_rule("max_seed_independent", d=3)
    vertex, pair = entropy.exact_marginals(rule)
    ok = vertex.labels == ("IN", "OUT")
    ok = ok and vertex.p == (Fraction(1, 4), Fraction(3, 4))
    ok = ok and pair.mass("IN", "IN") == 0
    ok = ok and pair.mass("IN", "OUT") == Fraction(1, 4)
    ok = ok and pair.mass("OUT", "IN") == Fraction(1, 4)
    ok = ok and pair.mass("OUT", "OUT") == Fraction(1, 2)
    h_v = entropy.entropy(vertex)
    ok = ok and abs(h_v - 0.562335) < 1e-6
    mc_vertex, _ = entropy.mc_marginals(rule, 10**6, 20240808)
    tv = entropy.total_variation(mc_vertex, vertex)
    ok = ok and tv < 0.005
    acceptance_log(4, ok, f"h_vertex = {h_v:.6f}, MC TV = {tv:.5f}")
    assert ok


def test_criterion_05_girth_constant(acceptance_log):
    ok = entropy.min_girth_constant(3, 0.3) == 59050
    ok = ok and entropy.min_girth_constant(2, 0.75) == 17
    rng = random.Random(55)
    getcontext().prec = 60
    for _ in range(20):
        r = rng.randrange(2, 7)
        c0 = Fraction(rng.randrange(1, 999), 1000)
        value = entropy.min_girth_constant(r, c0)
        p, q = c0.numerator, c0.denominator
        # oracle 1: the defining inequalities, straight big-integer checks
        ok = ok and (value - 1) ** p <= r ** (3 * q) < value**p
        # oracle 2: high-precision decimal exponentiation, away from integers
        x = (Decimal(3) / Decimal(p) * Decimal(q) * Decimal(r).ln()).exp()
        nearest = x.to_integral_value()
        if abs(x - nearest) > Decimal("1e-30"):
            ok = ok and value == int(x) + 1
    acceptance_log(5, ok, "59050, 17, and 20 random (r, c0) pairs verified")
    assert ok


def test_criterion_06_tail_selection(acceptance_log):
    u4 = entropy.uniform_distribution((0, 1, 2, 3))
    s1 = entropy.tail_select(u4, 3, 0.5)
    ok = s1.selected == (0, 1) and s1.outside_mass == Fraction(1, 2)
    ok = ok and abs(s1.tail_entropy - 0.5 * math.log(4)) < 1e-12
    ok = ok and s1.tail_entropy >= 0.5 * math.log(3)

    s2 = entropy.tail_select(entropy.point_mass((0, 1), 0), 2, 0.5)
    ok = ok and s2.outside_mass == 0 and not s2.triggered

    u100 = entropy.uniform_distribution(tuple(range(100)))
    s3 = entropy.tail_select(u100, 11, 0.5)
    ok = ok and s3.outside_mass == Fraction(9, 10)
    ok = ok and abs(s3.tail_entropy - 0.9 * math.log(100)) < 1e-12

    rng = random.Random(66)
    worst = 0.0
    for _ in range(100):
        k = rng.randrange(2, 12)
        weights = [rng.randrange(0, 100) for _ in range(k)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        dist = entropy.LabelDistribution(
            tuple(range(k)), tuple(Fraction(w, total) for w in weights), entropy.EXACT
        )
        C = rng.randrange(2, k + 1) if k > 2 else 2
        sel = entropy.tail_select(dist, C, 0.3)
        outside = set(dist.labels) - set(sel.selected)
        direct = -sum(
            float(dist.mass(a)) * math.log(float(dist.mass(a)))
            for a in outside
            if dist.mass(a) > 0
        )
        worst = max(worst, abs(sel.tail_entropy - direct))
    ok = ok and worst < 1e-12
    acceptance_log(6, ok, f"worked examples exact; oracle gap = {worst:.1e}")
    assert ok


def test_criterion_07_homomorphism_search(acceptance_log):
    start = time.monotonic()
    petersen = graphs.named_graph("Petersen")
    c5 = graphs.named_graph("C5")
    k2 = graphs.named_graph("K2")

    # (a) alphabet model, 10^8 rules past max_rules: impossibility with a
    # replayable certificate
    out_a = homsearch.search(petersen, 3, 1, rules.alphabet(2))
    ok = out_a.kind == "Impossible"
    for seed in range(10):
        rule = rules.random_rule(3, 1, rules.alphabet(2), tuple(range(10)), seed)
        witness = homsearch.replay_certificate(out_a.certificate, rule, petersen)
        ok = ok and witness.outputs[0] == witness.outputs[1]

    # (b) rank t=1 against C5: full exhaustion with replaying witnesses
    out_b = homsearch.search(c5, 3, 1, rules.rank())
    ok = ok and out_b.kind == "ExhaustedNone" and out_b.rules_examined == 625
    sample = out_b.witnesses[: min(100, len(out_b.witnesses))]
    ok = ok and len(sample) >= 100
    for index, witness in sample:
        rule = homsearch.rule_at_cursor(3, 1, rules.rank(), tuple(range(5)), index)
        ok = ok and homsearch.replay_witness(rule, c5, witness)

    # (c) rank t=1 against K2
    out_c = homsearch.search(k2, 3, 1, rules.rank())
    ok = ok and out_c.kind == "ExhaustedNone" and out_c.rules_examined == 16

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    acceptance_log(7, ok, f"certificate + 625 + 16 rules, {elapsed:.1f}s")
    assert ok


def test_criterion_08_emulation(acceptance_log):
    rule = rules.builtin_rule("max_seed_independent", d=3)
    G = graphs.random_regular(100_000, 3, 8)
    lab1, rep1 = simulate.run_on_graph(rule, G, 77)
    lab2, rep2 = simulate.run_on_graph(rule, G, 77)
    frac = rep1.independent_set["fraction"]
    ok = 0.24 <= frac <= 0.26
    ok = ok and rep1.independent_set["adjacent_in_in"] == 0
    ok = ok and rep1.covered_fraction >= 0.99
    identical = lab1 == lab2 and json.dumps(jsonable(rep1)) == json.dumps(jsonable(rep2))
    ok = ok and identical
    acceptance_log(
        8,
        ok,
        f"IN fraction = {frac:.4f}, covered = {rep1.covered_fraction:.5f}, repeat identical",
    )
    assert ok


def test_criterion_09_pipeline(acceptance_log):
    petersen = graphs.named_graph("Petersen")
    heawood = graphs.named_graph("Heawood")

    constant = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(10)))
    rep_const = simulate.theorem_pipeline(constant, petersen, 0.089, 5)
    ok = rep_const.classification.startswith("refuted at step 1")

    max_seed = rules.builtin_rule("max_seed_independent", d=3)
    recoded = rules.recode_outputs(
        max_seed, {"IN": 0, "OUT": 1}, output_alphabet=tuple(range(10))
    )
    rep_rec = simulate.theorem_pipeline(recoded, petersen, 0.089, 5)
    ok = ok and rep_rec.classification.startswith("refuted at step 1")
    ok = ok and rep_rec.step(1).data["violating_mass"] == pytest.approx(0.5, abs=1e-12)

    weights = {e: 1 for e in heawood.edges()}
    pair = entropy.pair_from_edge_weights(heawood, weights)
    rep_syn = simulate.pipeline_from_laws(pair.marginal(), pair, heawood, 0.089, 5)
    h_v = rep_syn.step(2).data["h_vertex"]
    ok = ok and abs(h_v - math.log(14)) < TOL
    ok = ok and rep_syn.step(3).data["outside_mass"] == Fraction(10, 14)
    ok = ok and rep_syn.step(4).passed
    ok = ok and rep_syn.step(5).data["domain_mass"] == Fraction(4, 14)
    ok = ok and rep_syn.classification == "no refutation at these parameters"
    acceptance_log(9, ok, f"step-1 refutations + Heawood h_vertex = {h_v:.6f}")
    assert ok


def test_criterion_10_graph_oracles(acceptance_log):
    start = time.monotonic()
    expected = {"Petersen": 5, "Heawood": 6, "McGee": 7}
    ok = True
    for name, g in expected.items():
        G = graphs.named_graph(name)
        ok = ok and graphs.girth(G) == g
        ok = ok and graphs.girth_by_enumeration(G, max_len=g + 1) == g
    alpha, chi = graphs.exact_invariants(graphs.named_graph("Petersen"))
    ok = ok and (alpha, chi) == (4, 3)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    acceptance_log(10, ok, f"girths 5/6/7 confirmed, alpha=4 chi=3, {elapsed:.1f}s")
    assert ok
