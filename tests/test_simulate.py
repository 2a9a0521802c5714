import json
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from fiidlab import entropy, graphs, jsonable, rules, simulate


MAX_SEED = rules.builtin_rule("max_seed_independent", d=3)
PETERSEN = graphs.named_graph("Petersen")
HEAWOOD = graphs.named_graph("Heawood")
C5 = graphs.named_graph("C5")
C9 = graphs.build_graph(9, [(i, (i + 1) % 9) for i in range(9)])
# the 3-cube: 3-regular with girth 4
CUBE = graphs.build_graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
# max_seed_independent with IN -> 0, OUT -> 1: (OUT, OUT) is the non-edge (1, 1)
RECODED_MAX_SEED = rules.recode_outputs(
    MAX_SEED, {"IN": 0, "OUT": 1}, output_alphabet=tuple(range(10))
)


def heawood_uniform_edge_law():
    weights = {e: 1 for e in HEAWOOD.edges()}
    pair = entropy.pair_from_edge_weights(HEAWOOD, weights)
    return pair.marginal(), pair


def reference_tree_ball_order(G, v, t, d):
    """The BFS `simulate._tree_ball_order` replaced: a depth dict, then a
    count of the ball's induced edges."""
    if t == 0:
        return [v]
    adj = G.adjacency
    depth = {v: 0}
    order = [v]
    q = deque([v])
    while q:
        x = q.popleft()
        if depth[x] == t:
            continue
        if len(adj[x]) != d:
            return None
        for w in adj[x]:
            if w not in depth:
                depth[w] = depth[x] + 1
                order.append(w)
                q.append(w)
    ball = set(order)
    twice_edges = sum(1 for x in ball for w in adj[x] if w in ball)
    return order if twice_edges == 2 * (len(ball) - 1) else None


def ball_corpus():
    """Graphs with 3-, 4- and 5-cycles, edges between two leaves of a ball,
    and vertices of low degree."""
    rng = random.Random(14)
    corpus = [graphs.named_graph(name) for name in ("K4", "Petersen", "Heawood", "McGee")]
    corpus.append(CUBE)
    for n, d in ((12, 3), (40, 3), (200, 3), (30, 4), (1000, 4), (60, 2)):
        G = graphs.random_regular(n, d, n)
        corpus.append(G)
        # drop a few edges: low-degree vertices inside otherwise full balls
        edges = [e for e in G.edges() if rng.random() > 0.05]
        corpus.append(graphs.build_graph(n, edges))
    for seed in range(4):
        n = 80
        corpus.append(graphs.build_graph(
            n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 3 / n]
        ))
    return corpus


class TestTreeBallOrder:
    def test_equals_the_reference_bfs(self):
        outcomes = set()
        for G in ball_corpus():
            for d in (2, 3, 4):
                for t in (0, 1, 2, 3):
                    for v in range(G.n):
                        expected = reference_tree_ball_order(G, v, t, d)
                        assert simulate._tree_ball_order(G, v, t, d) == expected, (G.n, d, t, v)
                        outcomes.add((d, t, expected is None))
        # both answers occur at every degree and radius t >= 1
        assert outcomes >= {(d, t, none) for d in (2, 3, 4) for t in (1, 2, 3)
                            for none in (True, False)}

    def test_short_cycles_and_leaf_edges_are_not_trees(self):
        # K4: the leaves of a t=1 ball are adjacent; Petersen: a 5-cycle
        # joins two leaves at t=2; the cube: a 4-cycle repeats a leaf at t=2
        for G, t in ((graphs.named_graph("K4"), 1), (PETERSEN, 2), (CUBE, 2)):
            assert simulate._tree_ball_order(G, 0, t - 1, 3) is not None
            assert simulate._tree_ball_order(G, 0, t, 3) is None


class TestRunOnGraph:
    def test_constant_rule_covers_everything(self):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=(0, 1))
        G = graphs.named_graph("C5")
        labeling, report = simulate.run_on_graph(rule, G, 3)
        assert report.covered_fraction == 1.0
        assert len(labeling) == 5
        assert report.histogram == {0: 5}

    def test_triangle_vertices_uncovered(self):
        # K4 minus an edge: every vertex lies on a 3-cycle
        G = graphs.build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        labeling, report = simulate.run_on_graph(MAX_SEED, G, 3)
        assert report.covered == 0 and labeling == {}

    def test_degree_mismatch(self):
        G = graphs.build_graph(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(simulate.DegreeMismatch):
            simulate.run_on_graph(MAX_SEED, G, 1)

    def test_max_seed_on_random_regular(self):
        G = graphs.random_regular(10_000, 3, 11)
        labeling, report = simulate.run_on_graph(MAX_SEED, G, 5)
        stats = report.independent_set
        assert abs(stats["fraction"] - 0.25) < 0.01
        assert stats["adjacent_in_in"] == 0
        assert report.covered_fraction > 0.99
        # the independent set really is independent
        for u, w in G.edges():
            assert not (labeling.get(u) == "IN" and labeling.get(w) == "IN")

    def test_deterministic(self):
        G = graphs.random_regular(500, 3, 2)
        a_lab, a_rep = simulate.run_on_graph(MAX_SEED, G, 7)
        b_lab, b_rep = simulate.run_on_graph(MAX_SEED, G, 7)
        assert a_lab == b_lab
        assert json.dumps(jsonable(a_rep)) == json.dumps(jsonable(b_rep))

    def test_tree_marginal_agreement(self):
        G = graphs.random_regular(10_000, 3, 13)
        _, report = simulate.run_on_graph(MAX_SEED, G, 17)
        exact_v, _ = entropy.exact_marginals(MAX_SEED)
        empirical = {
            k: v / report.covered for k, v in report.histogram.items()
        }
        tv = 0.5 * sum(
            abs(empirical.get(a, 0.0) - float(exact_v.mass(a))) for a in ("IN", "OUT")
        )
        assert tv < 0.02

    def test_violation_stats_against_target(self):
        G = graphs.random_regular(2000, 3, 3)
        _, report = simulate.run_on_graph(RECODED_MAX_SEED, G, 9, target=PETERSEN)
        assert report.covered_edges > 0
        # (OUT, OUT) edges recode to the non-edge (1, 1), about half of them
        assert 0.3 < report.violating_edge_fraction < 0.7

    def test_alphabet_rule_runs(self):
        rule = rules.random_rule(3, 1, rules.alphabet(2), ("a", "b"), 6)
        G = graphs.random_regular(500, 3, 4)
        labeling, report = simulate.run_on_graph(rule, G, 8)
        assert report.covered == len(labeling) > 0
        assert set(report.histogram) <= {"a", "b"}

    def test_seed_collisions_counted(self):
        G = graphs.random_regular(100, 3, 5)
        _, report = simulate.run_on_graph(MAX_SEED, G, 6)
        assert report.seed_collisions == 0  # 64-bit doubles, 100 draws

    def test_hybrid_seeds_are_deterministic(self):
        rule = rules.random_rule(3, 1, rules.hybrid(2), (0, 1, 2), 5)
        G = graphs.random_regular(500, 3, 2)
        a_lab, a_rep = simulate.run_on_graph(rule, G, 7)
        b_lab, b_rep = simulate.run_on_graph(rule, G, 7)
        c_lab, _ = simulate.run_on_graph(rule, G, 8)
        assert a_lab == b_lab and a_lab != c_lab
        assert json.dumps(jsonable(a_rep)) == json.dumps(jsonable(b_rep))

    def test_hybrid_tree_marginal_agreement(self):
        # ranks from the uniforms, tags drawn after them: the empirical
        # vertex law matches the exact hybrid:2 t=1 law
        rule = rules.random_rule(3, 1, rules.hybrid(2), (0, 1, 2), 5)
        G = graphs.random_regular(20_000, 3, 21)
        _, report = simulate.run_on_graph(rule, G, 4)
        exact_v, _ = entropy.exact_marginals(rule)
        assert report.covered_fraction > 0.99
        tv = 0.5 * sum(
            abs(report.histogram.get(a, 0) / report.covered - float(exact_v.mass(a)))
            for a in exact_v.labels
        )
        assert tv < 0.02


class TestPipeline:
    def test_constant_rule_refuted_at_support(self):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(10)))
        report = simulate.theorem_pipeline(rule, PETERSEN, 0.089, 5)
        assert report.classification == "refuted at step 1: not a homomorphism (support)"
        assert report.step(1).passed is False
        assert (0, 0) in report.step(1).data["violating_pairs"]

    def test_recoded_max_seed_refuted_at_support(self):
        report = simulate.theorem_pipeline(RECODED_MAX_SEED, PETERSEN, 0.089, 5)
        assert report.step(1).passed is False
        assert report.step(1).data["violating_mass"] == pytest.approx(0.5, abs=1e-12)
        assert report.classification.startswith("refuted at step 1")

    def test_heawood_synthetic_inconclusive_branch(self):
        vertex, pair = heawood_uniform_edge_law()
        report = simulate.pipeline_from_laws(vertex, pair, HEAWOOD, 0.089, 5)
        assert report.step(1).passed and report.step(2).passed
        assert report.step(2).data["h_vertex"] == pytest.approx(math.log(14), abs=1e-9)
        assert report.step(3).data["outside_mass"] == Fraction(10, 14)
        assert report.step(3).passed is False  # outside mass far above c0
        assert report.step(4).passed and report.step(4).data["guaranteed_by_girth"]
        assert report.step(5).data["domain_mass"] == Fraction(4, 14)
        assert report.step(5).passed is False
        assert report.classification == "no refutation at these parameters"
        assert report.hypothesis_weakened  # C=5 is far below the girth constant

    def test_uniform_edge_law_on_a_9_cycle_is_refuted_at_step_2(self):
        # ln 9 > (d/(d-2)) ln 2 for d >= 3: the uniform vertex law of a
        # 2-regular target is too spread
        pair = entropy.pair_from_edge_weights(C9, {e: 1 for e in C9.edges()})
        for d, factor in ((3, "3"), (4, "2"), (5, "5/3")):
            report = simulate.pipeline_from_laws(pair.marginal(), pair, C9, 0.089, 5, d)
            assert report.step(1).passed and report.step(2).passed is False
            cap = d / (d - 2) * math.log(2)
            assert report.step(2).data["margin"] == pytest.approx(cap - math.log(9))
            assert report.classification == (
                f"refuted at step 2: vertex entropy exceeds {factor} ln r"
            )
            assert report.hypothesis_weakened is True

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_vertex_entropy_cap_at_d_at_most_2(self, d):
        # the same law: step 2 and the girth constant are not applicable
        pair = entropy.pair_from_edge_weights(C9, {e: 1 for e in C9.edges()})
        report = simulate.pipeline_from_laws(pair.marginal(), pair, C9, 0.089, 5, d)
        step = report.step(2)
        assert step.passed is None and report.hypothesis_weakened is None
        assert step.data == {"h_vertex": pytest.approx(math.log(9)), "bound": None, "margin": None}
        assert report.classification == "no refutation at these parameters"
        payload = json.loads(json.dumps(jsonable(report)))
        assert payload["steps"][1]["passed"] is None and payload["hypothesis_weakened"] is None

    def test_theorem_pipeline_reads_the_rules_degree(self):
        for d, applicable in ((2, False), (3, True), (4, True)):
            rule = rules.random_rule(d, 1, rules.rank(), tuple(range(5)), 40)
            report = simulate.theorem_pipeline(rule, C5, 0.089, 3)
            assert (report.step(2).passed is not None) is applicable
            assert (report.hypothesis_weakened is not None) is applicable

    def test_selected_set_with_a_cycle_is_not_refuted(self):
        # C = 6 selects the top 5 of 10 uniform labels, which close a 5-cycle
        # of Petersen (girth 5)
        pair = entropy.pair_from_edge_weights(PETERSEN, {e: 1 for e in PETERSEN.edges()})
        report = simulate.pipeline_from_laws(pair.marginal(), pair, PETERSEN, 0.089, 6)
        step = report.step(4)
        assert step.passed is False and step.data["guaranteed_by_girth"] is False
        assert step.data["cycle"] == [2, 1, 0, 4, 3] and step.data["coloring"] is None
        assert report.classification == (
            "no refutation at these parameters (selected set induces a cycle)"
        )

    def test_pipeline_coherence_domain_mass(self):
        vertex, pair = heawood_uniform_edge_law()
        report = simulate.pipeline_from_laws(vertex, pair, HEAWOOD, 0.089, 5)
        S = report.step(3).data["selected"]
        assert report.step(5).data["domain_mass"] == sum(vertex.mass(a) for a in S)

    def test_refuted_when_domain_large(self):
        # inject a law concentrated on a single Heawood edge: S captures all
        # mass, H[S] is acyclic, and the 2-coloring bound bites
        probs = {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        pair = entropy.PairDistribution(tuple(range(14)), probs, entropy.EXACT)
        report = simulate.pipeline_from_laws(pair.marginal(), pair, HEAWOOD, 0.089, 5)
        assert report.step(1).passed
        assert report.step(5).passed
        assert report.classification.startswith("refuted at step 5")

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_domain_threshold_at_d_at_most_2(self, d):
        # the same law: T_d is an edge or a path, whose factors of i.i.d.
        # give partial 2-colorings of any mass below 1, so step 5 does not apply
        probs = {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        pair = entropy.PairDistribution(tuple(range(14)), probs, entropy.EXACT)
        report = simulate.pipeline_from_laws(pair.marginal(), pair, HEAWOOD, 0.089, 5, d)
        assert report.step(1).passed and report.step(4).passed
        step = report.step(5)
        assert step.passed is None
        assert step.data == {"domain_mass": 1, "threshold": None}
        assert report.step(2).passed is None and report.hypothesis_weakened is None
        assert report.classification == "no refutation at these parameters"
        payload = json.loads(json.dumps(jsonable(report)))
        assert payload["steps"][4]["passed"] is None
        assert payload["steps"][4]["data"]["threshold"] is None

    def test_rank_rules_always_fail_step_one(self):
        for seed in range(5):
            rule = rules.random_rule(3, 1, rules.rank(), tuple(range(5)), 40 + seed)
            report = simulate.theorem_pipeline(
                rule, graphs.named_graph("C5"), 0.089, 3
            )
            assert report.classification.startswith("refuted at step 1")

    def test_mc_mode(self):
        report = simulate.theorem_pipeline(
            RECODED_MAX_SEED, PETERSEN, 0.089, 5, mode="mc", samples=20_000, rng_seed=3
        )
        assert report.marginal_mode == "mc:20000"
        assert report.classification.startswith("refuted at step 1")

    def test_mode_is_read_from_the_laws(self):
        vertex, pair = entropy.mc_marginals(RECODED_MAX_SEED, 2_000, 3)
        report = simulate.pipeline_from_laws(vertex, pair, PETERSEN, 0.089, 5)
        assert report.marginal_mode == "mc:2000"

    def test_requires_regular_target(self, monkeypatch):
        # refused before the laws, whose cost grows with the rule's class
        path = graphs.build_graph(3, [(0, 1), (1, 2)])
        rule = rules.builtin_rule("constant", label=0, output_alphabet=(0, 1, 2))

        def no_laws(*args, **kwargs):
            raise AssertionError("the laws were computed")

        monkeypatch.setattr(entropy, "exact_marginals", no_laws)
        with pytest.raises(ValueError, match="^the pipeline needs a regular target graph$"):
            simulate.theorem_pipeline(rule, path, 0.089, 2)

    def test_one_regular_target_is_refused_by_the_pipeline(self):
        # K2 is regular of degree 1, below the girth constant's r >= 2
        K2 = graphs.named_graph("K2")
        rule = rules.builtin_rule("constant", label=0, output_alphabet=(0, 1))
        message = "^the pipeline needs a target of degree >= 2, got degree 1$"
        with pytest.raises(ValueError, match=message):
            simulate.theorem_pipeline(rule, K2, 0.089, 2)
        vertex, pair = entropy.exact_marginals(rule)
        with pytest.raises(ValueError, match=message):
            simulate.pipeline_from_laws(vertex, pair, K2, 0.089, 2)

    def test_girth_constant_past_its_bit_cap_is_weakened(self):
        # r^(3q) with q = 2,000,000 passes the bit cap: the constant raises
        # Overflow, and the report calls the hypothesis weakened
        weights = {e: 1 for e in PETERSEN.edges()}
        pair = entropy.pair_from_edge_weights(PETERSEN, weights)
        with pytest.raises(entropy.Overflow):
            entropy.min_girth_constant(3, "1/2000000")
        report = simulate.pipeline_from_laws(pair.marginal(), pair, PETERSEN, "1/2000000", 5)
        assert report.hypothesis_weakened is True

    def test_alphabet_must_match_target(self):
        with pytest.raises(ValueError):
            simulate.theorem_pipeline(MAX_SEED, PETERSEN, 0.089, 5)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"mode": "mc"}, "mc mode needs a sample count"),
            ({"mode": "both"}, "unknown marginal mode 'both'"),
        ],
        ids=["mc-without-samples", "unknown-mode"],
    )
    def test_refusals(self, kwargs, message):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(10)))
        with pytest.raises(ValueError) as info:
            simulate.theorem_pipeline(rule, PETERSEN, 0.089, 5, **kwargs)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_laws_the_audit_refuses_are_refused(self):
        # a uniform vertex law with the pair law of one edge: the pair
        # marginal puts mass 1/2 on each end of that edge
        vertex = entropy.uniform_distribution(range(HEAWOOD.n))
        u, v = next(iter(HEAWOOD.edges()))
        pair = entropy.pair_from_edge_weights(HEAWOOD, {(u, v): 1})
        with pytest.raises(entropy.InconsistentMarginals):
            entropy.audit(vertex, pair, H=HEAWOOD)
        with pytest.raises(entropy.InconsistentMarginals):
            simulate.pipeline_from_laws(vertex, pair, HEAWOOD, 0.089, 5)

    @pytest.mark.parametrize(
        "extra", [{"samples": 50}, {"rng_seed": 9}, {"samples": 50, "rng_seed": 9}], ids=str
    )
    def test_exact_mode_refuses_samples_and_seed(self, extra):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(10)))
        with pytest.raises(ValueError, match="exact mode takes neither"):
            simulate.theorem_pipeline(rule, PETERSEN, 0.089, 5, mode="exact", **extra)

    def test_json_round_trip(self):
        vertex, pair = heawood_uniform_edge_law()
        report = simulate.pipeline_from_laws(vertex, pair, HEAWOOD, 0.089, 5)
        payload = json.loads(json.dumps(jsonable(report)))
        assert payload["classification"] == report.classification
        assert payload["steps"][2]["data"]["outside_mass"]["exact"] == "5/7"


class TestAuditAgreesWithPipeline:
    """The audit and pipeline steps 1-2 run the same checks on one law."""

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_support_margin_is_minus_violating_mass(self, mode):
        if mode == "exact":
            vertex, pair = entropy.exact_marginals(RECODED_MAX_SEED)
        else:
            vertex, pair = entropy.mc_marginals(RECODED_MAX_SEED, 2_000, 3)
        res = entropy.audit(vertex, pair, H=PETERSEN)
        step = simulate.pipeline_from_laws(vertex, pair, PETERSEN, 0.089, 5).step(1)
        (support,) = [v for v in res.verdicts if v.check == "support_in_target"]
        assert support.passed is step.passed is False
        assert support.margin == pytest.approx(-step.data["violating_mass"], abs=1e-12)
        if mode == "exact":
            assert step.data["violating_mass"] == pytest.approx(0.5, abs=1e-12)

    def test_vertex_entropy_cap_margin(self):
        vertex, pair = heawood_uniform_edge_law()
        for d in (3, 4):
            res = entropy.audit(vertex, pair, H=HEAWOOD, d=d)
            step = simulate.pipeline_from_laws(vertex, pair, HEAWOOD, 0.089, 5, d).step(2)
            (cap,) = [v for v in res.verdicts if v.check == "vertex_entropy_cap"]
            assert res.r == 3
            # ln 14 lies between 2 ln 3 and 3 ln 3
            assert cap.passed is step.passed is (d == 3)
            assert cap.margin == step.data["margin"]

    def test_monte_carlo_vertex_cap_has_one_tolerance(self):
        # a Monte Carlo law whose vertex entropy is 4.5 sigma above 3 ln 2:
        # both checks allow 3 sigma of the vertex law, so both fail
        masses = (0.2,) + (0.1,) * 8
        labels = tuple(range(len(masses)))
        vertex_guess = entropy.LabelDistribution(labels, masses, entropy.monte_carlo(1))
        excess = entropy.entropy(vertex_guess) - 3 * math.log(2)
        n = round((4.5 * entropy.entropy_sigma(vertex_guess, 1) / excess) ** 2)
        counts = {(a, b): masses[a] * masses[b] for a in labels for b in labels}
        pair = entropy.PairDistribution(labels, counts, entropy.monte_carlo(n))
        vertex = pair.marginal()
        sigma = entropy.entropy_sigma(vertex, n)
        assert 3 * sigma < entropy.entropy(vertex) - 3 * math.log(2) < 6 * sigma
        res = entropy.audit(vertex, pair, r=2)
        step = simulate.pipeline_from_laws(vertex, pair, C5, 0.089, 5).step(2)
        (cap,) = [v for v in res.verdicts if v.check == "vertex_entropy_cap"]
        assert cap.passed is step.passed is False
        assert cap.margin == step.data["margin"]

    def test_exact_vertex_law_with_a_monte_carlo_pair_law(self):
        # the vertex cap reads only the vertex law: with an exact one, both
        # checks allow 1e-9, not 3 sigma of the pair law's 20 samples
        masses = (Fraction(2, 10),) + (Fraction(1, 10),) * 8
        labels = tuple(range(len(masses)))
        vertex = entropy.LabelDistribution(labels, masses, entropy.EXACT)
        counts = {(a, b): float(masses[a] * masses[b]) for a in labels for b in labels}
        pair = entropy.PairDistribution(labels, counts, entropy.monte_carlo(20))
        res = entropy.audit(vertex, pair, r=2)
        step = simulate.pipeline_from_laws(vertex, pair, C9, 0.089, 5).step(2)
        (cap,) = [v for v in res.verdicts if v.check == "vertex_entropy_cap"]
        assert cap.margin == step.data["margin"] == pytest.approx(-0.0845, abs=1e-4)
        assert 3 * entropy.entropy_sigma(vertex, 20) > -cap.margin
        assert cap.passed is step.passed is False
