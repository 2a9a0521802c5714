import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiidlab import entropy, graphs, rules
from fiidlab.entropy import EXACT, LabelDistribution, PairDistribution


def dist(*masses, labels=None):
    labels = labels or tuple(range(len(masses)))
    return LabelDistribution(tuple(labels), tuple(Fraction(m) for m in masses), EXACT)


def random_edge_law(H, seed):
    rng = random.Random(seed)
    weights = {e: rng.randrange(1, 1000) for e in H.edges()}
    return entropy.pair_from_edge_weights(H, weights)


def half_tree_count(d, depth, q):
    """Half-tree types of a depth (1 for the empty depth -1): a root tag and
    a multiset of d-1 types one level shallower."""
    n = 1 if depth < 0 else q
    for _ in range(depth):
        n = q * math.comb(n + d - 2, d - 1)
    return n


def alphabet_classes_within_vertex_budget():
    """Every (d, t, q) whose alphabet vertex law is within the enumeration
    budget, q^B <= 10^7 for a ball of B vertices."""
    for d in range(1, 24):
        for t in range(24):
            B = rules.ball_size(d, t)
            if 2**B > rules.ALPHABET_ENUM_BUDGET:
                break
            for q in range(2, 257):
                if q**B > rules.ALPHABET_ENUM_BUDGET:
                    break
                yield d, t, q, B


C5 = graphs.named_graph("C5")
C9 = graphs.build_graph(9, [(i, (i + 1) % 9) for i in range(9)])

REFUSALS = [
    (
        lambda: LabelDistribution((0, 1), (1,), EXACT),
        entropy.InvalidDistribution,
        "labels and masses must align and be nonempty",
    ),
    (
        lambda: PairDistribution((0, 1), {(0, 2): 1, (2, 0): 1}, EXACT, 2),
        entropy.InvalidDistribution,
        "pair (0, 2) outside the alphabet",
    ),
    (
        lambda: PairDistribution((0, 1), {(0, 0): 4, (0, 1): -1, (1, 0): -1}, EXACT, 2),
        entropy.InvalidDistribution,
        "negative mass",
    ),
    (
        lambda: entropy.pair_from_edge_weights(C5, {(0, 2): 1}),
        entropy.InvalidDistribution,
        "(0, 2) is not an edge of the target",
    ),
    (lambda: entropy.c0_fraction([1, 2]), ValueError, "cannot interpret c0 of type list"),
    (
        lambda: entropy.tail_select(entropy.uniform_distribution((0, 1, 2)), 1, "1/2"),
        ValueError,
        "C must be an integer >= 2, got 1",
    ),
]


@pytest.mark.parametrize(
    "call,error,message",
    REFUSALS,
    ids=["misaligned", "pair-outside", "negative-mass", "non-edge", "c0-list", "tail-C-1"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestEntropy:
    def test_uniform_five(self):
        assert entropy.entropy(dist(*([Fraction(1, 5)] * 5))) == pytest.approx(
            math.log(5), abs=1e-12
        )

    def test_point_mass(self):
        # +0.0, not -0.0, which the CLI would print with its sign
        h = entropy.entropy(dist(1, 0, 0))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
        pair = PairDistribution((0, 1), {(1, 1): 1}, EXACT)
        h = entropy.joint_entropy(pair)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_half_quarter_quarter(self):
        value = entropy.entropy(dist(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert value == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_invalid(self):
        with pytest.raises(entropy.InvalidDistribution):
            dist(Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(entropy.InvalidDistribution):
            dist(Fraction(3, 2), Fraction(-1, 2))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=8))
    def test_bounds(self, weights):
        total = sum(weights)
        if total == 0:
            return
        d = dist(*(Fraction(w, total) for w in weights))
        h = entropy.entropy(d)
        support = sum(1 for w in weights if w)
        assert -1e-12 <= h <= math.log(support) + 1e-12


class TestConditionalEntropy:
    def test_independent_fair(self):
        probs = {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)}
        pair = PairDistribution((0, 1), probs, EXACT)
        assert entropy.conditional_entropy(pair) == pytest.approx(math.log(2), abs=1e-12)

    def test_diagonal(self):
        probs = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        pair = PairDistribution((0, 1), probs, EXACT)
        assert entropy.conditional_entropy(pair) == pytest.approx(0.0, abs=1e-12)

    def test_chain_identity(self):
        rng = random.Random(8)
        for _ in range(20):
            w = {}
            for a in range(3):
                for b in range(a, 3):
                    x = Fraction(rng.randrange(0, 9))
                    w[(a, b)] = x
                    w[(b, a)] = x
            total = sum(w.values())
            if total == 0:
                continue
            probs = {k: v / total for k, v in w.items() if v}
            pair = PairDistribution((0, 1, 2), probs, EXACT)
            resid = (
                entropy.joint_entropy(pair)
                - entropy.entropy(pair.marginal())
                - entropy.conditional_entropy(pair)
            )
            assert abs(resid) < 1e-12

    def test_marginal_is_computed_once(self):
        pair = PairDistribution((0, 1), {(0, 1): 1, (1, 0): 1, (1, 1): 2}, EXACT, 4)
        first = pair.marginal()
        assert pair.marginal() is first
        assert first.counts == (1, 3) and first.denominator == 4

    def test_exchangeability_enforced(self):
        with pytest.raises(entropy.InvalidDistribution):
            PairDistribution((0, 1), {(0, 1): Fraction(1)}, EXACT)

    def test_exact_total_enforced(self):
        # unlike denominators: a total of exactly 1 passes, 1 - 2^-80 does not
        probs = {
            (0, 0): Fraction(1, 3),
            (0, 1): Fraction(1, 4),
            (1, 0): Fraction(1, 4),
            (1, 1): Fraction(1, 6),
        }
        PairDistribution((0, 1), probs, EXACT)
        probs[(1, 1)] -= Fraction(1, 2**80)
        with pytest.raises(entropy.InvalidDistribution, match="sum to"):
            PairDistribution((0, 1), probs, EXACT)


class TestExactMarginals:
    def test_max_seed_vertex_law(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        vertex, _ = entropy.exact_marginals(rule)
        assert vertex.labels == ("IN", "OUT")
        assert vertex.p == (Fraction(1, 4), Fraction(3, 4))

    def test_max_seed_pair_law(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        _, pair = entropy.exact_marginals(rule)
        assert pair.mass("IN", "IN") == 0
        assert pair.mass("IN", "OUT") == Fraction(1, 4)
        assert pair.mass("OUT", "IN") == Fraction(1, 4)
        assert pair.mass("OUT", "OUT") == Fraction(1, 2)

    def test_constant_rule(self):
        rule = rules.builtin_rule("constant", label="v0", output_alphabet=("v0", "v1"))
        vertex, pair = entropy.exact_marginals(rule)
        assert vertex.mass("v0") == 1
        assert pair.mass("v0", "v0") == 1

    def test_exchangeable_and_consistent_across_models(self):
        cases = [
            rules.random_rule(3, 1, rules.alphabet(2), (0, 1, 2), 21),
            rules.random_rule(3, 2, rules.alphabet(2), ("a", "b"), 22),
            rules.random_rule(3, 1, rules.rank(), (0, 1, 2, 3), 23),
            rules.random_rule(3, 1, rules.hybrid(2), ("x", "y"), 24),
            rules.random_rule(3, 0, rules.alphabet(3), (0, 1), 25),
        ]
        for rule in cases:
            vertex, pair = entropy.exact_marginals(rule)
            for (a, b), x in pair.probs.items():
                assert pair.probs[(b, a)] == x
            assert pair.marginal().p == vertex.p  # exact rational equality

    def test_rank_d6_t1_pair_is_exact(self):
        # ball 7, edge ball 12: the pair law needs only the ball budget
        rule = rules.random_rule(6, 1, rules.rank(), (0, 1, 2), 26)
        vertex, pair = entropy.exact_marginals(rule)
        for (a, b), x in pair.probs.items():
            assert pair.probs[(b, a)] == x
        assert sum(pair.probs.values()) == 1
        assert pair.marginal().p == vertex.p

    def test_vertex_budget_bounds_the_alphabet_pair_law(self):
        # A and B' hold the ball's B vertices between them, so the cell
        # form's N_t * N_(t-1) entries are at most q^B
        classes = list(alphabet_classes_within_vertex_budget())
        for d, t, q, B in classes:
            assert half_tree_count(d, t, q) * half_tree_count(d, t - 1, q) <= q**B, (d, t, q)
        assert len(classes) > 3000

    @pytest.mark.parametrize(
        "d,t,q", [(1, 2, 3), (2, 0, 4), (2, 3, 2), (3, 1, 3), (3, 2, 3), (4, 1, 2), (5, 1, 3)]
    )
    def test_alphabet_cell_size_from_the_half_tree_types(self, d, t, q):
        types = rules._alphabet_subtree_types(d, t, q)
        assert len(types) == half_tree_count(d, t, q)
        form = entropy._half_tree_types(d, t, q)
        assert form.cell_size == half_tree_count(d, t, q) // half_tree_count(d, t - 1, q)

    @pytest.mark.parametrize("d,t,model", [(3, 3, rules.rank()), (3, 2, rules.hybrid(2))], ids=str)
    def test_pair_law_over_ball_budget(self, d, t, model):
        with pytest.raises(rules.BudgetExceeded):
            entropy._interleaving_structure(d, t, model)
        with pytest.raises(rules.BudgetExceeded):
            rules.random_rule(d, t, model, (0, 1), 3)

    @pytest.mark.parametrize(
        "d,t,model,labels",
        [
            (3, 2, rules.alphabet(3), (0, 1, 2)),  # by label class
            (2, 2, rules.alphabet(2), (0, 1, 2)),  # by cells: 3 labels, 2 types a cell
            (3, 1, rules.rank(), (0, 1)),
            (3, 1, rules.hybrid(2), (0, 1)),
        ],
        ids=str,
    )
    def test_laws_read_the_output_vector(self, d, t, model, labels):
        """No law builds a rule's {code: label} view: each reads the outputs
        by ball index, and the rank t=1 sampler zips them with the codes."""
        rule = rules.random_rule(d, t, model, labels, 5)
        entropy.exact_marginals(rule)
        if model == rules.rank():
            entropy.mc_marginals(rule, 100, 1)
        assert "table" not in rule.__dict__


class TestMonteCarlo:
    def test_matches_exact_within_tv(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        exact_v, _ = entropy.exact_marginals(rule)
        mc_v, _ = entropy.mc_marginals(rule, 10**6, 20240808)
        assert abs(mc_v.as_float_dict()["IN"] - 0.25) < 0.005
        assert entropy.total_variation(mc_v, exact_v) < 0.005

    def test_constant_rule_point_mass(self):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=(0, 1))
        vertex, pair = entropy.mc_marginals(rule, 500, 1)
        assert vertex.as_float_dict()[0] == 1.0
        assert pair.mass(0, 0) == 1.0

    def test_deterministic(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        a = entropy.mc_marginals(rule, 5000, 99)
        b = entropy.mc_marginals(rule, 5000, 99)
        assert a[0] == b[0] and a[1].probs == b[1].probs

    def test_tv_decreases_with_samples(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        exact_v, _ = entropy.exact_marginals(rule)
        tvs = [
            entropy.total_variation(entropy.mc_marginals(rule, 10**k, 11)[0], exact_v)
            for k in (3, 4, 5, 6)
        ]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 0.01

    def test_generic_path_alphabet(self):
        rule = rules.random_rule(3, 1, rules.alphabet(2), (0, 1, 2), 4)
        exact_v, _ = entropy.exact_marginals(rule)
        mc_v, mc_p = entropy.mc_marginals(rule, 40_000, 5)
        assert entropy.total_variation(mc_v, exact_v) < 0.02
        for (a, b), x in mc_p.probs.items():
            assert mc_p.probs[(b, a)] == x

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rank_t1_fast_path_draws_the_generic_stream(self, d):
        # both paths call rng.random() once per edge-ball vertex, in id
        # order, so the fast path is a speed path, not a separate stream;
        # the sizes straddle one chunk of the fast path's bulk draws
        codes = rules.enumerate_canonical_balls(d, 1, rules.rank())
        rule = rules.make_rule(
            d, 1, rules.rank(), tuple(range(len(codes))), {c: i for i, c in enumerate(codes)}
        )
        chunk = entropy._MC_CHUNK
        for n in (1, chunk - 1, chunk, chunk + 1, 5000):
            for seed in range(3):
                fast_rng, generic_rng = random.Random(seed), random.Random(seed)
                fast = entropy._mc_pair_counts_rank_t1(rule, n, fast_rng)
                generic = entropy._mc_pair_counts_generic(rule, n, generic_rng)
                # equal key order too: the marginal's float sums follow it
                assert list(fast.items()) == list(generic.items()), (n, seed)
                assert fast_rng.getstate() == generic_rng.getstate()

    def test_generic_path_tied_draws(self):
        class TiedRng(random.Random):
            def random(self):
                return 0.5

        hybrid = rules.random_rule(3, 1, rules.hybrid(2), (0, 1), 2)
        assert sum(entropy._mc_pair_counts_generic(hybrid, 20, TiedRng(0)).values()) == 20
        # tied rank draws rank by vertex index
        rank = rules.random_rule(3, 1, rules.rank(), (0, 1), 2)
        layout = rules.edge_ball_layout(3, 1)
        cu, cv = rules.endpoint_codes(layout, rules.rank(), tuple(range(1, layout.size + 1)))
        assert entropy._mc_pair_counts_generic(rank, 20, TiedRng(0)) == {
            (rank.table[cu], rank.table[cv]): 20
        }
        # and so do they on the rank t=1 fast path
        codes = rules.enumerate_canonical_balls(3, 1, rules.rank())
        identity = rules.make_rule(3, 1, rules.rank(), (1, 2, 3, 4), {c: c[0] for c in codes})
        assert entropy._mc_pair_counts_rank_t1(identity, 20, TiedRng(0)) == {(1, 2): 20}


class TestAudit:
    def test_max_seed_numbers(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        vertex, pair = entropy.exact_marginals(rule)
        res = entropy.audit(vertex, pair, r=3)
        assert res.h_vertex == pytest.approx(0.562335, abs=1e-6)
        assert res.h_edge == pytest.approx(1.039721, abs=1e-6)
        assert res.slack_edge_vertex == pytest.approx(0.289941, abs=1e-6)
        assert res.all_passed()

    def test_constant_boundary(self):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=(0, 1))
        vertex, pair = entropy.exact_marginals(rule)
        res = entropy.audit(vertex, pair)
        edge_vertex = res.verdicts[0]
        assert edge_vertex.check == "edge_vertex" and edge_vertex.passed

    def test_c5_uniform_edge_law_boundary(self):
        C5 = graphs.named_graph("C5")
        weights = {e: 1 for e in C5.edges()}
        pair = entropy.pair_from_edge_weights(C5, weights)
        res = entropy.audit(pair.marginal(), pair, H=C5)
        by_check = {v.check: v for v in res.verdicts}
        assert by_check["support_in_target"].passed
        assert by_check["nbr_entropy_cap"].passed
        assert entropy.conditional_entropy(pair) == pytest.approx(math.log(2), abs=1e-9)

    def test_support_violation_detected(self):
        C5 = graphs.named_graph("C5")
        probs = {(0, 0): Fraction(1)}
        pair = PairDistribution(tuple(range(5)), probs, EXACT)
        res = entropy.audit(pair.marginal(), pair, H=C5)
        by_check = {v.check: v for v in res.verdicts}
        assert not by_check["support_in_target"].passed
        assert "nbr_entropy_cap" not in by_check

    def test_inconsistent_marginals(self):
        vertex = dist(Fraction(1, 2), Fraction(1, 2))
        probs = {(0, 0): Fraction(1)}
        pair = PairDistribution((0, 1), probs, EXACT)
        with pytest.raises(entropy.InconsistentMarginals):
            entropy.audit(vertex, pair)

    def test_r_must_be_the_targets_regular_degree(self):
        petersen = graphs.named_graph("Petersen")
        rule = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(10)))
        vertex, pair = entropy.exact_marginals(rule)
        with pytest.raises(ValueError, match="r = 7 disagrees with the target's regular degree 3"):
            entropy.audit(vertex, pair, r=7, H=petersen)
        assert entropy.audit(vertex, pair, r=3, H=petersen).r == 3
        assert entropy.audit(vertex, pair, H=petersen).r == 3
        # a path has no regular degree, so no r agrees with it
        path = graphs.build_graph(10, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="r = 2 disagrees with the target's regular degree None"):
            entropy.audit(vertex, pair, r=2, H=path)
        assert entropy.audit(vertex, pair, H=path).r is None

    def test_chain_rule_on_exact_laws(self):
        for seed in range(6):
            rule = rules.random_rule(3, 1, rules.rank(), (0, 1, 2), 300 + seed)
            vertex, pair = entropy.exact_marginals(rule)
            res = entropy.audit(vertex, pair)
            resid = res.h_edge - res.h_vertex - res.h_nbr_given_vertex
            assert abs(resid) < 1e-9

    @pytest.mark.parametrize(
        "d,t,model",
        [
            (2, 2, rules.alphabet(4)), (2, 3, rules.alphabet(2)), (2, 3, rules.rank()),
            (3, 1, rules.rank()), (3, 2, rules.alphabet(2)),
            (4, 1, rules.rank()), (4, 1, rules.alphabet(2)),
        ],
        ids=str,
    )
    def test_identity_factor_passes_edge_vertex(self, d, t, model):
        # each canonical ball its own label: a valid rule of the class; at
        # d = 2 the first three fail the d=3 factor 4/3
        codes = rules.enumerate_canonical_balls(d, t, model)
        labels = tuple(range(len(codes)))
        rule = rules.make_rule(d, t, model, labels, dict(zip(codes, labels)))
        vertex, pair = entropy.exact_marginals(rule)
        res = entropy.audit(vertex, pair, d=d)
        assert res.verdicts[0].check == "edge_vertex" and res.verdicts[0].passed
        assert res.slack_edge_vertex == res.h_edge - 2 * (d - 1) / d * res.h_vertex
        if d == 2:
            assert not entropy.audit(vertex, pair).verdicts[0].passed

    def test_petersen_edge_law_fails_the_d4_factor(self):
        # h_edge / h_vertex = ln 30 / ln 10 lies between 4/3 and 3/2: the law
        # passes at d = 3 and is rejected at d = 4
        petersen = graphs.named_graph("Petersen")
        pair = entropy.pair_from_edge_weights(petersen, {e: 1 for e in petersen.edges()})
        assert 4 / 3 < math.log(30) / math.log(10) < 3 / 2
        assert entropy.audit(pair.marginal(), pair, d=3).all_passed()
        res = entropy.audit(pair.marginal(), pair, d=4)
        assert not res.verdicts[0].passed
        assert res.slack_edge_vertex == pytest.approx(math.log(30) - 1.5 * math.log(10))

    def test_vertex_cap_by_degree(self):
        # a uniform law on 9 labels: ln 9 is within 3 ln 2 (d=3), not within
        # 2 ln 2 (d=4); at d <= 2 there is no cap and no verdict
        pair = entropy.pair_from_edge_weights(C9, {e: 1 for e in C9.edges()})
        for d, cap in ((1, None), (2, None), (3, 3 * math.log(2)), (4, 2 * math.log(2)),
                       (5, 5 / 3 * math.log(2))):
            h, bound, holds = entropy.vertex_entropy_cap(pair.marginal(), 2, d)
            assert h == entropy.entropy(pair.marginal()) and bound == cap
            assert holds is (None if cap is None else h <= cap)
            checks = [v.check for v in entropy.audit(pair.marginal(), pair, r=2, d=d).verdicts]
            assert ("vertex_entropy_cap" in checks) is (d >= 3)
        assert entropy.vertex_entropy_cap(pair.marginal(), 3, 3)[1] == 3 * math.log(3)

    def test_degree_must_be_positive(self):
        vertex, pair = entropy.exact_marginals(rules.builtin_rule("max_seed_independent"))
        with pytest.raises(ValueError, match="^degree d must be >= 1, got 0$"):
            entropy.audit(vertex, pair, d=0)

    def test_edge_supported_laws_nbr_cap(self):
        for name, r in (("C5", 2), ("Petersen", 3), ("Heawood", 3)):
            H = graphs.named_graph(name)
            for seed in range(5):
                pair = random_edge_law(H, seed)
                res = entropy.audit(pair.marginal(), pair, H=H)
                by_check = {v.check: v for v in res.verdicts}
                assert by_check["nbr_entropy_cap"].margin >= -1e-9


class TestMinGirthConstant:
    def test_examples(self):
        assert entropy.min_girth_constant(3, 0.3) == 59050
        assert entropy.min_girth_constant(2, 0.75) == 17

    def test_big_integer_path(self):
        value = entropy.min_girth_constant(3, 0.089)
        # strictly above 3^(3000/89): check the defining inequalities
        assert (value - 1) ** 89 <= 3**3000 < value**89

    def test_string_and_fraction_inputs(self):
        assert entropy.min_girth_constant(3, "0.3") == 59050
        assert entropy.min_girth_constant(3, Fraction(3, 10)) == 59050

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy.min_girth_constant(1, 0.5)
        with pytest.raises(ValueError):
            entropy.min_girth_constant(3, 1.5)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_equals_brute_force(self, d):
        # the least n with n^(p(d-2)) > r^(dq) for c0 = p/q, by counting up
        for r in (2, 3, 4):
            for c0 in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10)):
                n = 1
                while n ** ((d - 2) * c0.numerator) <= r ** (d * c0.denominator):
                    n += 1
                assert entropy.min_girth_constant(r, c0, d) == n, (r, c0)

    def test_no_constant_at_d_at_most_2(self):
        for d in (1, 2):
            with pytest.raises(ValueError, match=f"^the girth constant needs d >= 3, got d = {d}$"):
                entropy.min_girth_constant(3, 0.3, d)

    def test_overflow_reported(self):
        # twice: the memo must not turn a refusal into a cached answer
        for _ in range(2):
            with pytest.raises(entropy.Overflow):
                entropy.min_girth_constant(3, Fraction(1, 10**7))


class TestTailSelect:
    def test_uniform_four(self):
        sel = entropy.tail_select(dist(*([Fraction(1, 4)] * 4)), 3, 0.5)
        assert sel.selected == (0, 1)
        assert sel.outside_mass == Fraction(1, 2)
        assert sel.tail_entropy == pytest.approx(0.5 * math.log(4), abs=1e-12)
        assert sel.triggered and sel.floor_holds
        assert sel.c0_floor == pytest.approx(0.5 * math.log(3), abs=1e-12)

    def test_point_mass_not_triggered(self):
        sel = entropy.tail_select(dist(1, 0), 2, 0.5)
        assert sel.outside_mass == 0 and not sel.triggered
        assert "not triggered" in sel.verdict

    def test_uniform_hundred(self):
        sel = entropy.tail_select(dist(*([Fraction(1, 100)] * 100)), 11, 0.5)
        assert sel.outside_mass == Fraction(9, 10)
        assert sel.tail_entropy == pytest.approx(0.9 * math.log(100), abs=1e-12)

    def test_ties_break_by_index(self):
        sel = entropy.tail_select(
            dist(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
                 labels=("w", "x", "y", "z")),
            3,
            0.1,
        )
        assert sel.selected == ("w", "x")

    def test_c_too_large(self):
        with pytest.raises(entropy.CTooLarge):
            entropy.tail_select(dist(Fraction(1, 2), Fraction(1, 2)), 3, 0.1)

    @pytest.mark.parametrize("k,C", [(5, 5), (10, 10)])
    @pytest.mark.parametrize("kind", ["exact", "monte_carlo"])
    def test_outside_mass_equal_to_inv_c(self, k, C, kind):
        # k labels of mass 1/k = 1/C from 4000 samples: the float 1/k lies
        # above the fraction 1/C, and both links still hold
        if kind == "exact":
            law = LabelDistribution(tuple(range(k)), (4000 // k,) * k, EXACT, 4000)
        else:
            law = LabelDistribution(tuple(range(k)), (4000 // k / 4000,) * k,
                                    entropy.monte_carlo(4000))
        sel = entropy.tail_select(law, C, 0.089)
        assert sel.max_outside_mass == (Fraction(1, C) if kind == "exact" else 1 / C)
        assert sel.outside_at_most_inv_C and sel.floor_holds and sel.triggered
        assert sel.verdict == "tail entropy at least outside_mass * ln C, hence at least c0 * ln C"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=12).filter(any),
        st.integers(2, 11),
        st.booleans(),
    )
    def test_both_links_always_hold(self, counts, C, exact):
        k = len(counts)
        C = min(C, k)
        total = sum(counts)
        if exact:
            law = LabelDistribution(tuple(range(k)), tuple(counts), EXACT, total)
        else:
            law = LabelDistribution(tuple(range(k)), tuple(c / total for c in counts),
                                    entropy.monte_carlo(total))
        sel = entropy.tail_select(law, C, 0.3)
        assert sel.outside_at_most_inv_C and sel.floor_holds

    def test_outside_never_exceeds_inv_c(self):
        rng = random.Random(4)
        for _ in range(50):
            k = rng.randrange(3, 9)
            weights = [rng.randrange(1, 50) for _ in range(k)]
            total = sum(weights)
            d = dist(*(Fraction(w, total) for w in weights))
            C = rng.randrange(2, k + 1)
            sel = entropy.tail_select(d, C, 0.3)
            assert sel.outside_at_most_inv_C

    def test_tail_entropy_matches_direct_sum(self):
        rng = random.Random(5)
        for _ in range(30):
            k = rng.randrange(3, 10)
            weights = [rng.randrange(0, 50) for _ in range(k)]
            if sum(weights) == 0:
                continue
            total = sum(weights)
            d = dist(*(Fraction(w, total) for w in weights))
            C = rng.randrange(2, k + 1)
            sel = entropy.tail_select(d, C, 0.3)
            outside = [a for a in d.labels if a not in set(sel.selected)]
            direct = -sum(
                float(d.mass(a)) * math.log(float(d.mass(a)))
                for a in outside
                if d.mass(a) > 0
            )
            assert abs(sel.tail_entropy - direct) < 1e-12
