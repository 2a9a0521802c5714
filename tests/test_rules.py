import hashlib
import random
import re
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiidlab import entropy, graphs, homsearch, rules


def random_raw_ball(d, t, model, rng):
    """A raw (uncanonicalized) ball with seeds drawn per the model."""

    def node(depth, branching):
        if model.kind == "alphabet":
            label = rng.randrange(model.q)
        elif model.kind == "rank":
            label = rng.random()
        else:
            label = (rng.random(), rng.randrange(model.q))
        if depth == 0:
            return (label, ())
        return (label, tuple(node(depth - 1, d - 1) for _ in range(branching)))

    return node(t, d)


def shuffle_siblings(raw, rng):
    label, children = raw
    kids = [shuffle_siblings(c, rng) for c in children]
    rng.shuffle(kids)
    return (label, tuple(kids))


def reference_rank_subtree_assignments(ranks, d, depth):
    """The recursion `rules._rank_subtree_assignments` replaced: each block
    builds its subtree codes from scratch, over its own ranks."""
    if depth == 0:
        return [bytes((ranks[0],))]
    out = []
    block = rules.subtree_size(d, depth - 1)
    for root_rank in ranks:
        rest = tuple(r for r in ranks if r != root_rank)
        for blocks in rules._block_partitions(rest, block):
            for parts in product(
                *(reference_rank_subtree_assignments(b, d, depth - 1) for b in blocks)
            ):
                out.append(bytes((root_rank,)) + b"".join(sorted(parts)))
    return out


def reference_hybrid_codes(d, t, q):
    """Sorted hybrid codes from the reference rank codes: each rank byte r
    followed by the tag of the vertex of rank r."""
    B = rules.ball_size(d, t)
    rank_codes = reference_rank_subtree_assignments(tuple(range(1, B + 1)), d, t)
    return sorted(
        bytes(x for r in code for x in (r, tags[r - 1]))
        for tags in product(range(q), repeat=B)
        for code in rank_codes
    )


REFUSALS = [
    (lambda: rules.SeedModel("x"), ValueError, "unknown seed model kind 'x'"),
    (lambda: rules.SeedModel("rank", 2), ValueError, "rank model takes no alphabet size"),
    (
        lambda: rules.canonicalize((0, ((1, ()), (2, ()), (3, ()))), 3, 1, rules.hybrid(2)),
        rules.MalformedBall,
        "hybrid label must be (seed, tag), got 0",
    ),
    (
        lambda: rules.canonicalize((0, ((1, ()), ("a", ()), (3, ()))), 3, 1, rules.rank()),
        rules.MalformedBall,
        "seeds are not mutually comparable: "
        "'<' not supported between instances of 'str' and 'int'",
    ),
    # a star of 300 leaves: 301 ranks, past the 255 a code byte holds
    (
        lambda: rules.canonicalize(
            (0, tuple((i, ()) for i in range(1, 301))), 300, 1, rules.rank()
        ),
        rules.MalformedBall,
        "301 ranks do not fit a code byte",
    ),
]


@pytest.mark.parametrize(
    "call,error,message",
    REFUSALS,
    ids=["unknown-kind", "rank-with-q", "hybrid-not-pair", "incomparable", "past-255-ranks"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestSeedModel:
    @pytest.mark.parametrize(
        "token",
        [
            "alphabet:y", "hybrid:x1", "alphabet:", "hybrid:2.5",
            # int() reads each of these as a size, but none is its own text
            "alphabet:1_0", "alphabet:+3", "alphabet:03", "alphabet: 3", "hybrid:\u0663",
        ],
    )
    def test_size_that_is_not_an_int_is_refused_by_name(self, token):
        with pytest.raises(ValueError, match=f"^cannot parse seed model {re.escape(repr(token))}$"):
            rules.SeedModel.parse(token)

    def test_parse_reads_its_own_text(self):
        for model in (rules.rank(), rules.alphabet(2), rules.hybrid(256)):
            assert rules.SeedModel.parse(str(model)) == model

    @pytest.mark.parametrize("token", [" alphabet:3 ", "rank ", " rank", "hybrid:2\n", "\talphabet:2"])
    def test_padded_token_is_refused(self, token):
        with pytest.raises(ValueError, match=f"^cannot parse seed model {re.escape(repr(token))}$"):
            rules.SeedModel.parse(token)


class TestEnumeration:
    def test_alphabet_t0(self):
        assert len(rules.enumerate_canonical_balls(3, 0, rules.alphabet(2))) == 2

    def test_alphabet_t1_count_and_oracle(self):
        balls = rules.enumerate_canonical_balls(3, 1, rules.alphabet(2))
        assert len(balls) == 8
        # oracle: canonicalize every raw labeling of the 4-vertex ball
        seen = set()
        for labs in product(range(2), repeat=4):
            raw = (labs[0], tuple((x, ()) for x in labs[1:]))
            seen.add(rules.canonicalize(raw, 3, 1, rules.alphabet(2)))
        assert seen == set(balls)

    def test_alphabet_t2_oracle(self):
        balls = rules.enumerate_canonical_balls(3, 2, rules.alphabet(2))
        seen = set()
        for labs in product(range(2), repeat=10):
            raw = (
                labs[0],
                tuple(
                    (labs[1 + 3 * i], ((labs[2 + 3 * i], ()), (labs[3 + 3 * i], ())))
                    for i in range(3)
                ),
            )
            seen.add(rules.canonicalize(raw, 3, 2, rules.alphabet(2)))
        assert seen == set(balls)
        assert len(balls) == 112

    def test_rank_t1_count_and_oracle(self):
        balls = rules.enumerate_canonical_balls(3, 1, rules.rank())
        assert len(balls) == 4
        seen = set()
        for perm in permutations(range(1, 5)):
            raw = (perm[0], tuple((x, ()) for x in perm[1:]))
            seen.add(rules.canonicalize(raw, 3, 1, rules.rank()))
        assert seen == set(balls)
        # the four orbits are exactly the root ranks, each code's first byte
        assert sorted(code[0] for code in balls) == [1, 2, 3, 4]

    def test_rank_t2_count_formula(self):
        balls = rules.enumerate_canonical_balls(3, 2, rules.rank())
        assert len(balls) == factorial(10) // 48 == 75600
        assert len(set(balls)) == 75600

    @pytest.mark.parametrize(
        "d,t",
        [(2, t) for t in range(5)] + [(3, t) for t in range(3)]
        + [(d, t) for d in (4, 5, 9) for t in range(2)],
    )
    def test_rank_codes_equal_the_reference_recursion(self, d, t):
        # every (d, t) within the ball budget; equal lists, order included
        B = rules.ball_size(d, t)
        assert B <= rules.RANK_BALL_LIMIT
        ranks = tuple(range(1, B + 1))
        expected = reference_rank_subtree_assignments(ranks, d, t)
        assert rules._rank_codes(B, d, t) == expected
        assert rules._rank_subtree_assignments(ranks, d, t) == expected
        assert rules.enumerate_canonical_balls(d, t, rules.rank()) == tuple(sorted(expected))

    def test_rank_codes_over_a_sparse_rank_set(self):
        # a block's ranks are any increasing tuple, not 1..s
        for ranks, d, depth in [((2, 5, 9), 3, 1), ((1, 4, 6, 7, 8, 10, 12), 3, 2),
                                ((3, 4, 8, 11), 4, 1)]:
            expected = reference_rank_subtree_assignments(ranks, d, depth)
            assert rules._rank_subtree_assignments(ranks, d, depth) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3])
    def test_hybrid_codes_equal_the_reference(self, d, q):
        codes = rules.enumerate_canonical_balls(d, 1, rules.hybrid(q))
        assert list(codes) == rules._enumerate_hybrid(d, 1, q) == reference_hybrid_codes(d, 1, q)

    def test_hybrid_t1_count(self):
        balls = rules.enumerate_canonical_balls(3, 1, rules.hybrid(2))
        assert len(balls) == 4 * 2**4

    @pytest.mark.parametrize("d,t,q", [(3, 1, 2), (3, 1, 3), (2, 2, 2)])
    def test_hybrid_oracle(self, d, t, q):
        # canonicalize every raw ball: distinct ranks 1..B with every tag vector
        model = rules.hybrid(q)
        B = rules.ball_size(d, t)
        template = rules._preorder_template(d, t)
        seen = {}
        for perm in permutations(range(1, B + 1)):
            for tags in product(range(q), repeat=B):
                raw = rules.fill_ball(template, tuple(zip(perm, tags)))
                code = rules.canonicalize(raw, d, t, model)
                seen[code] = seen.get(code, 0) + 1
        codes, counts, total = rules.enumerate_canonical_balls_weighted(d, t, model)
        assert seen == dict(zip(codes, counts))
        assert total == factorial(B) * q**B

    def test_weights_sum_to_total(self):
        for model in (rules.alphabet(2), rules.alphabet(3), rules.rank(), rules.hybrid(2)):
            _, counts, total = rules.enumerate_canonical_balls_weighted(3, 1, model)
            assert sum(counts) == total

    @pytest.mark.parametrize(
        "model",
        (rules.alphabet(2), rules.alphabet(3), rules.rank(), rules.hybrid(2)),
        ids=str,
    )
    def test_enumeration_is_one_tuple_of_codes(self, model):
        weighted = rules.enumerate_canonical_balls_weighted(3, 1, model)
        codes, counts, total = weighted
        assert type(codes) is tuple and all(type(code) is bytes for code in codes)
        assert rules.enumerate_canonical_balls(3, 1, model) is weighted[0]
        assert len(counts) == len(codes)
        assert sum(counts) == total

    def test_orbit_size_of_repeated_tags(self):
        # (root, children {a, a, b}) has 3 raw labelings
        codes, counts, _ = rules.enumerate_canonical_balls_weighted(3, 1, rules.alphabet(2))
        by_code = dict(zip(codes, counts))
        code = rules.canonicalize(
            (0, ((0, ()), (0, ()), (1, ()))), 3, 1, rules.alphabet(2)
        )
        assert by_code[code] == 3

    def test_budget_exceeded(self):
        with pytest.raises(rules.BudgetExceeded):
            rules.enumerate_canonical_balls(3, 3, rules.rank())
        with pytest.raises(rules.BudgetExceeded):
            rules.enumerate_canonical_balls(3, 2, rules.alphabet(17))

    def test_deterministic_order(self):
        a = rules.enumerate_canonical_balls(3, 1, rules.alphabet(3))
        b = rules.enumerate_canonical_balls(3, 1, rules.alphabet(3))
        assert a == b == tuple(sorted(a))


class TestCanonicalize:
    def test_multiset_equality(self):
        m = rules.alphabet(2)
        a = rules.canonicalize((1, ((1, ()), (0, ()), (1, ()))), 3, 1, m)
        b = rules.canonicalize((1, ((0, ()), (1, ()), (1, ()))), 3, 1, m)
        assert a == b

    def test_rank_root_rank(self):
        code = rules.canonicalize(
            (0.9, ((0.1, ()), (0.5, ()), (0.3, ()))), 3, 1, rules.rank()
        )
        assert rules._decode(code, 3, 1, "rank")[0] == 4  # root is the largest of 4
        assert code == bytes((4, 1, 2, 3))

    def test_subtree_swap_invariance_t2(self):
        m = rules.alphabet(2)
        raw = (1, ((0, ((1, ()), (0, ()))), (1, ((0, ()), (0, ()))), (0, ((1, ()), (1, ())))))
        swapped = (1, ((1, ((0, ()), (0, ()))), (0, ((1, ()), (0, ()))), (0, ((1, ()), (1, ())))))
        assert rules.canonicalize(raw, 3, 2, m) == rules.canonicalize(swapped, 3, 2, m)

    def test_idempotent(self):
        m = rules.rank()
        rng = random.Random(3)
        raw = random_raw_ball(3, 2, m, rng)
        once = rules.canonicalize(raw, 3, 2, m)
        labels = rules._decode(once, 3, 2, m.kind)
        twice = rules.canonicalize(labels, 3, 2, m)
        assert once == twice and rules._decode(twice, 3, 2, m.kind) == labels

    def test_node_memo_cleared_when_full_keeps_every_code(self, monkeypatch):
        # a memo of 4 keys is cleared many times over the class; every code
        # still decodes and recodes to itself
        monkeypatch.setattr(rules, "_NODE_CODES", {})
        monkeypatch.setattr(rules, "_NODE_CODES_LIMIT", 4)
        m = rules.alphabet(3)
        codes = rules.enumerate_canonical_balls(3, 2, m)
        for code in codes:
            assert rules.canonicalize(rules._decode(code, 3, 2, m.kind), 3, 2, m) == code
            assert len(rules._NODE_CODES) <= 4
        assert len(codes) > 4

    def test_tied_seeds_rejected(self):
        tied = (0.5, ((0.5, ()), (0.1, ()), (0.2, ())))
        with pytest.raises(rules.MalformedBall):
            rules.canonicalize(tied, 3, 1, rules.rank())
        rule = rules.builtin_rule("max_seed_independent", d=3)
        with pytest.raises(rules.MalformedBall):
            rules.evaluate(rule, tied)
        hybrid_tied = (((0.5, 0), ((0.5, 1), ()), ((0.1, 0), ()), ((0.2, 0), ())))
        with pytest.raises(rules.MalformedBall):
            rules.canonicalize(hybrid_tied, 3, 1, rules.hybrid(2))
        # u and v tie: both endpoint balls hold them
        lay = rules.edge_ball_layout(3, 1)
        with pytest.raises(rules.MalformedBall):
            rules.endpoint_codes(lay, rules.rank(), (1, 1, 2, 3, 4, 5))
        with pytest.raises(rules.MalformedBall):
            rules.endpoint_codes(lay, rules.hybrid(2), ((1, 0), (1, 1), (2, 0), (3, 0), (4, 0), (5, 0)))
        target = graphs.named_graph("C5")
        rule = rules.random_rule(3, 1, rules.rank(), tuple(range(5)), 3)
        witness = homsearch.ViolationWitness(config=(1, 1, 2, 3, 4, 5), outputs=(0, 0))
        with pytest.raises(rules.MalformedBall):
            homsearch.replay_witness(rule, target, witness)

    def test_malformed_shape(self):
        with pytest.raises(rules.MalformedBall):
            rules.canonicalize((0, ((0, ()), (1, ()))), 3, 1, rules.alphabet(2))

    def test_bad_tag(self):
        bad = (5, ((0, ()), (1, ()), (0, ())))
        with pytest.raises(rules.MalformedBall):
            rules.canonicalize(bad, 3, 1, rules.alphabet(2))
        rule = rules.random_rule(3, 1, rules.alphabet(2), tuple(range(5)), 7)
        with pytest.raises(rules.MalformedBall):
            rules.evaluate(rule, bad)
        lay = rules.edge_ball_layout(3, 1)
        with pytest.raises(rules.MalformedBall):
            rules.endpoint_codes(lay, rules.alphabet(2), (0, 0, 0, 0, 0, 7))
        with pytest.raises(rules.MalformedBall):
            rules.endpoint_codes(lay, rules.hybrid(2), tuple((r, 2) for r in range(1, 7)))
        with pytest.raises(rules.MalformedBall):
            rules.endpoint_codes(lay, rules.alphabet(2), (0,) * 5)
        witness = homsearch.ViolationWitness(config=(0, 0, 0, 9, 0, 0), outputs=(0, 0))
        with pytest.raises(rules.MalformedBall):
            homsearch.replay_witness(rule, graphs.named_graph("C5"), witness)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_equivariance_random(self, ball_seed, shuffle_seed):
        # permuting sibling subtrees anywhere never changes the code
        for model in (rules.alphabet(3), rules.rank()):
            raw = random_raw_ball(3, 2, model, random.Random(ball_seed))
            mixed = shuffle_siblings(raw, random.Random(shuffle_seed))
            assert (
                rules.canonicalize(raw, 3, 2, model)
                == rules.canonicalize(mixed, 3, 2, model)
            )


class TestEvaluate:
    def test_constant(self):
        rule = rules.builtin_rule("constant", label="c")
        assert rules.evaluate(rule, (0.37, ())) == "c"

    def test_max_seed_in(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        assert rules.evaluate(rule, (0.9, ((0.1, ()), (0.5, ()), (0.3, ())))) == "IN"

    def test_max_seed_out(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        assert rules.evaluate(rule, (0.2, ((0.1, ()), (0.5, ()), (0.3, ())))) == "OUT"

    def test_equivariance_of_outputs(self):
        rule = rules.random_rule(3, 2, rules.rank(), ("a", "b", "c"), 17)
        rng = random.Random(99)
        for _ in range(40):
            raw = random_raw_ball(3, 2, rules.rank(), rng)
            mixed = shuffle_siblings(raw, rng)
            assert rules.evaluate(rule, raw) == rules.evaluate(rule, mixed)

    def test_table_total_for_enumerated_balls(self):
        rule = rules.random_rule(3, 1, rules.alphabet(2), (0, 1), 5)
        for code in rules.enumerate_canonical_balls(3, 1, rules.alphabet(2)):
            assert rules.evaluate(rule, rules._decode(code, 3, 1, "alphabet")) in (0, 1)


class TestBuiltinRules:
    def test_constant_table(self):
        rule = rules.builtin_rule("constant", label=7, output_alphabet=(7, 8))
        assert set(rule.table.values()) == {7}

    def test_max_seed_table_shape(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        assert rule.t == 1 and rule.model == rules.rank()
        assert sorted(rule.table.values()).count("IN") == 1

    def test_incomplete_table(self):
        balls = rules.enumerate_canonical_balls(3, 1, rules.rank())
        table = {code: "x" for code in balls[:3]}

        def make(table):
            return rules.make_rule(3, 1, rules.rank(), ("x",), table)

        with pytest.raises(rules.IncompleteTable, match="^table covers 3 of 4 canonical balls$"):
            make(table)
        unknown = bytes((9, 9, 9, 9))
        with pytest.raises(ValueError, match="^table has 1 entries for unknown balls$"):
            make({**dict.fromkeys(balls, "x"), unknown: "x"})
        # missing and unknown keys together: the missing ones are reported
        with pytest.raises(rules.IncompleteTable, match="^table covers 3 of 4 canonical balls$"):
            make({**table, unknown: "x"})
        with pytest.raises(ValueError, match="^table outputs {'y'} outside the output alphabet$"):
            make({**table, balls[3]: "y"})

    def test_unknown_name(self):
        with pytest.raises(rules.UnknownName):
            rules.builtin_rule("most_seed_independent")


class TestRandomRule:
    def test_shape(self):
        rule = rules.random_rule(3, 1, rules.rank(), ("a", "b", "c", "d", "e"), 1)
        assert len(rule.table) == 4
        assert set(rule.table.values()) <= set("abcde")

    def test_deterministic(self):
        a = rules.random_rule(3, 1, rules.rank(), (0, 1, 2), 123)
        b = rules.random_rule(3, 1, rules.rank(), (0, 1, 2), 123)
        assert a == b
        assert a != rules.random_rule(3, 1, rules.rank(), (0, 1, 2), 124)

    def test_rank_t2_covers_enumeration(self):
        rule = rules.random_rule(3, 2, rules.rank(), ("p", "q"), 0)
        assert len(rule.table) == rules.rank_ball_count(3, 2) == 75600

    @pytest.mark.parametrize(
        "d,t,model",
        [(3, 1, rules.rank()), (3, 1, rules.hybrid(2)), (3, 1, rules.alphabet(2)),
         (3, 1, rules.alphabet(3)), (3, 2, rules.alphabet(3))],
        ids=str,
    )
    def test_outputs_and_table_agree(self, d, t, model):
        rule = rules.random_rule(d, t, model, ("a", 0, "z"), 4)
        assert "table" not in rule.__dict__
        codes = rules.enumerate_canonical_balls(d, t, model)
        assert list(rule.table) == list(codes)
        assert rules.make_rule(d, t, model, rule.output_alphabet, rule.table) == rule

    def test_alphabet_is_checked(self):
        with pytest.raises(ValueError, match="nonempty without repeats"):
            rules.random_rule(3, 1, rules.rank(), ("a", "a"), 0)
        with pytest.raises(ValueError, match="not serializable"):
            rules.random_rule(3, 1, rules.rank(), ("a b",), 0)
        # a label whose text would read back as another value
        for label in ("007", 0.5, "7", "-0", True, None, "\u00b2"):
            with pytest.raises(ValueError, match="not serializable .non-ASCII or not read back.$"):
                rules.random_rule(3, 1, rules.rank(), (label, "x"), 1)


class TestLocalRule:
    def test_outputs_must_fit_the_class(self):
        model = rules.rank()
        message = "^a rule of this class has 4 outputs, each an output alphabet index$"
        for outputs in ((0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 0, 2), (0, 1, 0, -1)):
            with pytest.raises(ValueError, match=message):
                rules.LocalRule(3, 1, model, ("a", "b"), outputs)
        # the same refusals of bytes, of values no byte holds, and past 256 labels
        for outputs in (b"\0\1\0", b"\0\1\0\1\0", b"\0\1\0\2", (0, 1, 0, 256), (0, 1, 0, 0.5)):
            with pytest.raises(ValueError, match=message):
                rules.LocalRule(3, 1, model, ("a", "b"), outputs)
        for outputs in ((0, 1, 0), (0, 1, 0, 300), (0, 1, 0, -1)):
            with pytest.raises(ValueError, match=message):
                rules.LocalRule(3, 1, model, tuple(range(300)), outputs)

    def test_table_is_a_view_of_the_outputs(self):
        rule = rules.LocalRule(3, 1, rules.rank(), ("a", "b"), (0, 1, 1, 0))
        codes = rules.enumerate_canonical_balls(3, 1, rules.rank())
        assert rule.table == dict(zip(codes, "abba"))
        assert rules.make_rule(3, 1, rules.rank(), ("a", "b"), rule.table) == rule


def _producers(k):
    """(name, rule) of every producer of rules over k labels (k >= 2 for a
    found search, which needs an edge), all at rank t=1 but the builtins."""
    d, t, model, alpha = 3, 1, rules.rank(), tuple(range(k))
    drawn = rules.random_rule(d, t, model, alpha, k)
    yield "random_rule", drawn
    yield "rule_from_text", rules.rule_from_text(rules.rule_to_text(drawn))
    yield "make_rule", rules.make_rule(d, t, model, alpha, drawn.table)
    yield "rule_at_cursor", homsearch.rule_at_cursor(d, t, model, alpha, k**4 - 1)
    if k == 1:
        yield "constant", rules.builtin_rule("constant", label=0)
        yield "max_seed_independent", rules.builtin_rule("max_seed_independent")
    else:
        # rule 1 of rank d=1 t=1 maps every edge onto the edge 0-1
        found = homsearch.search(graphs.build_graph(k, [(0, 1)]), 1, 1, model)
        assert found.kind == "Found"
        yield "search", found.rule


class TestOutputStorage:
    """A rule stores its outputs as bytes up to 256 labels and as a tuple of
    ints past them, whichever producer built it."""

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 17, 255, 256])
    def test_outputs_are_bytes_up_to_256_labels(self, k):
        for name, rule in _producers(k):
            assert type(rule.outputs) is bytes, name
            assert list(rule.table.values()) == [rule.output_alphabet[i] for i in rule.outputs]

    @pytest.mark.parametrize("k", [257, 300])
    def test_outputs_past_256_labels_are_a_tuple(self, k):
        for name, rule in _producers(k):
            assert type(rule.outputs) is tuple, name
            assert all(type(i) is int for i in rule.outputs), name

    def test_one_rule_whatever_it_was_built_from(self):
        def rule(outputs, alpha=("a", "b")):
            return rules.LocalRule(3, 1, rules.rank(), alpha, outputs)

        forms = [(0, 1, 1, 0), [0, 1, 1, 0], b"\0\1\1\0", bytearray(b"\0\1\1\0")]
        built = [rule(outputs) for outputs in forms]
        for other in built:
            assert other == built[0] and hash(other) == hash(built[0])
            assert other.outputs == b"\0\1\1\0"
        wide = [rule(outputs, tuple(range(257))) for outputs in ((0, 256, 1, 0), [0, 256, 1, 0])]
        assert wide[0] == wide[1] and hash(wide[0]) == hash(wide[1])
        assert wide[0].outputs == (0, 256, 1, 0)
        narrow = rule(b"\0\1\1\0", tuple(range(257)))
        assert narrow.outputs == (0, 1, 1, 0) and narrow == rule((0, 1, 1, 0), tuple(range(257)))

    def test_wide_rule_law_and_file_are_pinned(self):
        """sha256 of the exact law (counts in key order and the denominator)
        and of the rule file of a 300-label alphabet:3 t=2 rule, recorded
        when every rule stored a tuple."""
        rule = rules.random_rule(3, 2, rules.alphabet(3), tuple(range(300)), 300)
        assert type(rule.outputs) is tuple
        pair = entropy.exact_marginals(rule)[1]
        law = repr((list(pair.counts.items()), pair.denominator))
        assert hashlib.sha256(law.encode()).hexdigest() == (
            "1ac798aabcbfcdb40f8ac519d99f62726083dc4b20755d9636bcecaf7ee0ae30"
        )
        text = rules.rule_to_text(rule)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "c08324e8d4a13313230165934926c98c8d1eeb5386e0c8bd2becb9f0a94227b1"
        )
        assert rules.rule_from_text(text) == rule


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        text = rules.rule_to_text(rule)
        back = rules.rule_from_text(text)
        assert back == rule
        assert rules.rule_to_text(back) == text

    def test_integer_labels_round_trip(self):
        rule = rules.random_rule(3, 1, rules.alphabet(2), (0, 1, 2), 9)
        back = rules.rule_from_text(rules.rule_to_text(rule))
        assert back == rule and all(isinstance(v, int) for v in back.table.values())

    def test_file_round_trip(self, tmp_path):
        rule = rules.random_rule(3, 1, rules.hybrid(2), ("x", "y"), 2)
        path = tmp_path / "rule.txt"
        rules.save_rule(rule, path)
        assert rules.load_rule(path) == rule

    @pytest.mark.parametrize(
        "args,digest",
        [
            ((3, 2, rules.rank(), (0, 1, 2), 1),
             "3da099d809333528626c5b3934fa949214b74f2db39f75cf74169e4492c46613"),
            ((3, 2, rules.alphabet(3), ("a", "b"), 2),
             "dfe3d233b85248345567fef85e6d78bc9d5d1e8381b215bca6d1610ebca45f91"),
            ((3, 1, rules.hybrid(2), (0, 1, 2, 3), 3),
             "6f10613377105ef6c289563b2d543659991fc73f2f0c74c74c4d145d55975dd8"),
            ((3, 3, rules.alphabet(2), (0, 1, 2), 7),
             "92002b31f03efd8607975784236ec761fdd8ad9f67dd5905e98f4a3338d33c6d"),
        ],
        ids=["rank_t2", "alphabet3_t2", "hybrid2_t1", "alphabet2_t3"],
    )
    def test_rule_file_bytes_are_pinned(self, args, digest):
        """The bytes of seeded random rule files: a header, then one line per
        canonical ball in class order."""
        rule = rules.random_rule(*args)
        text = rules.rule_to_text(rule)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
        assert rules.rule_from_text(text) == rule

    def test_header_parse_error(self):
        # d, t and the model must each read back as its own text
        own_texts = ("x 1 rank a,b", "3 y rank a,b", "3 1 alphabet:y a,b", "3 1 alphabet:1 a,b",
                     "3 1 ranked a,b", "03 1 rank a,b", "3 +1 rank a,b", "3 1 alphabet:02 a,b",
                     "3 1 rank a,b extra")
        cases = [("3 1 rank\n", "3 1 rank"), ("", ""), ("\n  \n", "")]
        for text, header in cases + [(h + "\n", h) for h in own_texts]:
            with pytest.raises(ValueError, match=f"^line 1: bad rule header '{re.escape(header)}'$"):
                rules.rule_from_text(text)

    def test_files_are_the_text(self, tmp_path):
        path = tmp_path / "r.rule"
        for rule in (
            rules.builtin_rule("max_seed_independent", d=3),
            rules.random_rule(3, 2, rules.rank(), (0, "x", -2), 1),
            rules.random_rule(2, 3, rules.hybrid(2), ("a",), 3),
        ):
            rules.save_rule(rule, path)
            assert path.read_bytes() == rules.rule_to_text(rule).encode("ascii")

    @staticmethod
    def _variants():
        lines = rules.rule_to_text(rules.builtin_rule("max_seed_independent", d=3)).splitlines()
        code, label = lines[2].split()
        other = "IN" if label == "OUT" else "OUT"
        return {
            "plain": "\n".join(lines) + "\n",
            "blank_lines": "\n\n" + "\n \n".join(lines),
            "crlf": "\r\n".join(lines[:3] + ["", *lines[3:]]) + "\r\n",
            "form_feed": "\n".join(lines[:2]) + "\x0c" + "\n".join(lines[2:]) + "\n",
            "other_breaks": "\r".join(lines[:2]) + "\x0b\x1c" + "\x1d".join(lines[2:]),
            "bad_header": "\n".join(["3 1 alphabet:y IN,OUT", *lines[1:]]),
            "relabelled": "\n".join(lines[:2] + [f"{code} {other}X", *lines[3:]]),
            "missing": "\n".join(lines[:2]) + "\x0c\n" + "\n".join(lines[3:]),
            "extra": "\n".join(lines) + "\x0c" + lines[-1],
        }

    @pytest.mark.parametrize("variant", ["plain", "blank_lines", "crlf", "form_feed", "other_breaks"])
    def test_load_rule_reads_what_rule_from_text_reads(self, tmp_path, variant):
        text = self._variants()[variant]
        path = tmp_path / "r.rule"
        path.write_bytes(text.encode("ascii"))
        rule = rules.builtin_rule("max_seed_independent", d=3)
        assert rules.load_rule(path) == rules.rule_from_text(text) == rule

    def test_file_of_many_blocks_reads_as_its_text(self, tmp_path):
        # 1.3 MB, read in blocks of whole lines, with the line breaks mixed
        rule = rules.random_rule(3, 2, rules.rank(), (0, 1, 2), 1)
        breaks = ("\n", "\r\n", "\x0c", "\n \n", "\x0b\r\n", "\r")
        lines = rules.rule_to_text(rule).splitlines()
        text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
        path = tmp_path / "r.rule"
        path.write_bytes(text.encode("ascii"))
        assert rules.load_rule(path) == rules.rule_from_text(text) == rule

    @pytest.mark.parametrize(
        "variant,message",
        [
            ("bad_header", "^line 1: bad rule header '3 1 alphabet:y IN,OUT'$"),
            ("relabelled", "^line 3: expected '.*', got '.* (IN|OUT)X'$"),
            ("missing", "^line 4: expected '"),
            ("extra", "^line 6: extra line past the 4 canonical balls$"),
        ],
    )
    def test_load_rule_refuses_what_rule_from_text_refuses(self, tmp_path, variant, message):
        text = self._variants()[variant]
        path = tmp_path / "r.rule"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(ValueError, match=message) as from_text:
            rules.rule_from_text(text)
        with pytest.raises(ValueError) as from_file:
            rules.load_rule(path)
        assert str(from_file.value) == str(from_text.value)

    def test_line_without_two_fields_is_refused(self):
        lines = rules.rule_to_text(rules.builtin_rule("max_seed_independent", d=3)).splitlines()
        lines[2] += " extra"
        with pytest.raises(ValueError, match="line 3"):
            rules.rule_from_text("\n".join(lines))
        lines[2] = lines[2].split()[0]
        with pytest.raises(ValueError, match="line 3"):
            rules.rule_from_text("\n".join(lines))

    @staticmethod
    def _max_seed_lines():
        return rules.rule_to_text(rules.builtin_rule("max_seed_independent", d=3)).splitlines()

    def test_code_listed_twice_is_refused(self):
        # the first code again with the other label, after a blank line: the
        # line where the second code belongs is refused
        lines = self._max_seed_lines()
        code, label = lines[1].split()
        other = "IN" if label == "OUT" else "OUT"
        text = "\n".join(lines[:2] + ["", f"{code} {other}"] + lines[2:])
        expected = lines[2].split()[0]
        with pytest.raises(
            ValueError, match=f"^line 4: expected '{expected} <header label>', got '{code} {other}'$"
        ):
            rules.rule_from_text(text)

    def test_lines_out_of_class_order_are_refused(self):
        lines = self._max_seed_lines()
        lines[2], lines[3] = lines[3], lines[2]
        with pytest.raises(ValueError, match="^line 3: expected '"):
            rules.rule_from_text("\n".join(lines))

    def test_label_missing_from_the_header_is_refused(self):
        lines = self._max_seed_lines()
        lines[3] = lines[3].split()[0] + " MAYBE"
        with pytest.raises(ValueError, match="^line 4: expected '.*', got '.* MAYBE'$"):
            rules.rule_from_text("\n".join(lines))

    def test_missing_last_line_is_refused(self):
        lines = self._max_seed_lines()
        assert len(lines) == 5
        with pytest.raises(ValueError, match="^line 5: missing, only 3 of 4 balls$"):
            rules.rule_from_text("\n".join(lines[:-1]) + "\n")

    def test_extra_line_is_refused(self):
        lines = self._max_seed_lines()
        text = "\n".join(lines + ["", lines[-1]]) + "\n"
        with pytest.raises(ValueError, match="^line 7: extra line past the 4 canonical balls$"):
            rules.rule_from_text(text)

    def test_header_text_must_be_its_labels_own(self):
        # 007 would read as 7, which writes back as 7
        text = rules.rule_to_text(rules.random_rule(3, 1, rules.rank(), (7, "x"), 1))
        with pytest.raises(ValueError, match="^line 1: header labels '007,x' are not the texts"):
            rules.rule_from_text(text.replace(" 7,x\n", " 007,x\n"))

    def test_parse_label_reads_only_ascii_digits_as_ints(self):
        assert [rules._parse_label(x) for x in ("12", "-3", "-", "+4", "\u00b2", "\u0663")] == [
            12, -3, "-", "+4", "\u00b2", "\u0663"
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-10**12, 10**12),
                st.text(st.sampled_from("07a-+.x"), min_size=1, max_size=4),
                st.text(st.sampled_from("0a-x"), min_size=1, max_size=3),
                st.one_of(
                    st.text(st.sampled_from("07a \u00b2,"), max_size=3),
                    st.sampled_from([0.5, float("inf"), True, None, "007", "-0", "7"]),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 2**32),
    )
    def test_every_accepted_alphabet_round_trips(self, labels, seed):
        try:
            alpha = rules.check_output_alphabet(labels)
        except ValueError:
            return
        rule = rules.random_rule(3, 1, rules.rank(), alpha, seed)
        text = rules.rule_to_text(rule)
        back = rules.rule_from_text(text)
        assert back == rule and rules.rule_to_text(back) == text
        assert [type(x) for x in back.output_alphabet] == [type(x) for x in alpha]


def reference_edge_budget_refuses(d, t, model):
    """The edge budget as three branches: q^S for alphabet seeds, else the
    rank limit on S, and for hybrid seeds also S! q^S."""
    S = rules.edge_ball_layout(d, t).size
    if model.kind == "alphabet":
        return model.q**S > rules.ALPHABET_ENUM_BUDGET
    if S > rules.RANK_BALL_LIMIT:
        return True
    return model.kind == "hybrid" and factorial(S) * model.q**S > rules.ALPHABET_ENUM_BUDGET


class TestEdgeBall:
    def test_edge_budget_is_one_count(self):
        # the count of edge_configs refuses the classes the three branches
        # refuse: for rank, S <= 10 is S! <= 10^7
        models = [rules.rank()] + [
            make(q) for q in range(2, 257) for make in (rules.alphabet, rules.hybrid)
        ]
        cases = refused = 0
        for d, t in product(range(1, 7), range(4)):
            for model in models:
                expected = reference_edge_budget_refuses(d, t, model)
                try:
                    rules.check_edge_budget(d, t, model)
                    refuses = False
                except rules.BudgetExceeded as exc:
                    refuses = True
                    assert f"{model} edge ball of " in str(exc)
                assert refuses == expected, (d, t, str(model))
                cases += 1
                refused += refuses
        assert cases == 24 * 511 and 0 < refused < cases

    def test_edge_budget_builds_no_huge_factorial(self, monkeypatch):
        # a 14,762-seed rank edge ball: the count stops at RANK_BALL_LIMIT + 1 seeds
        seen = []
        monkeypatch.setattr(rules, "factorial", lambda n: seen.append(n) or factorial(n))
        with pytest.raises(rules.BudgetExceeded, match="rank edge ball of 14762 seeds"):
            rules.check_edge_budget(10, 4, rules.rank())
        assert seen == [rules.RANK_BALL_LIMIT + 1]

    def test_edge_budget_counts_the_configurations(self):
        # within the budget, the count is the number edge_configs yields
        for d, t, model in ((3, 1, rules.rank()), (1, 1, rules.hybrid(2)),
                            (2, 1, rules.alphabet(3))):
            layout = rules.check_edge_budget(d, t, model)
            assert sum(1 for _ in rules.edge_configs(layout, model)) == (
                (1 if model.kind == "alphabet" else factorial(layout.size))
                * (model.q or 1) ** layout.size
            )

    def test_layout_sizes(self):
        assert rules.edge_ball_layout(3, 0).size == 2
        assert rules.edge_ball_layout(3, 1).size == 6
        assert rules.edge_ball_layout(3, 2).size == 14

    def test_ball_extraction_shapes(self):
        lay = rules.edge_ball_layout(3, 2)
        config = tuple(range(14))

        def count(node):
            return 1 + sum(count(c) for c in node[1])

        assert count(rules.fill_ball(lay.u_template, config)) == 10
        assert count(rules.fill_ball(lay.v_template, config)) == 10

    def test_constant_seed_collapse(self):
        # equal tags make the endpoint balls canonically identical
        m = rules.alphabet(3)
        for t in (0, 1, 2):
            lay = rules.edge_ball_layout(3, t)
            config = (1,) * lay.size
            cu, cv = rules.endpoint_codes(lay, m, config)
            assert cu == cv

    def test_lex_first_config(self):
        lay = rules.edge_ball_layout(3, 1)
        first_alpha = next(rules.edge_configs(lay, rules.alphabet(2)))
        assert first_alpha == (0,) * 6
        first_rank = next(rules.edge_configs(lay, rules.rank()))
        assert first_rank == (1, 2, 3, 4, 5, 6)

    def test_pair_table_marginals_are_uniform_on_root_rank(self):
        pt = rules.edge_pair_table(3, 1, rules.rank())
        assert pt.total == 720
        # each endpoint's root rank is uniform on 1..4
        margins = {}
        for (cu, _), c in pt.counts.items():
            margins[cu[0]] = margins.get(cu[0], 0) + c
        assert margins == {1: 180, 2: 180, 3: 180, 4: 180}

    @pytest.mark.parametrize(
        "d,t,model",
        [(3, 1, rules.rank()), (3, 1, rules.alphabet(2)), (2, 2, rules.hybrid(2)),
         (3, 0, rules.alphabet(3))],
        ids=str,
    )
    def test_pair_table_order_is_first_occurrence(self, d, t, model):
        # the pairs sorted by the position of their first configuration
        lay = rules.edge_ball_layout(d, t)
        first = {}
        positions = 0
        for pos, config in enumerate(rules.edge_configs(lay, model)):
            first.setdefault(rules.endpoint_codes(lay, model, config), (pos, config))
            positions += 1
        want = [(cu, cv, cfg) for (cu, cv), (_, cfg) in sorted(first.items(), key=lambda kv: kv[1])]
        pt = rules.edge_pair_table(d, t, model)
        assert list(pt.order) == want
        assert list(pt.counts) == [(cu, cv) for cu, cv, _ in want]
        assert pt.total == positions

    def test_pair_table_symmetric(self):
        pt = rules.edge_pair_table(3, 1, rules.rank())
        for (cu, cv), c in pt.counts.items():
            assert pt.counts[(cv, cu)] == c
