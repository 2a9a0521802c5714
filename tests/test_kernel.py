"""The ball kernel and the exact pair laws against the slower routes they
replaced.

`reference_code` is the canonicalization `rules.canonicalize` used before the
kernel: replace rank seeds by their ranks in the ball, then sort sibling
subtrees recursively by their codes.  Kernel codes and edge pair tables must
equal what this slow route gives.  `_alphabet_edge_structure` is the alphabet
pair law the library computed before the half-tree recursion: enumerate the
seeds both endpoint balls see, and for each such configuration the private
seeds of either side.  Its rows are checked against the recursive sort, and
`entropy.exact_marginals` must give its pair laws exactly.
`reference_pair_law_ordered` is the rank and hybrid pair law the library
computed before the core interleavings: sum the edge pair table, which
codes every edge-ball configuration.  `reference_vertex_law` is the vertex
law computed before it became the pair law's marginal (the orbit sizes of
the canonical balls summed by label), and `reference_entropy` and
`reference_conditional_entropy` are the entropies computed from Fraction
masses before laws became integer counts; the counts must reproduce them
float for float.
"""

import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiidlab import entropy, rules

MODELS = (rules.alphabet(2), rules.alphabet(3), rules.rank(), rules.hybrid(2))


def _relabel(raw, kind):
    """Rank and hybrid seeds replaced by their rank 1..ball_size in the ball."""
    if kind == "alphabet":
        return raw
    seeds = []

    def collect(node):
        seeds.append(node[0][0] if kind == "hybrid" else node[0])
        for c in node[1]:
            collect(c)

    collect(raw)
    rank_of = {s: i + 1 for i, s in enumerate(sorted(seeds))}

    def rebuild(node):
        label, children = node
        new = (rank_of[label[0]], label[1]) if kind == "hybrid" else rank_of[label]
        return (new, tuple(rebuild(c) for c in children))

    return rebuild(raw)


def _canon_node(node, kind):
    label, children = node
    parts = sorted(_canon_node(c, kind) for c in children)
    head = bytes((label[0], label[1])) if kind == "hybrid" else bytes((label,))
    return head + b"".join(p[0] for p in parts), (label, tuple(p[1] for p in parts))


def reference(raw, kind):
    """(code, sibling-sorted labels) by the recursive sort."""
    return _canon_node(_relabel(raw, kind), kind)


def reference_code(raw, kind):
    return reference(raw, kind)[0]


def random_raw_ball(d, t, model, rng):
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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.integers(0, 2),
    st.sampled_from(MODELS),
    st.integers(0, 2**32),
)
def test_kernel_codes_equal_reference(d, t, model, seed):
    raw = random_raw_ball(d, t, model, random.Random(seed))
    code = rules.canonicalize(raw, d, t, model)
    assert (code, rules._decode(code, d, t, model.kind)) == reference(raw, model.kind)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.integers(0, 2), st.integers(0, 2**32))
def test_kernel_codes_on_enumerated_balls(d, t, seed):
    # canonical labels are their own raw balls: the kernel must reproduce
    # the enumerated code
    for model in MODELS:
        try:
            balls = rules.enumerate_canonical_balls(d, t, model)
        except rules.BudgetExceeded:
            continue
        code = random.Random(seed).choice(balls)
        labels = rules._decode(code, d, t, model.kind)
        assert rules.canonicalize(labels, d, t, model) == code
        assert reference_code(labels, model.kind) == code


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_labels_recode_to_code(model):
    # `_decode` gives a code's labels; canonicalizing them gives the code back
    for code in rules.enumerate_canonical_balls(3, 1, model):
        assert rules.canonicalize(rules._decode(code, 3, 1, model.kind), 3, 1, model) == code


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_pair_table_equals_reference(model):
    layout = rules.edge_ball_layout(3, 1)
    counts = {}
    for config in rules.edge_configs(layout, model):
        pair = (
            reference_code(rules.fill_ball(layout.u_template, config), model.kind),
            reference_code(rules.fill_ball(layout.v_template, config), model.kind),
        )
        counts[pair] = counts.get(pair, 0) + 1
    assert rules.edge_pair_table(3, 1, model).counts == counts


def _split_ids(layout):
    """(shared, u-only, v-only) ids of an edge-ball layout."""
    u, v = set(layout.u_ids), set(layout.v_ids)
    return tuple(sorted(u & v)), tuple(sorted(u - v)), tuple(sorted(v - u))


@lru_cache(maxsize=None)
def _alphabet_edge_structure(d, t, q):
    """Per shared-seed configuration, the canonical-code counts of each
    endpoint ball over its private seeds."""
    model = rules.alphabet(q)
    layout = rules.check_edge_budget(d, t, model)
    code_u, code_v = rules.edge_coders(d, t, model)
    shared, u_only, v_only = _split_ids(layout)
    config = [0] * layout.size
    rows = []
    for shared_cfg in product(range(q), repeat=len(shared)):
        for idx, tag in zip(shared, shared_cfg):
            config[idx] = tag
        counts_u = {}
        for side_cfg in product(range(q), repeat=len(u_only)):
            for idx, tag in zip(u_only, side_cfg):
                config[idx] = tag
            code = code_u(config)
            counts_u[code] = counts_u.get(code, 0) + 1
        counts_v = {}
        for side_cfg in product(range(q), repeat=len(v_only)):
            for idx, tag in zip(v_only, side_cfg):
                config[idx] = tag
            code = code_v(config)
            counts_v[code] = counts_v.get(code, 0) + 1
        rows.append((counts_u, counts_v))
    return layout, rows, q ** len(u_only), q ** len(v_only)


def reference_pair_law(rule):
    """Pair-law masses of an alphabet rule from `_alphabet_edge_structure`."""
    layout, rows, side_u, side_v = _alphabet_edge_structure(
        rule.d, rule.t, rule.model.q
    )
    table = rule.table
    acc = {}
    for counts_u, counts_v in rows:
        lu = {}
        for code, c in counts_u.items():
            lu[table[code]] = lu.get(table[code], 0) + c
        lv = {}
        for code, c in counts_v.items():
            lv[table[code]] = lv.get(table[code], 0) + c
        for a, cu in lu.items():
            for b, cv in lv.items():
                acc[(a, b)] = acc.get((a, b), 0) + cu * cv
    denom = rule.model.q ** len(_split_ids(layout)[0]) * side_u * side_v
    return {k: Fraction(v, denom) for k, v in acc.items()}


def _reference_rows(d, t, q, shared_cfgs):
    layout = rules.edge_ball_layout(d, t)
    shared, u_only, v_only = _split_ids(layout)
    rows = []
    for shared_cfg in shared_cfgs:
        config = [0] * layout.size
        for idx, tag in zip(shared, shared_cfg):
            config[idx] = tag
        row = []
        for template, side in ((layout.u_template, u_only), (layout.v_template, v_only)):
            counts = {}
            for side_cfg in product(range(q), repeat=len(side)):
                for idx, tag in zip(side, side_cfg):
                    config[idx] = tag
                code = reference_code(rules.fill_ball(template, config), "alphabet")
                counts[code] = counts.get(code, 0) + 1
            row.append(counts)
        rows.append(tuple(row))
    return rows


def _shared_configs(layout, q):
    return list(product(range(q), repeat=len(_split_ids(layout)[0])))


@pytest.mark.parametrize("q", (2, 3))
def test_alphabet_edge_structure_t1_equals_reference(q):
    layout, rows, _, _ = _alphabet_edge_structure(3, 1, q)
    assert rows == _reference_rows(3, 1, q, _shared_configs(layout, q))


def test_alphabet_edge_structure_t2_equals_reference():
    # every row is rebuilt at q=2; a seeded sample of the 729 rows at q=3
    for q, sample in ((2, None), (3, 24)):
        layout, rows, _, _ = _alphabet_edge_structure(3, 2, q)
        shared = _shared_configs(layout, q)
        picks = range(len(shared)) if sample is None else random.Random(q).sample(
            range(len(shared)), sample
        )
        assert [rows[i] for i in picks] == _reference_rows(3, 2, q, [shared[i] for i in picks])


def _oracle_rules(d, t, model):
    """Seeded random rules, constant rules (one with an unused label) and
    the identity-factor rule, which gives each canonical ball its own label.
    An alphabet pair law of at most min(`entropy._PACKED_MAX_LABELS`, the
    `cell_size` of its class's `entropy._cell_form`) labels sums by label
    class, a larger one by cells: one random rule sits at that bound and one
    just past it."""
    balls = rules.enumerate_canonical_balls(d, t, model)
    for seed in range(3):
        yield rules.random_rule(d, t, model, ("x", "y", "z"), seed)
    if model.kind == "alphabet":
        top = min(entropy._PACKED_MAX_LABELS, entropy._cell_form(d, t, model).cell_size)
    else:
        top = entropy._PACKED_MAX_LABELS
    for k in (top, top + 1):
        yield rules.random_rule(d, t, model, tuple(range(k)), k)
    yield rules.make_rule(d, t, model, ("c",), dict.fromkeys(balls, "c"))
    yield rules.make_rule(d, t, model, ("u", "c"), dict.fromkeys(balls, "c"))
    yield rules.make_rule(
        d, t, model, tuple(range(len(balls))), {code: i for i, code in enumerate(balls)}
    )


def _assert_alphabet_order(pair, rule):
    position = {a: i for i, a in enumerate(rule.output_alphabet)}
    assert list(pair.probs) == sorted(
        pair.probs, key=lambda ab: (position[ab[0]], position[ab[1]])
    )


# every class with d in {2, 3, 4}, t <= 2, q in {2, 3} whose edge ball the
# enumeration can afford: all but d=4, t=2 (q^26 and q^17 > the budget);
# and d=1, where a half-tree is its root alone, at t <= 3
ENUMERABLE = [
    (d, t, q) for d in (2, 3, 4) for t in (0, 1, 2) for q in (2, 3) if (d, t) != (4, 2)
] + [(1, t, 2) for t in (0, 1, 2, 3)]


ORDERED = [
    (3, 1, rules.rank()),
    (2, 2, rules.rank()),
    (2, 3, rules.rank()),
    (4, 1, rules.rank()),
    (3, 1, rules.hybrid(2)),
    (2, 2, rules.hybrid(2)),
]


def _model(seeds):
    """An alphabet size as its alphabet model; any other seed model as itself."""
    return rules.alphabet(seeds) if isinstance(seeds, int) else seeds


@pytest.mark.parametrize("d,t,q", ENUMERABLE)
def test_pair_law_equals_edge_enumeration(d, t, q):
    for rule in _oracle_rules(d, t, rules.alphabet(q)):
        pair = entropy.exact_marginals(rule)[1]
        assert pair.probs == reference_pair_law(rule)
        _assert_alphabet_order(pair, rule)


@pytest.mark.parametrize("d,t,seeds", ENUMERABLE + ORDERED, ids=str)
def test_partner_is_a_weighted_involution(d, t, seeds):
    """Both kernels sum each pair of partner blocks once, for both orders of
    the labels: that needs partner(partner(I)) = I, with equal weights."""
    form = entropy._cell_form(d, t, _model(seeds))
    for i, (j, weight) in enumerate(zip(form.partner, form.weight)):
        assert form.partner[j] == i
        assert form.weight[j] == weight > 0


@pytest.mark.parametrize("d,t,seeds", ENUMERABLE + [(2, 5, 2), (3, 3, 2)] + ORDERED, ids=str)
def test_packed_columns_sum_the_cells(d, t, seeds):
    """A cell's unit packs its lift, and each packed column holds the ball's
    lifted multiplicity per field (block, J) from its run's first block, in
    fields of the fewest bytes that hold the largest field total; a class
    whose full column would pass the byte bound has none.  The runs are the
    balls of each root byte; at alphabet:q a ball's blocks (A', B') have A'
    rooted at its root byte, so its column spans 1/q of the blocks."""
    form = entropy._cell_form(d, t, _model(seeds))
    n = len(form.partner) * form.width
    mask = 256**form.size - 1
    expected = [{} for _ in range(form.balls)]
    for block, unit, balls, mults in form.stream():
        assert unit < 256 ** (form.size * form.width)
        for ball, m in zip(balls, mults):
            for j in range(form.width):
                if c := unit >> 8 * form.size * j & mask:
                    field = block * form.width + j
                    expected[ball][field] = expected[ball].get(field, 0) + m * c
    totals = {}
    for column in expected:
        for field, x in column.items():
            totals[field] = totals.get(field, 0) + x
    assert form.size == next(w for w in (1, 2, 4, 8) if max(totals.values()) < 256**w)
    if n * form.size > entropy._PACKED_MAX_BYTES:
        assert form.columns is None
        return
    runs, total, read, _ = form.columns
    codes = rules.enumerate_canonical_balls(d, t, _model(seeds))
    assert [stop for _, stop, _, _ in runs] == [
        i + 1 for i in range(form.balls) if i + 1 == form.balls or codes[i][0] != codes[i + 1][0]
    ]
    block_bits = 8 * form.size * form.width
    columns = []
    for start, stop, shift, cols in runs:
        assert len(cols) == stop - start and shift % block_bits == 0
        if isinstance(seeds, int) and t > 0:
            assert max(cols) < 1 << block_bits * len(form.partner) // seeds
        columns += [column << shift for column in cols]
    fields = [[column >> 8 * form.size * f & mask for f in range(n)] for column in columns]
    assert [{f: x for f, x in enumerate(column) if x} for column in fields] == expected
    assert [list(read(column)) for column in columns] == fields
    assert total == sum(columns)


@pytest.mark.parametrize(
    "d,t,seeds,k,by_class",
    [
        (3, 2, 3, 16, True),  # 28.5 half-tree types per cell, 324-byte columns
        (3, 2, 3, 17, False),  # past _PACKED_MAX_LABELS
        (3, 2, 2, 7, True),  # 7 types per cell
        (3, 2, 2, 8, False),
        (2, 4, 2, 2, True),  # at d=2 a cell holds q types
        (2, 4, 2, 3, False),
        (3, 3, 2, 2, False),  # 1,764 two-byte cells pass _PACKED_MAX_BYTES
        (3, 1, rules.hybrid(2), 4, True),  # 4 balls per cell, 80 one-byte fields
        (3, 1, rules.hybrid(2), 5, False),
        (3, 1, rules.rank(), 2, False),  # 1 ball per cell
    ],
    ids=str,
)
def test_alphabet_pair_law_selection(monkeypatch, d, t, seeds, k, by_class):
    """One selection rule for every seed model: `seeds` is an alphabet size
    or a seed model."""
    calls = []
    for name in ("_pair_law_by_label_class", "_pair_law_per_cell"):
        real = getattr(entropy, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(entropy, name, spy)
    entropy.exact_marginals(rules.random_rule(d, t, _model(seeds), tuple(range(k)), 0))
    assert calls == ["_pair_law_by_label_class" if by_class else "_pair_law_per_cell"]


@pytest.mark.parametrize(
    "d,t,seeds,k",
    [(3, 2, 3, 16), (3, 2, 2, 7), (2, 4, 2, 2), (3, 1, rules.hybrid(2), 4)],
    ids=str,
)
def test_label_class_kernel_equals_the_per_cell_kernel(d, t, seeds, k):
    """The label-class kernel picks each label's balls by a translate mask of
    the outputs' bytes and gives the last label what the others leave: it
    must agree with the per-cell kernel when labels go unused, when every
    ball takes the last label, and when no ball does."""
    model = _model(seeds)
    form = entropy._cell_form(d, t, model)
    assert form.columns is not None
    n = form.balls
    drawn = rules.random_rule(d, t, model, tuple(range(k)), 5).outputs
    vectors = [
        drawn,
        bytes(n),  # every ball takes the first label
        bytes([k - 1]) * n,  # every ball takes the last label
        bytes(0 if x < k // 2 else k - 1 for x in drawn),  # only the first and last
        bytes(min(x, k - 2) for x in drawn),  # all but the last
        bytes(x // 2 * 2 for x in drawn),  # every other label
    ]
    for outputs in vectors:
        rule = rules.LocalRule(d, t, model, tuple(range(k)), outputs)
        by_class = entropy._pair_law_by_label_class(rule, form)
        per_cell = entropy._pair_law_per_cell(rule, form)
        assert by_class == per_cell
        assert list(by_class.counts.items()) == list(per_cell.counts.items())


def reference_pair_law_ordered(rule):
    """Pair-law masses of a rank or hybrid rule from `rules.edge_pair_table`."""
    pt = rules.edge_pair_table(rule.d, rule.t, rule.model)
    acc = {}
    for (cu, cv), c in pt.counts.items():
        key = (rule.table[cu], rule.table[cv])
        acc[key] = acc.get(key, 0) + c
    return {k: Fraction(v, pt.total) for k, v in acc.items()}


@pytest.mark.parametrize("d,t,model", ORDERED, ids=str)
def test_ordered_pair_law_equals_edge_enumeration(d, t, model):
    for rule in _oracle_rules(d, t, model):
        pair = entropy.exact_marginals(rule)[1]
        assert pair.probs == reference_pair_law_ordered(rule)
        _assert_alphabet_order(pair, rule)


def reference_vertex_law(rule):
    """Vertex-law masses, in label order, from the canonical balls' orbit sizes."""
    codes, counts, total = rules.enumerate_canonical_balls_weighted(rule.d, rule.t, rule.model)
    sums = {a: 0 for a in rule.output_alphabet}
    for code, count in zip(codes, counts):
        sums[rule.table[code]] += count
    return tuple(Fraction(sums[a], total) for a in rule.output_alphabet)


def reference_entropy(masses):
    return -sum(float(x) * math.log(float(x)) for x in masses if x > 0)


def reference_conditional_entropy(probs):
    my = {}
    for (_, b), x in probs.items():
        my[b] = my.get(b, 0) + x
    h = 0.0
    for (_, b), x in probs.items():
        if x > 0:
            h -= float(x) * math.log(float(x) / float(my[b]))
    return h


def _class_denominator(d, t, model):
    """q^(2|A|) for alphabet seeds, S! q^S for rank and hybrid ones."""
    if model.kind == "alphabet":
        return model.q ** (2 * rules.subtree_size(d, t))
    size = rules.edge_ball_layout(d, t).size
    return math.factorial(size) * (model.q if model.kind == "hybrid" else 1) ** size


@pytest.mark.parametrize(
    "d,t,model", [(d, t, rules.alphabet(q)) for d, t, q in ENUMERABLE] + ORDERED, ids=str
)
def test_exact_laws_are_counts_matching_references(d, t, model):
    denominator = _class_denominator(d, t, model)
    for rule in _oracle_rules(d, t, model):
        vertex, pair = entropy.exact_marginals(rule)
        reference_p = reference_vertex_law(rule)
        assert vertex.p == reference_p
        assert entropy.entropy(vertex) == reference_entropy(reference_p)
        assert entropy.joint_entropy(pair) == reference_entropy(pair.probs.values())
        assert entropy.conditional_entropy(pair) == reference_conditional_entropy(pair.probs)
        assert vertex.denominator == pair.denominator == denominator
        assert all(type(c) is int for c in vertex.counts)
        assert all(type(c) is int for c in pair.counts.values())


@pytest.mark.parametrize(
    "d,t,model,k,digest",
    [
        # either side of the label-class bound
        (3, 2, rules.alphabet(3), 16, "f69ea39d372afd37c6a5c00dda7e4e7a116e7dd43a5c91c4ab81caff71b56db1"),
        (3, 2, rules.alphabet(3), 17, "5df59d67155f9e1d55254b521ae75698907c81e99163500f4cbd0eaedc671083"),
        (3, 3, rules.alphabet(2), 2, "a2a291e3193ba1f08014b72eada0d58fece0d93b7c1672cff793b174222b5c62"),
        (3, 3, rules.alphabet(2), 50, "375ed7629a00f238f10047ab660b8deae0f4a8adbbeaabac3353b87a2c9b9fbf"),
        (3, 1, rules.hybrid(2), 3, "cfcef2171735160464e9540dfac4f5d74342abf669939750c524104f9964d20c"),
        (3, 2, rules.rank(), 3, "17c483a680a20975402667fe965ee89f8b549a7232ffe5bec02c0eee860f80be"),
        (2, 3, rules.rank(), 3, "50ad1a564e8c446652647302eb3affd8c4101180b0ecd50474facab214772632"),
    ],
    ids=str,
)
def test_exact_laws_are_pinned(d, t, model, k, digest):
    """sha256 of the counts, in key order, and the denominator of rules the
    edge enumeration cannot reach: a kernel change must leave them
    byte-identical."""
    pair = entropy.exact_marginals(rules.random_rule(d, t, model, tuple(range(k)), k))[1]
    text = repr((list(pair.counts.items()), pair.denominator))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _cut(node, depth):
    label, children = node
    return (label, () if depth == 0 else tuple(_cut(c, depth - 1) for c in children))


def _assert_lift_keeps_laws(d, t, model, cut):
    """`cut` maps a radius-t code to the code of its radius-(t-1) part."""
    inner = rules.enumerate_canonical_balls(d, t - 1, model)
    bases = [
        rules.random_rule(d, t - 1, model, (0, 1, 2), 11),
        rules.make_rule(
            d, t - 1, model, tuple(range(len(inner))), {code: i for i, code in enumerate(inner)}
        ),
    ]
    outer = {code: cut(code) for code in rules.enumerate_canonical_balls(d, t, model)}
    for base in bases:
        table = {code: base.table[inner_code] for code, inner_code in outer.items()}
        lifted = rules.make_rule(d, t, model, base.output_alphabet, table)
        vertex, pair = entropy.exact_marginals(lifted)
        base_vertex, base_pair = entropy.exact_marginals(base)
        assert vertex.p == base_vertex.p
        assert pair.probs == base_pair.probs


@pytest.mark.parametrize("d,t,q", [(3, 3, 2), (4, 2, 2), (2, 3, 3)])
def test_lifted_rule_keeps_its_laws(d, t, q):
    """A radius-t rule that reads only the radius-(t-1) part of its ball has
    the laws of the radius-(t-1) rule it lifts, Fraction for Fraction.  This
    reaches classes the edge enumeration cannot afford (3, 3, 2 and 4, 2, 2)."""

    def cut(code):
        return reference_code(_cut(rules._decode(code, d, t, "alphabet"), t - 1), "alphabet")

    _assert_lift_keeps_laws(d, t, rules.alphabet(q), cut)


def test_lifted_rank_rule_keeps_its_laws():
    """The same at rank d=3, t=2, whose 14-vertex edge ball the enumeration
    cannot afford.  A rank code is the preorder of its ranks, siblings in
    rank order; the radius-1 part keeps the bytes above the leaves, re-ranked,
    and re-ranking keeps the siblings in order."""
    depths = []

    def visit(depth, branching):
        depths.append(depth)
        if depth < 2:
            for _ in range(branching):
                visit(depth + 1, 2)

    visit(0, 3)
    keep = [p for p, depth in enumerate(depths) if depth < 2]

    def cut(code):
        kept = [code[p] for p in keep]
        rank = {r: i for i, r in enumerate(sorted(kept), 1)}
        return bytes(rank[r] for r in kept)

    for code in random.Random(2).sample(rules.enumerate_canonical_balls(3, 2, rules.rank()), 300):
        assert cut(code) == reference_code(_cut(rules._decode(code, 3, 2, "rank"), 1), "rank")
    _assert_lift_keeps_laws(3, 2, rules.rank(), cut)


def test_alphabet3_t3_over_budget():
    with pytest.raises(rules.BudgetExceeded):
        entropy._cell_form(3, 3, rules.alphabet(3))
    with pytest.raises(rules.BudgetExceeded):
        rules.random_rule(3, 3, rules.alphabet(3), (0, 1), 0)


def test_hot_builds_skip_public_canonicalize(monkeypatch):
    """The edge-ball builds go through the kernel, never the validated
    public entry points."""
    calls = []
    for name in ("canonicalize", "endpoint_codes", "evaluate"):
        real = getattr(rules, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(rules, name, counted)
    for cached in (
        rules.edge_pair_table,
        rules.enumerate_canonical_balls_weighted,
        entropy._cell_form,
    ):
        cached.cache_clear()
    table = rules.edge_pair_table(3, 1, rules.hybrid(2))
    form = entropy._cell_form(3, 2, rules.alphabet(2))
    assert form.cells and form.columns
    for d, t, model in ((3, 1, rules.hybrid(2)), (2, 3, rules.rank())):
        assert entropy._cell_form(d, t, model).cells
    assert table.total == 46080
    assert calls == []


def test_enumerations_skip_coder_and_decode(monkeypatch):
    """Cold enumerations build codes directly: no ball is coded by the
    kernel or decoded to nested labels."""
    calls = []
    real_coder, real_decode = rules.ball_coder, rules._decode

    def counted_coder(*args):
        code = real_coder(*args)

        def counted(seeds):
            calls.append("coder")
            return code(seeds)

        return counted

    def counted_decode(*args):
        calls.append("_decode")
        return real_decode(*args)

    monkeypatch.setattr(rules, "ball_coder", counted_coder)
    monkeypatch.setattr(rules, "_decode", counted_decode)
    rules.enumerate_canonical_balls_weighted.cache_clear()
    rules._alphabet_subtree_types.cache_clear()
    classes = [
        (3, 2, rules.alphabet(2)),
        (2, 3, rules.alphabet(3)),
        (3, 1, rules.rank()),
        (2, 3, rules.rank()),
        (3, 1, rules.hybrid(2)),
        (2, 2, rules.hybrid(3)),
    ]
    for d, t, model in classes:
        assert rules.enumerate_canonical_balls_weighted(d, t, model)
    assert calls == []
