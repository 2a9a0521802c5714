"""The ball kernel against the recursive sibling sort it replaced.

`reference_code` is the canonicalization `rules.canonicalize` used before the
kernel: replace rank seeds by their ranks in the ball, then sort sibling
subtrees recursively by their codes.  Kernel codes, edge pair tables and the
alphabet edge structure must all equal what this slow route gives.
"""

import random
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
    ball = rules.canonicalize(raw, d, t, model)
    assert (ball.code, ball.labels) == reference(raw, model.kind)


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
        ball = random.Random(seed).choice(balls)
        assert rules.canonicalize(ball.labels, d, t, model).code == ball.code
        assert reference_code(ball.labels, model.kind) == ball.code


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


def _reference_rows(d, t, q, shared_cfgs):
    layout = rules.edge_ball_layout(d, t)
    rows = []
    for shared_cfg in shared_cfgs:
        config = [0] * layout.size
        for idx, tag in zip(layout.shared_ids, shared_cfg):
            config[idx] = tag
        row = []
        for template, side in (
            (layout.u_template, layout.u_only_ids),
            (layout.v_template, layout.v_only_ids),
        ):
            counts = {}
            for side_cfg in product(range(q), repeat=len(side)):
                for idx, tag in zip(side, side_cfg):
                    config[idx] = tag
                code = reference_code(rules.fill_ball(template, config), "alphabet")
                counts[code] = counts.get(code, 0) + 1
            row.append(counts)
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("q", (2, 3))
def test_alphabet_edge_structure_t1_equals_reference(q):
    layout, rows, _, _ = entropy._alphabet_edge_structure(3, 1, q)
    shared = list(product(range(q), repeat=len(layout.shared_ids)))
    assert rows == _reference_rows(3, 1, q, shared)


def test_alphabet_edge_structure_t2_equals_reference():
    # every row is rebuilt at q=2; a seeded sample of the 729 rows at q=3
    for q, sample in ((2, None), (3, 24)):
        layout, rows, _, _ = entropy._alphabet_edge_structure(3, 2, q)
        shared = list(product(range(q), repeat=len(layout.shared_ids)))
        picks = range(len(shared)) if sample is None else random.Random(q).sample(
            range(len(shared)), sample
        )
        assert [rows[i] for i in picks] == _reference_rows(3, 2, q, [shared[i] for i in picks])


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
    monkeypatch.setattr(rules, "_PAIR_CACHE", {})
    monkeypatch.setattr(entropy, "_ALPHA_EDGE_CACHE", {})
    table = rules.edge_pair_table(3, 1, rules.hybrid(2))
    entropy._alphabet_edge_structure(2, 1, 2)
    assert table.total == 46080
    assert calls == []
