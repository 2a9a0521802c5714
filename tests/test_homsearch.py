import random
from collections import defaultdict
from itertools import product

import pytest

from fiidlab import cli, graphs, homsearch, jsonable, rules
from fiidlab.rules import BudgetExceeded


C5 = graphs.named_graph("C5")
K2 = graphs.named_graph("K2")
PETERSEN = graphs.named_graph("Petersen")


class TestChecker:
    def test_constant_rule_monochromatic(self):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(5)))
        res = homsearch.is_homomorphism_rule(rule, C5)
        assert not res.passed
        assert res.witness.outputs == (0, 0)

    def test_alphabet_rule_fails_at_all_zeros(self):
        rule = rules.random_rule(3, 1, rules.alphabet(2), tuple(range(5)), 7)
        res = homsearch.is_homomorphism_rule(rule, C5)
        assert not res.passed
        assert res.witness.config == (0,) * 6
        assert res.witness.outputs[0] == res.witness.outputs[1]

    def test_rank_rules_always_refuted_on_loopless(self):
        # some ordering gives both endpoints the same root rank, hence equal
        # outputs; for a loopless target that is always a violation
        pt = rules.edge_pair_table(3, 1, rules.rank())
        equal_rank_pairs = [
            (cu, cv) for (cu, cv) in pt.counts if cu == cv
        ]
        assert equal_rank_pairs  # the collision configurations exist
        # in particular both endpoints can sit at rank 2 of their closed balls
        rank2 = bytes((2, 1, 3, 4))
        assert pt.counts[(rank2, rank2)] > 0
        for seed in range(10):
            rule = rules.random_rule(3, 1, rules.rank(), tuple(range(5)), seed)
            res = homsearch.is_homomorphism_rule(rule, C5)
            assert not res.passed
            assert homsearch.replay_witness(rule, C5, res.witness)

    def test_witness_is_lex_first(self):
        rule = rules.random_rule(3, 1, rules.rank(), tuple(range(5)), 3)
        res = homsearch.is_homomorphism_rule(rule, C5)
        lay = rules.edge_ball_layout(3, 1)
        for config in rules.edge_configs(lay, rules.rank()):
            cu, cv = rules.endpoint_codes(lay, rules.rank(), config)
            pair = (rule.table[cu], rule.table[cv])
            if not C5.has_edge(*pair):
                assert config == res.witness.config
                break
            assert config != res.witness.config

    def test_alphabet_mismatch_rejected(self):
        rule = rules.builtin_rule("max_seed_independent", d=3)
        with pytest.raises(ValueError):
            homsearch.is_homomorphism_rule(rule, C5)

    @pytest.mark.parametrize(
        "d,t,model",
        [(3, 3, rules.alphabet(2)), (2, 3, rules.hybrid(2)), (3, 1, rules.hybrid(5))],
        ids=str,
    )
    def test_over_edge_budget_answers_with_certificate(self, d, t, model):
        with pytest.raises(BudgetExceeded):
            rules.check_edge_budget(d, t, model)
        rule = rules.random_rule(d, t, model, tuple(range(5)), 4)
        res = homsearch.is_homomorphism_rule(rule, C5)
        cert = homsearch.impossibility_certificate(C5, d, t, model)
        assert not res.passed and res.witness.config == cert.config
        assert res.witness.outputs[0] == res.witness.outputs[1]
        assert homsearch.replay_witness(rule, C5, res.witness)

    def test_over_edge_budget_into_looped_target_is_refused(self):
        rule = rules.random_rule(3, 1, rules.hybrid(5), (0, 1), 4)
        with pytest.raises(BudgetExceeded):
            homsearch.is_homomorphism_rule(rule, LoopedTarget(2, [(0, 1), (1, 1)]))


class TestSearch:
    def test_c5_rank_t1(self):
        out = homsearch.search(C5, 3, 1, rules.rank())
        assert out.kind == "ExhaustedNone"
        assert out.rules_examined == 5**4 == 625
        assert len(out.witnesses) == 625  # below the default cap, all stored
        assert out.caveat and "t=1" in out.caveat

    def test_k2_rank_t1(self):
        out = homsearch.search(K2, 3, 1, rules.rank())
        assert out.kind == "ExhaustedNone" and out.rules_examined == 2**4 == 16

    def test_stored_witnesses_replay(self):
        out = homsearch.search(C5, 3, 1, rules.rank())
        sample = out.witnesses[: min(100, len(out.witnesses))]
        for index, witness in sample:
            rule = homsearch.rule_at_cursor(3, 1, rules.rank(), tuple(range(5)), index)
            assert homsearch.replay_witness(rule, C5, witness)

    @pytest.mark.parametrize(
        "d,t,model,labels",
        [(3, 0, rules.alphabet(2), 3), (3, 1, rules.rank(), 3), (2, 0, rules.hybrid(3), 4)],
        ids=str,
    )
    def test_rule_at_cursor_equals_table_reference(self, d, t, model, labels):
        codes = rules.enumerate_canonical_balls(d, t, model)
        alpha = tuple(range(labels))

        def reference_table_at(index):
            # rule `index` in mixed-radix order, codes[0] the most significant digit
            table = {}
            for code in reversed(codes):
                index, digit = divmod(index, labels)
                table[code] = alpha[digit]
            return table

        for index in range(labels ** len(codes)):
            rule = homsearch.rule_at_cursor(d, t, model, alpha, index)
            assert rule == rules.make_rule(d, t, model, alpha, reference_table_at(index))
        with pytest.raises(ValueError, match="out of range"):
            homsearch.rule_at_cursor(d, t, model, alpha, labels ** len(codes))

    def test_alphabet_shortcut(self):
        # 2^112 rules, past max_rules: the certificate answers
        out = homsearch.search(K2, 3, 2, rules.alphabet(2))
        assert out.kind == "Impossible"
        assert out.rules_examined == 0
        assert out.certificate == homsearch.impossibility_certificate(K2, 3, 2, rules.alphabet(2))

    def test_shortcut_agrees_with_enumeration(self):
        # a class within both budgets is scanned, with or without
        # force_enumeration: t=0, q=2 over K2
        for force in (False, True):
            out = homsearch.search(K2, 3, 0, rules.alphabet(2), force_enumeration=force)
            assert out.kind == "ExhaustedNone" and out.rules_examined == 4
            assert out.certificate is None

    def test_witness_cap_reservoir(self, monkeypatch):
        monkeypatch.setattr(homsearch, "WITNESS_CAP", 50)
        budget = homsearch.SearchBudget(rng_seed=1)
        out = homsearch.search(C5, 3, 1, rules.rank(), budget=budget)
        assert len(out.witnesses) == 50
        for index, witness in out.witnesses:
            rule = homsearch.rule_at_cursor(3, 1, rules.rank(), tuple(range(5)), index)
            assert homsearch.replay_witness(rule, C5, witness)

    def test_budget_exceeded(self):
        # BudgetExceeded remains only where no certificate exists: d = 1 at
        # t >= 1, a looped target, a ball past a code byte, force_enumeration
        small = homsearch.SearchBudget(max_rules=1)
        out = homsearch.search(C5, 1, 1, rules.rank(), budget=small)
        assert out.kind == "BudgetExceeded" and out.rules_examined == 0
        assert out.certificate is None
        looped = LoopedTarget(2, [(0, 1), (1, 1)])
        assert homsearch.search(looped, 3, 1, rules.rank(), budget=small).kind == "BudgetExceeded"
        assert homsearch.search(C5, 5, 4, rules.rank()).kind == "BudgetExceeded"

    @pytest.mark.parametrize(
        "d,t,model,target",
        [(3, 2, rules.rank(), "C5"), (3, 2, rules.hybrid(2), "K3"),
         (3, 1, rules.hybrid(2), "C5")],
        ids=str,
    )
    def test_past_a_budget_is_impossible(self, d, t, model, target):
        # the first two are past the edge budget, the third past max_rules
        # (5^64 rules)
        H = graphs.named_graph(target)
        out = homsearch.search(H, d, t, model)
        cert = homsearch.impossibility_certificate(H, d, t, model)
        assert out.kind == "Impossible" and out.rules_examined == 0
        assert out.certificate == cert and out.witnesses == []
        assert cli._search_payload(out)["certificate"] == cli._certificate_payload(cert)
        witness = homsearch.replay_certificate(cert, LazyRandomRule(d, t, model, H.n, 5), H)
        assert witness.outputs[0] == witness.outputs[1]
        forced = homsearch.search(H, d, t, model, force_enumeration=True)
        assert forced.kind == "BudgetExceeded" and forced.certificate is None

    def test_past_max_rules_builds_no_pair_table(self):
        # rank d=4 t=1 into McGee has 24^5 rules
        McGee = graphs.named_graph("McGee")
        before = rules.edge_pair_table.cache_info()
        out = homsearch.search(McGee, 4, 1, rules.rank())
        after = rules.edge_pair_table.cache_info()
        assert out.kind == "Impossible"
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_petersen_rank_t1(self):
        out = homsearch.search(PETERSEN, 3, 1, rules.rank())
        assert out.kind == "ExhaustedNone" and out.rules_examined == 10**4

    def test_json_shape(self):
        out = homsearch.search(C5, 3, 1, rules.rank())
        payload = jsonable(cli._search_payload(out))
        assert payload["kind"] == "ExhaustedNone"
        assert payload["rules_examined"] == 625
        assert payload["class_caveat"]
        assert len(payload["witness_sample"]) == 10


def reference_search(H, d, t, model, budget=None, force_enumeration=False):
    """The per-rule scan that prefix pruning replaced: every rule table in
    turn, each scanned over the pair entries and given its witness before
    the reservoir draw."""
    budget = budget or homsearch.SearchBudget()
    caveat = homsearch.class_caveat(d, t, model)

    def past_budget():
        cert = None
        if not force_enumeration:
            try:
                cert = homsearch.impossibility_certificate(H, d, t, model)
            except homsearch.NoCertificate:
                pass
        return homsearch.SearchOutcome(
            kind="BudgetExceeded" if cert is None else "Impossible",
            rules_examined=0, caveat=caveat, certificate=cert,
        )

    try:
        balls = rules.enumerate_canonical_balls(d, t, model)
        pair_table = rules.edge_pair_table(d, t, model)
    except BudgetExceeded:
        return past_budget()
    labels = tuple(range(H.n))
    total = len(labels) ** len(balls)
    if total > budget.max_rules:
        return past_budget()
    ball_index = {code: i for i, code in enumerate(balls)}
    entries = [(ball_index[cu], ball_index[cv], cfg) for cu, cv, cfg in pair_table.order]
    rng = random.Random(budget.rng_seed)
    witnesses = []
    refuted = 0
    for index, outputs in enumerate(product(labels, repeat=len(balls))):
        witness = None
        for iu, iv, cfg in entries:
            a, b = outputs[iu], outputs[iv]
            if not H.has_edge(a, b):
                witness = homsearch.ViolationWitness(config=cfg, outputs=(a, b))
                break
        if witness is None:
            rule = homsearch.rule_at_cursor(d, t, model, labels, index)
            check = homsearch.is_homomorphism_rule(rule, H)
            if check.passed:
                return homsearch.SearchOutcome(
                    kind="Found", rules_examined=index + 1, rule=rule,
                    witnesses=witnesses, caveat=caveat,
                )
            witness = check.witness
        refuted += 1
        if len(witnesses) < homsearch.WITNESS_CAP:
            witnesses.append((index, witness))
        else:
            j = rng.randrange(refuted)
            if j < homsearch.WITNESS_CAP:
                witnesses[j] = (index, witness)
    return homsearch.SearchOutcome(
        kind="ExhaustedNone", rules_examined=total, witnesses=witnesses, caveat=caveat
    )


def _summary(out):
    return (
        out.kind,
        out.rules_examined,
        [(index, w.config, w.outputs) for index, w in out.witnesses],
        None if out.rule is None else out.rule.table,
        out.certificate,
    )


class LoopedTarget:
    """A target with loops, which no named graph has: pair entries then
    pass often, so the walk reaches deep prefixes, leaves and Found."""

    def __init__(self, n, edges):
        self.n = n
        self.edge_set = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}

    def has_edge(self, a, b):
        return (a, b) in self.edge_set


class LazyRandomRule:
    """A uniform random rule of a class too large to enumerate: each
    canonical code draws its output on first use."""

    def __init__(self, d, t, model, n, seed):
        self.d, self.t, self.model = d, t, model
        rng = random.Random(seed)
        self.table = defaultdict(lambda: rng.randrange(n))


CLASSES = [
    (rules.rank(), 0),
    (rules.rank(), 1),
    (rules.alphabet(2), 0),
    (rules.alphabet(2), 1),
    (rules.hybrid(2), 0),
]
CAPS_SEEDS = list(product((1, 3, 50, 1000), (0, 5)))


class TestSearchEqualsReference:
    @pytest.mark.parametrize("target", ["K2", "K3", "K4", "C5", "Petersen"])
    @pytest.mark.parametrize("model,t", CLASSES, ids=lambda x: str(x))
    def test_named_targets(self, model, t, target, monkeypatch):
        H = graphs.named_graph(target)
        runs = CAPS_SEEDS
        if H.n ** len(rules.enumerate_canonical_balls(3, t, model)) > 100_000:
            # alphabet:2 t=1 into C5, 390,625 rules: one run keeps the suite fast
            runs = [(1000, 5)]
        for cap, seed in runs:
            monkeypatch.setattr(homsearch, "WITNESS_CAP", cap)
            budget = homsearch.SearchBudget(rng_seed=seed)
            want = reference_search(H, 3, t, model, budget, force_enumeration=True)
            got = homsearch.search(H, 3, t, model, budget, force_enumeration=True)
            assert _summary(got) == _summary(want), (cap, seed)

    @pytest.mark.parametrize(
        "H",
        [
            LoopedTarget(2, [(0, 1), (1, 1)]),
            LoopedTarget(3, [(0, 1), (1, 2), (2, 2)]),
            LoopedTarget(4, [(0, 1), (1, 2), (2, 3), (3, 3)]),
            LoopedTarget(3, [(0, 1), (1, 2), (0, 2), (1, 1)]),
        ],
        ids=["K2+loop", "P3+loop", "P4+loop", "K3+loop"],
    )
    @pytest.mark.parametrize("model,t", CLASSES, ids=lambda x: str(x))
    def test_looped_targets(self, model, t, H, monkeypatch):
        # a constant rule onto a loop is a homomorphism, so each search ends
        # Found, most of them after more refuted rules than the smaller caps
        for cap, seed in CAPS_SEEDS:
            monkeypatch.setattr(homsearch, "WITNESS_CAP", cap)
            budget = homsearch.SearchBudget(rng_seed=seed)
            want = reference_search(H, 3, t, model, budget, force_enumeration=True)
            got = homsearch.search(H, 3, t, model, budget, force_enumeration=True)
            assert got.kind == "Found"
            assert _summary(got) == _summary(want), (cap, seed)

    def test_found(self):
        # on T_1 the two endpoints always hold opposite ranks, so rule 1
        # (rank 1 -> 0, rank 2 -> 1) maps every edge onto the edge 0-1
        out = homsearch.search(C5, 1, 1, rules.rank())
        assert out.kind == "Found" and out.rules_examined == 2
        # the rule is its output vector; no {code: label} dict was built
        assert "table" not in out.rule.__dict__
        assert out.rule == homsearch.rule_at_cursor(1, 1, rules.rank(), range(5), 1)
        assert _summary(out) == _summary(reference_search(C5, 1, 1, rules.rank()))
        assert homsearch.is_homomorphism_rule(out.rule, C5).passed

    def test_max_rules_cut(self, monkeypatch):
        # rank t=1 into Petersen has 10,000 rules
        monkeypatch.setattr(homsearch, "WITNESS_CAP", 3)
        for max_rules, kind in ((9_999, "Impossible"), (10_000, "ExhaustedNone")):
            budget = homsearch.SearchBudget(max_rules=max_rules)
            got = homsearch.search(PETERSEN, 3, 1, rules.rank(), budget)
            want = reference_search(PETERSEN, 3, 1, rules.rank(), budget)
            assert got.kind == kind and _summary(got) == _summary(want)

    def test_witnesses_built_only_for_stored_rules(self, monkeypatch):
        # 390,625 refuted rules, of which the reservoir keeps 1,000; a
        # witness per refuted rule would be 390,625 of them
        built = []
        real = homsearch.ViolationWitness

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(homsearch, "ViolationWitness", counting)
        out = homsearch.search(C5, 3, 1, rules.alphabet(2), force_enumeration=True)
        assert out.kind == "ExhaustedNone" and out.rules_examined == 390_625
        assert len(out.witnesses) == 1000
        assert len(built) < 20_000


class TestCertificate:
    def test_replayable_on_random_rules(self):
        cert = homsearch.impossibility_certificate(PETERSEN, 3, 1, rules.alphabet(2))
        assert cert.config == (0,) * 6
        for seed in range(50):
            rule = rules.random_rule(3, 1, rules.alphabet(2), tuple(range(10)), seed)
            witness = homsearch.replay_certificate(cert, rule, PETERSEN)
            assert witness.outputs[0] == witness.outputs[1]
            assert not PETERSEN.has_edge(*witness.outputs)

    def test_t2_shape(self):
        cert = homsearch.impossibility_certificate(C5, 3, 2, rules.alphabet(3))
        assert cert.config == (0,) * 14
        assert len(cert.reasoning) == 3

    def test_wrong_class_rejected(self):
        cert = homsearch.impossibility_certificate(C5, 3, 1, rules.alphabet(2))
        for model in (rules.alphabet(3), rules.hybrid(2)):
            rule = rules.random_rule(3, 1, model, tuple(range(5)), 1)
            with pytest.raises(ValueError):
                homsearch.replay_certificate(cert, rule, C5)

    @pytest.mark.parametrize("model", [rules.alphabet(2), rules.rank(), rules.hybrid(2)], ids=str)
    def test_endpoint_codes_equal(self, model):
        for d, t in product(range(2, 6), range(4)):
            cert = homsearch.impossibility_certificate(C5, d, t, model)
            layout = rules.edge_ball_layout(d, t)
            code_u, code_v = rules.endpoint_codes(layout, model, cert.config)
            assert code_u == code_v, (d, t)

    @pytest.mark.parametrize(
        "d,t,model",
        [(3, 1, rules.rank()), (2, 3, rules.rank()), (3, 1, rules.hybrid(2)),
         (2, 2, rules.hybrid(2))],
        ids=str,
    )
    def test_replay_on_random_ordered_rules(self, d, t, model):
        for H in (C5, PETERSEN):
            cert = homsearch.impossibility_certificate(H, d, t, model)
            for seed in range(10):
                rule = rules.random_rule(d, t, model, tuple(range(H.n)), seed)
                witness = homsearch.replay_certificate(cert, rule, H)
                assert witness.outputs[0] == witness.outputs[1]
                assert not H.has_edge(*witness.outputs)
                assert homsearch.replay_witness(rule, H, witness)

    def test_refused_where_the_endpoint_codes_differ(self):
        # T_1 is one edge: at t >= 1 the endpoints hold opposite ranks (see
        # test_found), at t = 0 each sees its own seed alone
        assert homsearch.impossibility_certificate(C5, 1, 0, rules.rank()).config == (2, 1)
        for model in (rules.rank(), rules.hybrid(2)):
            with pytest.raises(ValueError, match="no impossibility certificate"):
                homsearch.impossibility_certificate(C5, 1, 1, model)

    def test_looped_target_refused(self):
        with pytest.raises(ValueError, match="loopless"):
            homsearch.impossibility_certificate(LoopedTarget(2, [(1, 1)]), 3, 1, rules.rank())
