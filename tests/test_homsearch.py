import pytest

from fiidlab import graphs, homsearch, rules


C5 = graphs.named_graph("C5")
K2 = graphs.named_graph("K2")
PETERSEN = graphs.named_graph("Petersen")


class TestChecker:
    def test_constant_rule_monochromatic(self):
        rule = rules.builtin_rule("constant", label=0, output_alphabet=tuple(range(5)))
        res = homsearch.is_homomorphism_rule(rule, C5)
        assert not res.passed and res.exact
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

    def test_sampled_fallback_for_rank_t2(self):
        rule = rules.random_rule(3, 2, rules.rank(), tuple(range(5)), 1)
        res = homsearch.is_homomorphism_rule(rule, C5, samples=500, rng_seed=2)
        assert not res.exact
        if res.passed:
            assert "samples" in res.verdict
        else:
            assert homsearch.replay_witness(rule, C5, res.witness)


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

    def test_alphabet_shortcut(self):
        out = homsearch.search(K2, 3, 2, rules.alphabet(2))
        assert out.kind == "ImpossibleByConstantSeeds"
        assert out.rules_examined == 0
        assert out.certificate is not None

    def test_shortcut_agrees_with_enumeration(self):
        # tiny class where the generic scan is exhaustive: t=0, q=2 over K2
        shortcut = homsearch.search(K2, 3, 0, rules.alphabet(2))
        forced = homsearch.search(K2, 3, 0, rules.alphabet(2), force_enumeration=True)
        assert shortcut.kind == "ImpossibleByConstantSeeds"
        assert forced.kind == "ExhaustedNone" and forced.rules_examined == 4

    def test_witness_cap_reservoir(self):
        budget = homsearch.SearchBudget(witness_cap=50, rng_seed=1)
        out = homsearch.search(C5, 3, 1, rules.rank(), budget=budget)
        assert len(out.witnesses) == 50
        for index, witness in out.witnesses:
            rule = homsearch.rule_at_cursor(3, 1, rules.rank(), tuple(range(5)), index)
            assert homsearch.replay_witness(rule, C5, witness)

    def test_budget_exceeded(self):
        out = homsearch.search(C5, 3, 2, rules.rank())
        assert out.kind == "BudgetExceeded" and out.rules_examined == 0
        small = homsearch.SearchBudget(max_rules=100)
        out2 = homsearch.search(C5, 3, 1, rules.rank(), budget=small)
        assert out2.kind == "BudgetExceeded"

    def test_petersen_rank_t1(self):
        out = homsearch.search(PETERSEN, 3, 1, rules.rank())
        assert out.kind == "ExhaustedNone" and out.rules_examined == 10**4

    def test_json_shape(self):
        out = homsearch.search(C5, 3, 1, rules.rank())
        payload = out.to_json_dict()
        assert payload["kind"] == "ExhaustedNone"
        assert payload["rules_examined"] == 625
        assert payload["class_caveat"]
        assert len(payload["witness_sample"]) == 10


class TestCertificate:
    def test_replayable_on_random_rules(self):
        cert = homsearch.alphabet_impossibility_certificate(PETERSEN, 3, 1, 2)
        assert cert.config == (0,) * 6
        for seed in range(50):
            rule = rules.random_rule(3, 1, rules.alphabet(2), tuple(range(10)), seed)
            witness = homsearch.replay_certificate(cert, rule, PETERSEN)
            assert witness.outputs[0] == witness.outputs[1]
            assert not PETERSEN.has_edge(*witness.outputs)

    def test_t2_shape(self):
        cert = homsearch.alphabet_impossibility_certificate(C5, 3, 2, 3)
        assert cert.config == (0,) * 14
        assert len(cert.reasoning) == 3

    def test_wrong_class_rejected(self):
        cert = homsearch.alphabet_impossibility_certificate(C5, 3, 1, 2)
        rule = rules.random_rule(3, 1, rules.alphabet(3), tuple(range(5)), 1)
        with pytest.raises(ValueError):
            homsearch.replay_certificate(cert, rule, C5)
