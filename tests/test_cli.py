import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import fiidlab
from fiidlab import cli, graphs


def run(capsys, *argv):
    code = cli.main(["--no-timestamp", *argv])
    out = capsys.readouterr().out
    payloads = [json.loads(line)["payload"] for line in out.strip().splitlines()]
    return code, (payloads[0] if len(payloads) == 1 else payloads), out


class TestEnvelope:
    def test_fields_and_echo(self, capsys):
        cli.main(["entropy", "constant", "--r", "2", "--c0", "0.75"])
        env = json.loads(capsys.readouterr().out)
        assert env["schema_version"] == 3
        assert env["tool_version"]
        assert env["command"] == ["entropy", "constant", "--r", "2", "--c0", "0.75"]
        assert "timestamp" in env

    def test_no_timestamp_suppresses(self, capsys):
        cli.main(["--no-timestamp", "entropy", "constant", "--r", "2", "--c0", "0.75"])
        env = json.loads(capsys.readouterr().out)
        assert "timestamp" not in env

    def test_byte_identical_repeat(self, capsys):
        args = ["--no-timestamp", "entropy", "audit", "--rule",
                "builtin:max_seed_independent", "--exact"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_parser_is_built_once(self, capsys, monkeypatch):
        """Every call parses with the parser the first call built, and a call
        that argparse refuses leaves it parsing as before."""
        parser = cli._build_parser()

        def rebuild(*args, **kwargs):
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", rebuild)
        args = ["--no-timestamp", "entropy", "constant", "--r", "3", "--c0", "0.3"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(["--no-timestamp", "entropy", "constant", "--r", "3"]) == 2
        assert cli.main(["--no-timestamp", "rule", "random", "--bogus"]) == 2
        capsys.readouterr()
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first
        assert cli._build_parser() is parser


class TestGraphCommands:
    def test_gen_profile_invariants(self, capsys, tmp_path):
        path = str(tmp_path / "g.graph")
        code, payload, _ = run(
            capsys, "graph", "gen", "--n", "20", "--d", "3", "--seed", "3", "--out", path
        )
        assert code == 0 and payload["m"] == 30 and payload["seed"] == 3

        code, payload, _ = run(capsys, "graph", "profile", "--target", path)
        assert code == 0 and payload["regular_degree"] == 3

        code, payload, _ = run(capsys, "graph", "profile", "--target", "Heawood")
        assert payload["girth"] == 6 and payload["bipartite"] is True

        code, payload, _ = run(capsys, "graph", "invariants", "--target", "Petersen")
        assert payload == {
            "target": "Petersen",
            "independence_number": 4,
            "chromatic_number": 3,
        }

    def test_forest_girth_serializes_as_infinite(self, capsys, tmp_path):
        path = tmp_path / "p.graph"
        path.write_text("3 2\n0 1\n1 2\n")
        code, payload, _ = run(capsys, "graph", "profile", "--target", str(path))
        assert payload["girth"] == "Infinite"

    def test_gen_deterministic_files(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
        run(capsys, "graph", "gen", "--n", "30", "--d", "3", "--seed", "5", "--out", a)
        run(capsys, "graph", "gen", "--n", "30", "--d", "3", "--seed", "5", "--out", b)
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x 1\n0 1\n", "line 1: bad header 'x 1', expected 'n m'"),
            ("2 1\n0 y\n", "line 2: bad edge line '0 y', expected 'u v'"),
        ],
    )
    def test_graph_file_errors_name_the_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "g.graph"
        path.write_text(text)
        assert cli.main(["--no-timestamp", "graph", "profile", "--target", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ValueError: {message}\n"

    def test_unknown_target_is_usage_error(self, capsys):
        assert cli.main(["graph", "profile", "--target", "Nope"]) == 2


class TestRuleCommands:
    def test_make_and_show(self, capsys, tmp_path):
        path = str(tmp_path / "m.rule")
        code, payload, _ = run(
            capsys, "rule", "make", "--name", "max_seed_independent", "--out", path
        )
        assert code == 0 and payload["table_size"] == 4

        code, payload, _ = run(capsys, "rule", "show", "--rule", path)
        assert payload["model"] == "rank" and len(payload["table"]) == 4

    def test_random_records_seed(self, capsys, tmp_path):
        path = str(tmp_path / "r.rule")
        code, payload, _ = run(
            capsys, "rule", "random", "--d", "3", "--t", "1", "--model", "alphabet:2",
            "--alphabet", "0,1", "--seed", "44", "--out", path,
        )
        assert code == 0 and payload["seed"] == 44 and payload["table_size"] == 8

    def test_rule_file_d_must_match(self, capsys, tmp_path):
        path = str(tmp_path / "m.rule")
        run(capsys, "rule", "make", "--name", "max_seed_independent", "--out", path)
        assert cli.main(["entropy", "exact", "--rule", path, "--d", "4"]) == 2
        assert cli.main(["rule", "show", "--rule", path, "--d", "5"]) == 2
        assert "disagrees" in capsys.readouterr().err
        code, payload, _ = run(capsys, "rule", "show", "--rule", path, "--d", "3")
        assert code == 0 and payload["d"] == 3
        code, payload, _ = run(capsys, "rule", "show", "--rule", path)
        assert code == 0 and payload["d"] == 3

    def test_builtin_rule_takes_d(self, capsys):
        code, payload, _ = run(
            capsys, "rule", "show", "--rule", "builtin:max_seed_independent", "--d", "4"
        )
        assert code == 0 and payload["d"] == 4 and payload["table_size"] == 5
        code, payload, _ = run(capsys, "rule", "show", "--rule", "builtin:max_seed_independent")
        assert code == 0 and payload["d"] == 3

    def test_builtin_spec_reads_all_of_its_text(self, capsys):
        # the constant's label is everything after builtin:constant:, as
        # rule make --label gives it
        for label in ("a:b", "0:junk"):
            code, shown, _ = run(capsys, "rule", "show", "--rule", f"builtin:constant:{label}")
            _, made, _ = run(capsys, "rule", "make", "--name", "constant", "--label", label)
            assert code == 0 and shown["output_alphabet"] == [label]
            assert {k: shown[k] for k in made} == made
        spec = "builtin:max_seed_independent:junk"
        assert cli.main(["--no-timestamp", "entropy", "exact", "--rule", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and repr(spec) in err

    def test_make_max_seed_refuses_label_and_alphabet(self, capsys):
        # max_seed_independent has fixed labels; a flag it would ignore is refused
        argv = ["rule", "make", "--name", "max_seed_independent", "--label", "7",
                "--alphabet", "a,b"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "takes no --label" in err

    def test_rule_file_out_of_class_order_is_refused(self, capsys, tmp_path):
        path = tmp_path / "r.rule"
        run(capsys, "rule", "random", "--d", "3", "--t", "1", "--model", "rank",
            "--alphabet", "a,b", "--seed", "1", "--out", str(path))
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["--no-timestamp", "entropy", "exact", "--rule", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ValueError: line 2: expected '")

    def test_alphabet_without_an_ascii_text_is_refused(self, capsys):
        argv = ["rule", "random", "--d", "3", "--t", "1", "--model", "rank",
                "--alphabet", "\u00b2,x", "--seed", "1"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "not serializable" in err and "invalid literal" not in err

    @pytest.mark.parametrize(
        "argv,token",
        [
            (["rule", "random", "--t", "1", "--model", "rank", "--alphabet", "007,x"], "007"),
            (["rule", "random", "--t", "1", "--model", "rank", "--alphabet", "a,-0"], "-0"),
            (["rule", "make", "--name", "constant", "--label", "01"], "01"),
            (["rule", "make", "--name", "constant", "--label", "1", "--alphabet", "1,02"], "02"),
            (["rule", "show", "--rule", "builtin:constant:007"], "007"),
        ],
    )
    def test_label_token_that_prints_as_other_text_is_refused(self, capsys, argv, token):
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: label '{token}' reads as ")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x 1 rank a,b\n", "line 1: bad rule header 'x 1 rank a,b'"),
            ("3 1 alphabet:y a,b\n", "line 1: bad rule header '3 1 alphabet:y a,b'"),
        ],
    )
    def test_rule_file_header_errors_name_the_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "r.rule"
        path.write_text(text)
        assert cli.main(["--no-timestamp", "rule", "show", "--rule", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ValueError: {message}\n"

    @pytest.mark.parametrize("token", ["alphabet:y", "hybrid:x1", "alphabet:1_0"])
    def test_seed_model_size_that_is_not_an_int_is_refused_by_name(self, capsys, token):
        argv = ["rule", "random", "--model", token, "--alphabet", "a,b", "--seed", "1"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ValueError: cannot parse seed model '{token}'\n"

    @pytest.mark.parametrize("token", [" alphabet:3 ", "rank ", "\thybrid:2"])
    def test_padded_seed_model_is_refused(self, capsys, token):
        argv = ["rule", "random", "--t", "0", "--model", token, "--alphabet", "a,b", "--seed", "1"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ValueError: cannot parse seed model {token!r}\n"

    def test_random_without_seed_reports_one(self, capsys):
        code, payload, _ = run(
            capsys, "rule", "random", "--d", "3", "--t", "0", "--model", "rank",
            "--alphabet", "a,b",
        )
        assert code == 0 and isinstance(payload["seed"], int)


class TestEntropyCommands:
    def test_constant_worked_example(self, capsys):
        code, payload, _ = run(capsys, "entropy", "constant", "--r", "3", "--c0", "0.3")
        assert code == 0 and payload == {"C": 59050}

    def test_audit_slack_and_exit(self, capsys):
        code, payload, _ = run(
            capsys, "entropy", "audit", "--rule", "builtin:max_seed_independent", "--exact"
        )
        assert code == 0
        assert abs(payload["slack_edge_vertex"] - 0.289941) < 1e-5
        assert all(v["pass"] for v in payload["verdicts"])

    def test_audit_with_target_support_violation_exits_one(self, capsys, tmp_path):
        path = str(tmp_path / "r.rule")
        run(
            capsys, "rule", "random", "--d", "3", "--t", "1", "--model", "rank",
            "--alphabet", "0,1,2,3,4", "--seed", "5", "--out", path,
        )
        code, payload, _ = run(
            capsys, "entropy", "audit", "--rule", path, "--exact", "--target", "C5"
        )
        assert code == 1
        checks = {v["check"]: v["pass"] for v in payload["verdicts"]}
        assert checks["support_in_target"] is False

    def test_exact_marginals_payload(self, capsys):
        code, payload, _ = run(
            capsys, "entropy", "exact", "--rule", "builtin:max_seed_independent"
        )
        assert payload["vertex"]["p"]["IN"] == {"exact": "1/4", "float": 0.25}
        assert payload["pair"]["IN,OUT"] == {"exact": "1/4", "float": 0.25}

    def test_mc_marginals(self, capsys):
        code, payload, _ = run(
            capsys, "entropy", "mc", "--rule", "builtin:max_seed_independent",
            "--samples", "20000", "--seed", "1",
        )
        assert code == 0 and abs(payload["vertex"]["p"]["IN"] - 0.25) < 0.02

    def test_tail_probs(self, capsys):
        code, payload, _ = run(
            capsys, "entropy", "tail", "--probs", "1/4,1/4,1/4,1/4", "--C", "3",
            "--c0", "0.5",
        )
        assert code == 0 and payload["outside_mass"]["exact"] == "1/2"

    def test_tail_d_needs_rule(self, capsys):
        assert cli.main(["entropy", "tail", "--probs", "1/4,1/4,1/2", "--C", "2",
                         "--c0", "0.3", "--d", "9"]) == 2
        assert "--d only with --rule" in capsys.readouterr().err
        code, payload, _ = run(
            capsys, "entropy", "tail", "--rule", "builtin:max_seed_independent",
            "--d", "4", "--C", "2", "--c0", "0.3",
        )
        assert code == 0 and payload["selected"] == ["OUT"]

    def test_tail_takes_probs_or_rule_not_both(self, capsys):
        assert cli.main(["--no-timestamp", "entropy", "tail", "--probs", "1/2,1/2", "--rule",
                         "builtin:constant:0", "--C", "2", "--c0", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--probs" in err and "--rule" in err

    def test_alphabet2_t3_exact_commands(self, capsys, tmp_path):
        path = str(tmp_path / "a.rule")
        code, payload, _ = run(
            capsys, "rule", "random", "--t", "3", "--model", "alphabet:2",
            "--alphabet", "0,1,2", "--seed", "7", "--out", path,
        )
        assert code == 0 and payload["table_size"] == 26488
        code, payload, _ = run(capsys, "entropy", "exact", "--rule", path)
        assert code == 0 and payload["pair"]["0,1"]["exact"].endswith("/1073741824")
        code, payload, _ = run(capsys, "entropy", "audit", "--rule", path, "--exact")
        assert code == 0
        code, payload, _ = run(capsys, "entropy", "tail", "--rule", path, "--C", "2",
                               "--c0", "0.3")
        assert code == 0
        code, payload, _ = run(capsys, "sim", "pipeline", "--rule", path, "--target", "K3",
                               "--c0", "0.089", "--C", "2", "--exact")
        assert code == 0 and payload["marginal_mode"] == "exact"
        assert cli.main(["rule", "random", "--t", "3", "--model", "alphabet:3",
                         "--alphabet", "0,1", "--seed", "7"]) == 2
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_rank_t2_exact(self, capsys, tmp_path):
        # the 14-vertex edge ball is past the rank limit; the 10-vertex ball is not
        path = str(tmp_path / "r.rule")
        run(
            capsys, "rule", "random", "--t", "2", "--model", "rank",
            "--alphabet", "0,1", "--seed", "3", "--out", path,
        )
        code, payload, _ = run(capsys, "entropy", "exact", "--rule", path)
        assert code == 0
        assert sum(Fraction(x["exact"]) for x in payload["pair"].values()) == 1

    def test_samples_below_one_or_with_exact_are_usage_errors(self, capsys):
        rule = ["--rule", "builtin:max_seed_independent"]
        pipeline = ["sim", "pipeline", "--rule", "builtin:constant:0", "--target",
                    "Petersen", "--c0", "0.089", "--C", "5"]
        for argv, message in (
            (["entropy", "mc", *rule, "--samples", "0"], "n_samples must be >= 1"),
            (["entropy", "audit", *rule, "--samples", "-3"], "n_samples must be >= 1"),
            (["entropy", "audit", *rule, "--exact", "--samples", "100"], "not allowed with"),
            ([*pipeline, "--samples", "0"], "n_samples must be >= 1"),
            ([*pipeline, "--exact", "--samples", "100"], "not allowed with"),
        ):
            assert cli.main(["--no-timestamp", *argv]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and message in err, argv

    def test_audit_exact_with_seed_is_refused(self, capsys):
        argv = ["entropy", "audit", "--rule", "builtin:max_seed_independent", "--exact",
                "--seed", "5"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--seed applies only to --samples runs" in err

    def test_audit_r_disagreeing_with_the_target_is_refused(self, capsys):
        assert cli.main(["--no-timestamp", "entropy", "audit", "--rule", "builtin:constant:0",
                         "--exact", "--target", "Petersen", "--r", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "r = 7 disagrees with the target's regular degree 3" in err

    def test_audit_regularity_below_one_is_refused(self, capsys):
        for r in ("0", "-3"):
            assert cli.main(["--no-timestamp", "entropy", "audit", "--rule",
                             "builtin:max_seed_independent", "--exact", "--r", r]) == 2
            out, err = capsys.readouterr()
            assert out == "" and f"regularity r must be >= 1, got {r}" in err


class TestHomCommands:
    def test_search_c5(self, capsys):
        code, payload, _ = run(
            capsys, "hom", "search", "--target", "C5", "--d", "3", "--t", "1",
            "--model", "rank",
        )
        assert code == 0
        assert payload["kind"] == "ExhaustedNone"
        assert payload["rules_examined"] == 625
        assert payload["class_caveat"]

    def test_search_alphabet_shortcut(self, capsys):
        code, payload, _ = run(
            capsys, "hom", "search", "--target", "Petersen", "--d", "3", "--t", "2",
            "--model", "alphabet:3",
        )
        assert code == 0 and payload["kind"] == "Impossible"
        assert payload["certificate"]["config"] == [0] * 14

    def test_search_budget_exceeded_exits_one(self, capsys):
        # past max_rules at d = 1, t = 1, where no certificate exists
        code, payload, _ = run(
            capsys, "hom", "search", "--target", "C5", "--d", "1", "--t", "1",
            "--model", "rank", "--max-rules", "1",
        )
        assert code == 1 and payload["kind"] == "BudgetExceeded"

    def test_search_past_a_budget_is_impossible(self, capsys):
        for d, t, model, target in (
            ("3", "2", "rank", "C5"),
            ("3", "2", "alphabet:3", "K3"),
            ("3", "1", "hybrid:2", "C5"),
            ("3", "2", "hybrid:2", "K3"),
            ("5", "1", "rank", "McGee"),
        ):
            code, payload, _ = run(
                capsys, "hom", "search", "--target", target, "--d", d, "--t", t,
                "--model", model,
            )
            assert code == 0 and payload["kind"] == "Impossible", (d, t, model)
            _, cert, _ = run(
                capsys, "hom", "certificate", "--target", target, "--d", d, "--t", t,
                "--model", model,
            )
            assert payload["certificate"] == cert

    def test_search_max_rules_must_be_positive(self, capsys):
        for max_rules in ("-4", "0"):
            argv = ["hom", "search", "--target", "C5", "--model", "rank",
                    "--max-rules", max_rules]
            assert cli.main(["--no-timestamp", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "max_rules must be >= 1" in err

    def test_check_violation_exits_one(self, capsys, tmp_path):
        path = str(tmp_path / "r.rule")
        run(
            capsys, "rule", "random", "--d", "3", "--t", "1", "--model", "rank",
            "--alphabet", "0,1,2,3,4", "--seed", "5", "--out", path,
        )
        code, payload, _ = run(capsys, "hom", "check", "--rule", path, "--target", "C5")
        assert code == 1 and payload["passed"] is False
        assert not graphs.named_graph("C5").has_edge(*payload["witness"]["outputs"])

    def test_check_alphabet_over_edge_budget_is_exact(self, capsys, tmp_path):
        # the alphabet:2 t=3 edge ball has 2^30 configurations; the all-zero
        # one, first in lexicographic order, decides the check exactly
        path = str(tmp_path / "a.rule")
        run(
            capsys, "rule", "random", "--d", "3", "--t", "3", "--model", "alphabet:2",
            "--alphabet", "0,1,2", "--seed", "7", "--out", path,
        )
        code, payload, _ = run(capsys, "hom", "check", "--rule", path, "--target", "K3")
        assert code == 1 and payload["passed"] is False and "exact" not in payload
        assert payload["witness"]["config"] == [0] * 30
        x, y = payload["witness"]["outputs"]
        assert x == y

    def test_certificate(self, capsys):
        code, payload, _ = run(
            capsys, "hom", "certificate", "--target", "C5", "--d", "3", "--t", "2",
            "--model", "alphabet:3",
        )
        assert code == 0 and payload["config"] == [0] * 14

    def test_negative_radius_and_degree_zero_are_usage_errors(self, capsys):
        # T_0 has no edge and a negative radius no ball: every class refuses
        # them with exit 2, before any enumeration
        for argv in (
            ["rule", "random", "--t", "-1", "--model", "rank", "--alphabet", "0,1",
             "--seed", "1"],
            ["hom", "search", "--t", "-1", "--target", "C5", "--model", "rank"],
            ["hom", "certificate", "--t", "-1", "--target", "C5", "--model", "alphabet:2"],
            ["hom", "search", "--d", "0", "--target", "C5", "--model", "rank"],
        ):
            assert cli.main(["--no-timestamp", *argv]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and "need d >= 1 and t >= 0" in err, argv

    def test_check_over_edge_budget_is_exact(self, capsys, tmp_path):
        # the rank t=2 edge ball has 14! orders; the certificate decides
        path = str(tmp_path / "r.rule")
        run(
            capsys, "rule", "random", "--d", "3", "--t", "2", "--model", "rank",
            "--alphabet", "0,1,2,3,4", "--seed", "1", "--out", path,
        )
        code, payload, _ = run(capsys, "hom", "check", "--rule", path, "--target", "C5")
        assert code == 1 and payload["passed"] is False and "exact" not in payload
        x, y = payload["witness"]["outputs"]
        assert x == y
        _, cert, _ = run(
            capsys, "hom", "certificate", "--target", "C5", "--d", "3", "--t", "2",
            "--model", "rank",
        )
        assert payload["witness"]["config"] == cert["config"]
        argv = ["hom", "check", "--rule", path, "--target", "C5", "--samples", "5"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        assert capsys.readouterr().out == ""

    def test_certificate_refused_on_a_single_edge(self, capsys):
        argv = ["hom", "certificate", "--target", "C5", "--model", "rank", "--d", "1",
                "--t", "1"]
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "no impossibility certificate for rank at d=1, t=1" in err

    def test_certificate_refused_by_name_past_a_code_byte(self, capsys):
        # rank and hybrid codes spend a byte per rank; at d=5 a t=4 ball has 426
        for model in ("rank", "hybrid:2"):
            argv = ["hom", "certificate", "--target", "C5", "--model", model, "--d", "5",
                    "--t", "4"]
            assert cli.main(["--no-timestamp", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "MalformedBall" not in err
            assert (
                f"no impossibility certificate for {model} at d=5, t=4: its balls have 426 "
                "vertices, more ranks than a code byte holds (255)"
            ) in err
        code, payload, _ = run(
            capsys, "hom", "certificate", "--target", "C5", "--model", "rank", "--d", "5",
            "--t", "3",
        )
        # 106-vertex balls, in a 170-vertex edge ball
        assert code == 0 and (payload["d"], payload["t"], len(payload["config"])) == (5, 3, 170)


class TestSimCommands:
    def test_run_and_labels(self, capsys, tmp_path):
        g = str(tmp_path / "g.graph")
        labels = str(tmp_path / "labels.txt")
        run(capsys, "graph", "gen", "--n", "100", "--d", "3", "--seed", "2", "--out", g)
        code, payload, _ = run(
            capsys, "sim", "run", "--rule", "builtin:max_seed_independent",
            "--graph", g, "--seed", "4", "--labels-out", labels,
        )
        assert code == 0
        assert payload["independent_set"]["adjacent_in_in"] == 0
        lines = open(labels).read().strip().splitlines()
        assert len(lines) == payload["covered"]

    @pytest.mark.parametrize("flag", ["--graph", "--target"])
    def test_unreadable_graph_error_names_its_flag(self, capsys, tmp_path, flag):
        missing = str(tmp_path / "nosuch.graph")
        graph = missing if flag == "--graph" else "Petersen"
        target = ["--target", missing] if flag == "--target" else []
        assert cli.main(["--no-timestamp", "sim", "run", "--rule", "builtin:max_seed_independent",
                         "--graph", graph, *target, "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag} {missing!r} is neither a named graph nor a readable")

    def test_pipeline_refuted_exits_zero(self, capsys):
        code, payload, _ = run(
            capsys, "sim", "pipeline", "--rule", "builtin:constant:0",
            "--target", "Petersen", "--c0", "0.089", "--C", "5", "--exact",
        )
        assert code == 0
        assert payload["classification"].startswith("refuted at step 1")

    def test_usage_error_exit_two(self, capsys):
        assert cli.main(["sim", "pipeline", "--rule", "builtin:constant:0",
                         "--target", "Petersen"]) == 2

    def test_pipeline_needs_exact_or_samples(self, capsys):
        assert cli.main(["--no-timestamp", "sim", "pipeline", "--rule", "builtin:constant:0",
                         "--target", "Petersen", "--c0", "0.089", "--C", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "one of the arguments --exact --samples is required" in err

    def test_pipeline_exact_with_seed_is_refused(self, capsys):
        assert cli.main(["--no-timestamp", "sim", "pipeline", "--rule", "builtin:constant:0",
                         "--target", "Petersen", "--c0", "0.089", "--C", "5", "--exact",
                         "--seed", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exact mode takes neither a sample count nor an rng seed" in err

    def test_pipeline_into_zero_regular_target_is_refused(self, capsys, tmp_path):
        g = str(tmp_path / "empty.graph")
        run(capsys, "graph", "gen", "--n", "4", "--d", "0", "--out", g)
        assert cli.main(["--no-timestamp", "sim", "pipeline", "--rule", "builtin:constant:0",
                         "--target", g, "--c0", "0.089", "--C", "2", "--exact"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "target of degree >= 1, got degree 0" in err

    def test_bad_flag_exit_two(self):
        assert cli.main(["graph", "profile", "--garbage"]) == 2


class TestInputErrors:
    """Bad input exits 2 with an error line and prints no JSON; exit 1 is
    kept for an audited property that fails."""

    ZERO_DENOMINATOR = {
        "constant --c0": ["entropy", "constant", "--r", "3", "--c0", "1/0"],
        "tail --probs": ["entropy", "tail", "--probs", "1/0,1", "--C", "2", "--c0", "0.5"],
        "tail --c0": ["entropy", "tail", "--probs", "1/4,1/4,1/2", "--C", "2", "--c0", "1/0"],
        "pipeline --c0": ["sim", "pipeline", "--rule", "builtin:constant:0", "--target",
                          "Petersen", "--c0", "1/0", "--C", "5", "--exact"],
    }

    @pytest.mark.parametrize("argv", ZERO_DENOMINATOR.values(), ids=ZERO_DENOMINATOR.keys())
    def test_zero_denominator(self, capsys, argv):
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "zero denominator" in err

    # every subcommand that takes --seed, with the rest of a valid command line
    SEEDED = {
        "graph gen": ["graph", "gen", "--n", "10", "--d", "3", "--out", "{tmp}/g.txt"],
        "rule random": ["rule", "random", "--t", "1", "--model", "alphabet:2",
                        "--alphabet", "0,1"],
        "entropy mc": ["entropy", "mc", "--rule", "builtin:max_seed_independent",
                       "--samples", "50"],
        "entropy audit": ["entropy", "audit", "--rule", "builtin:max_seed_independent",
                          "--samples", "50"],
        "hom search": ["hom", "search", "--target", "C5", "--t", "1", "--model", "rank"],
        "sim run": ["sim", "run", "--rule", "builtin:max_seed_independent",
                    "--graph", "Petersen"],
        "sim pipeline": ["sim", "pipeline", "--rule", "builtin:constant:0", "--target",
                         "Petersen", "--c0", "0.089", "--C", "5", "--samples", "50"],
    }

    def test_seeded_covers_every_seed_flag(self):
        seeded = set()
        top = next(a for a in cli._build_parser()._actions if a.dest == "group")
        for group, sub in top.choices.items():
            action = next(a for a in sub._actions if a.dest == "sub")
            seeded |= {
                f"{group} {name}" for name, p in action.choices.items()
                if "--seed" in p._option_string_actions
            }
        assert seeded == set(self.SEEDED)

    @pytest.mark.parametrize("argv", SEEDED.values(), ids=SEEDED.keys())
    def test_seed_outside_u64_is_refused(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        for seed in ("-1", str(2**64)):
            assert cli.main(["--no-timestamp", *argv, "--seed", seed]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "--seed" in err
        for seed in (0, 2**64 - 1):
            code, payload, _ = run(capsys, *argv, "--seed", str(seed))
            assert code in (0, 1) and payload

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "gen", "--n", "10", "--d", "3", "--seed", "1", "--out"],
            ["rule", "random", "--d", "3", "--t", "1", "--model", "rank", "--alphabet", "0,1",
             "--seed", "1", "--out"],
            ["rule", "make", "--name", "constant", "--label", "0", "--out"],
            ["sim", "run", "--rule", "builtin:max_seed_independent", "--graph", "Petersen",
             "--seed", "1", "--labels-out"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_output_path_in_a_missing_directory(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "out.txt")
        assert cli.main(["--no-timestamp", *argv, path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: FileNotFoundError:")

    # each refusal, made once where its input arrives: the parser, a handler
    # (two flags, or a loaded file) or the library; the text names the flag
    # or the limit
    RULE = ["--rule", "builtin:max_seed_independent"]
    PIPELINE = ["sim", "pipeline", "--rule", "builtin:constant:0", "--target", "Petersen"]
    TAIL = ["entropy", "tail", "--probs", "1/2,1/2"]
    USAGE = {
        "audit without a law": (["entropy", "audit", *RULE],
                                "one of the arguments --exact --samples is required"),
        "audit exact and samples": (["entropy", "audit", *RULE, "--exact", "--samples", "3"],
                                    "argument --samples: not allowed with argument --exact"),
        "audit exact with seed": (["entropy", "audit", *RULE, "--exact", "--seed", "3"],
                                  "--seed applies only to --samples runs"),
        "audit samples 0": (["entropy", "audit", *RULE, "--samples", "0"],
                            "n_samples must be >= 1"),
        "mc without samples": (["entropy", "mc", *RULE],
                               "the following arguments are required: --samples"),
        "mc samples -1": (["entropy", "mc", *RULE, "--samples", "-1"], "n_samples must be >= 1"),
        "pipeline without a law": ([*PIPELINE, "--c0", "0.089", "--C", "5"],
                                   "one of the arguments --exact --samples is required"),
        "pipeline exact and samples": ([*PIPELINE, "--c0", "0.089", "--C", "5", "--exact",
                                        "--samples", "3"], "not allowed with argument --exact"),
        "pipeline samples 0": ([*PIPELINE, "--c0", "0.089", "--C", "5", "--samples", "0"],
                               "n_samples must be >= 1"),
        "pipeline exact with seed": ([*PIPELINE, "--c0", "0.089", "--C", "5", "--exact",
                                      "--seed", "3"],
                                     "exact mode takes neither a sample count nor an rng seed"),
        "pipeline without c0": ([*PIPELINE, "--C", "5", "--exact"],
                                "the following arguments are required: --c0"),
        "pipeline without C": ([*PIPELINE, "--c0", "0.089", "--exact"],
                               "the following arguments are required: --C"),
        "gen without out": (["graph", "gen", "--n", "10", "--d", "3"],
                            "the following arguments are required: --out"),
        "make unknown name": (["rule", "make", "--name", "table"],
                              "argument --name: invalid choice: 'table'"),
        "make constant without label": (["rule", "make", "--name", "constant"],
                                        "--name constant needs --label"),
        "make max_seed with label": (["rule", "make", "--name", "max_seed_independent",
                                      "--label", "0"], "takes no --label"),
        "random empty alphabet": (["rule", "random", "--model", "alphabet:2", "--alphabet", "",
                                   "--seed", "1"], "label ''"),
        "tail without a law": (["entropy", "tail", "--C", "2", "--c0", "0.1"],
                               "one of the arguments --rule --probs is required"),
        "tail probs and rule": ([*TAIL, *RULE, "--C", "2", "--c0", "0.1"],
                                "argument --rule: not allowed with argument --probs"),
        "tail empty probs": (["entropy", "tail", "--probs", "", "--C", "2", "--c0", "0.1"],
                             "Invalid literal for Fraction: ''"),
        "tail without C": ([*TAIL, "--c0", "0.1"], "the following arguments are required: --C"),
        "tail without c0": ([*TAIL, "--C", "2"], "the following arguments are required: --c0"),
        "tail d with probs": ([*TAIL, "--C", "2", "--c0", "0.1", "--d", "3"],
                              "--d only with --rule"),
        "constant without c0": (["entropy", "constant", "--r", "3"],
                                "the following arguments are required: --c0"),
        "search max-rules 0": (["hom", "search", "--target", "C5", "--model", "rank",
                                "--max-rules", "0"], "max_rules must be >= 1"),
        "run without graph": (["sim", "run", *RULE, "--seed", "1"],
                              "the following arguments are required: --graph"),
        "run empty graph": (["sim", "run", *RULE, "--graph", "", "--seed", "1"],
                            "--graph '' is neither a named graph nor a readable file"),
    }

    @pytest.mark.parametrize("argv,message", USAGE.values(), ids=USAGE.keys())
    def test_each_refusal_exits_two_and_names_its_flag_or_limit(self, capsys, argv, message):
        assert cli.main(["--no-timestamp", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_python_dash_m_runs_quietly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fiidlab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "fiidlab", "--no-timestamp", "entropy", "constant",
         "--r", "3", "--c0", "0.3"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["payload"] == {"C": 59050}
