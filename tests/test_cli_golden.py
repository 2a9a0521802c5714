"""Pinned CLI output: the exact line each command prints under --no-timestamp.

`cli_golden.txt` holds one line per case: the case name, a space, and the JSON
line.  A change that alters CLI output on purpose edits that file, so the
diff shows every output byte it changed.
"""

from pathlib import Path

import pytest

from fiidlab import cli

GOLDEN = dict(
    line.split(" ", 1)
    for line in Path(__file__).with_name("cli_golden.txt").read_text().splitlines()
)

# case -> (exit code, argv of each command); the last command's line is
# pinned, the ones before it write its input files
CASES = {
    "entropy_constant": (0, [["entropy", "constant", "--r", "3", "--c0", "0.3"]]),
    "graph_invariants_petersen": (0, [["graph", "invariants", "--target", "Petersen"]]),
    "graph_profile_mcgee": (0, [["graph", "profile", "--target", "McGee"]]),
    "hom_search_c5": (
        0,
        [["hom", "search", "--target", "C5", "--d", "3", "--t", "1", "--model", "rank"]],
    ),
    # 10,000 refuted rules against the 1,000-witness cap: the stored sample
    # comes from reservoir replacement
    "hom_search_petersen_reservoir": (
        0,
        [
            [
                "hom", "search", "--target", "Petersen", "--d", "3", "--t", "1",
                "--model", "rank", "--seed", "3",
            ]
        ],
    ),
    "entropy_audit_exact": (
        0,
        [["entropy", "audit", "--rule", "builtin:max_seed_independent", "--exact"]],
    ),
    "sim_pipeline_exact": (
        0,
        [
            [
                "sim", "pipeline", "--rule", "builtin:constant:0", "--target", "Petersen",
                "--c0", "0.089", "--C", "5", "--exact",
            ]
        ],
    ),
    "hom_certificate": (
        0,
        [
            [
                "hom", "certificate", "--target", "Petersen", "--d", "3", "--t", "2",
                "--model", "alphabet:3",
            ]
        ],
    ),
    "entropy_tail": (
        0,
        [["entropy", "tail", "--probs", "1/4,1/4,1/4,1/4", "--C", "3", "--c0", "0.5"]],
    ),
    "sim_run": (
        0,
        [
            ["graph", "gen", "--n", "2000", "--d", "3", "--seed", "8", "--out", "g.graph"],
            [
                "sim", "run", "--rule", "builtin:max_seed_independent", "--graph", "g.graph",
                "--seed", "77",
            ],
        ],
    ),
    "hom_check_violation": (
        1,
        [
            [
                "rule", "random", "--d", "3", "--t", "1", "--model", "rank",
                "--alphabet", "0,1,2,3,4", "--seed", "5", "--out", "r5.rule",
            ],
            ["hom", "check", "--rule", "r5.rule", "--target", "C5"],
        ],
    ),
    "hom_check_alphabet_t3": (
        1,
        [
            [
                "rule", "random", "--d", "3", "--t", "3", "--model", "alphabet:2",
                "--alphabet", "0,1,2", "--seed", "7", "--out", "a7.rule",
            ],
            ["hom", "check", "--rule", "a7.rule", "--target", "K3"],
        ],
    ),
    # over the edge budget: the rank certificate's configuration is the witness
    "hom_check_rank_t2": (
        1,
        [
            [
                "rule", "random", "--d", "3", "--t", "2", "--model", "rank",
                "--alphabet", "0,1,2,3,4", "--seed", "1", "--out", "r1.rule",
            ],
            ["hom", "check", "--rule", "r1.rule", "--target", "C5"],
        ],
    ),
    "hom_certificate_rank": (
        0,
        [
            [
                "hom", "certificate", "--target", "C5", "--d", "3", "--t", "2",
                "--model", "rank",
            ]
        ],
    ),
    # one exact law from each builder of the cell form: the half-tree types
    # and the core interleavings
    "entropy_exact_alphabet": (
        0,
        [
            [
                "rule", "random", "--d", "3", "--t", "2", "--model", "alphabet:3",
                "--alphabet", "0,1,2", "--seed", "6", "--out", "a6.rule",
            ],
            ["entropy", "exact", "--rule", "a6.rule"],
        ],
    ),
    "entropy_exact_hybrid": (
        0,
        [
            [
                "rule", "random", "--d", "3", "--t", "1", "--model", "hybrid:2",
                "--alphabet", "0,1,2", "--seed", "6", "--out", "h6.rule",
            ],
            ["entropy", "exact", "--rule", "h6.rule"],
        ],
    ),
    # a rank t=1 rule over ten labels uses four: the six unused labels print
    # an exact "0" and a Monte Carlo integer 0
    "entropy_exact_unused_labels": (
        0,
        [
            [
                "rule", "random", "--d", "3", "--t", "1", "--model", "rank",
                "--alphabet", "0,1,2,3,4,5,6,7,8,9", "--seed", "4", "--out", "r10.rule",
            ],
            ["entropy", "exact", "--rule", "r10.rule"],
        ],
    ),
    "entropy_mc_unused_labels": (
        0,
        [
            [
                "rule", "random", "--d", "3", "--t", "1", "--model", "rank",
                "--alphabet", "0,1,2,3,4,5,6,7,8,9", "--seed", "4", "--out", "r10.rule",
            ],
            ["entropy", "mc", "--rule", "r10.rule", "--samples", "1000", "--seed", "2"],
        ],
    ),
    # the certificate nested in the search outcome
    "hom_search_rank_t2_impossible": (
        0,
        [["hom", "search", "--target", "C5", "--d", "3", "--t", "2", "--model", "rank"]],
    ),
    "hom_search_found": (
        0,
        [["hom", "search", "--target", "K2", "--d", "1", "--t", "1", "--model", "rank"]],
    ),
    "sim_run_target": (
        0,
        [
            ["graph", "gen", "--n", "200", "--d", "3", "--seed", "8", "--out", "g200.graph"],
            [
                "rule", "random", "--d", "3", "--t", "1", "--model", "alphabet:2",
                "--alphabet", "0,1,2", "--seed", "3", "--out", "a3.rule",
            ],
            [
                "sim", "run", "--rule", "a3.rule", "--graph", "g200.graph", "--target", "K3",
                "--seed", "5",
            ],
        ],
    ),
    "entropy_audit_mc_target": (
        1,
        [
            [
                "entropy", "audit", "--rule", "builtin:constant:0", "--target", "Petersen",
                "--samples", "2000", "--seed", "1",
            ]
        ],
    ),
    "sim_pipeline_mc": (
        0,
        [
            [
                "sim", "pipeline", "--rule", "builtin:constant:0", "--target", "Petersen",
                "--c0", "0.089", "--C", "5", "--samples", "2000", "--seed", "1",
            ]
        ],
    ),
    # the audit reads the rule's d: no vertex entropy cap at d = 2, the
    # factor 3/2 and cap 2 ln r at d = 4
    "entropy_audit_d2": (
        1,
        [
            [
                "rule", "random", "--d", "2", "--t", "3", "--model", "rank",
                "--alphabet", "a,b,c", "--seed", "5", "--out", "r.rule",
            ],
            ["entropy", "audit", "--rule", "r.rule", "--exact", "--r", "2"],
        ],
    ),
    "entropy_audit_d4": (
        0,
        [
            [
                "rule", "random", "--d", "4", "--t", "1", "--model", "rank",
                "--alphabet", "a,b,c", "--seed", "5", "--out", "r.rule",
            ],
            ["entropy", "audit", "--rule", "r.rule", "--exact", "--r", "2"],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_line(name, capsys, tmp_path, monkeypatch):
    # file arguments are relative, so the echoed command is the same in any directory
    monkeypatch.chdir(tmp_path)
    code, commands = CASES[name]
    *setup, argv = commands
    for step in setup:
        assert cli.main(["--no-timestamp", *step]) == 0
    capsys.readouterr()
    assert cli.main(["--no-timestamp", *argv]) == code
    assert capsys.readouterr().out == GOLDEN[name] + "\n"
