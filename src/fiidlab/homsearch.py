"""Search for homomorphism rules into a finite target graph.

A rule is a homomorphism rule when, for every seed configuration of the
edge ball, the two endpoint outputs form an edge of the target.  The checker
scans configurations exactly when the space fits the budget and falls back
to sampled falsification otherwise; the search enumerates whole rule tables
in mixed-radix order over the canonical balls.

The search walks the mixed-radix digits depth first, ball 0 most
significant.  The endpoint pairs of the edge pair table are grouped by the
later of their two balls, so assigning ball p decides exactly the pairs
grouped under p.  A prefix whose decided pairs include a non-edge refutes
the whole block of rules below it without building them: the block runs
through the witness reservoir (Algorithm R, as if each rule were scanned
alone), and a witness -- the first violating pair entry, in pair-table
order, for that rule's outputs -- is built only for the rules the reservoir
keeps.  The first rule whose pair entries are all edges is a homomorphism
rule, and the search returns it.

The reservoir's draws: rules 0..cap-1 fill it without a draw, and each
later refuted rule i takes one value j = rng.randrange(i + 1), replacing
slot j when j < cap.  The value is drawn as randrange draws it,
getrandbits((i + 1).bit_length()) again until it is <= i, so the stored
rules are those of one randrange call per rule.

Finite-alphabet seeds admit a shortcut: on the all-equal-tags configuration
both endpoints see identical canonical balls, so every rule colors some
edge monochromatically and no rule maps into a loopless target.  The
certificate for that argument is replayable against any candidate rule, and
the checker answers alphabet rules into loopless targets with it exactly,
at any radius.

Every exhaustion result is relative to the searched finite-radius class;
outcome reports carry that caveat verbatim.
"""

import random
from dataclasses import asdict, dataclass, field

from . import jsonable, randbelows, rules, shuffle
from .rules import BudgetExceeded


def class_caveat(d, t, model):
    return (
        f"exhaustion covers only finite-radius rules with d={d}, t={t}, "
        f"model={model}; rules of larger radius or other seed models are not excluded"
    )


@dataclass(frozen=True)
class ViolationWitness:
    """An edge-ball seed configuration on which a rule outputs a non-edge."""

    d: int
    t: int
    model: rules.SeedModel
    config: tuple
    outputs: tuple

    def to_json_dict(self):
        return jsonable({"config": self.config, "outputs": self.outputs})


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    exact: bool
    samples_checked: int | None
    witness: ViolationWitness | None

    @property
    def verdict(self):
        if not self.passed:
            return "violation found"
        if self.exact:
            return "homomorphism rule (exact scan)"
        return f"no violation found in {self.samples_checked} samples"


def _witness_from_config(rule, config, outputs):
    return ViolationWitness(
        d=rule.d, t=rule.t, model=rule.model, config=tuple(config), outputs=tuple(outputs)
    )


def _require_target_alphabet(rule, H):
    if set(rule.output_alphabet) != set(range(H.n)):
        raise ValueError(
            "rule output alphabet must equal the target vertex set 0..n-1"
        )


def _random_config(layout, model, rng):
    size = layout.size
    if model.kind == "alphabet":
        return tuple(randbelows(rng, model.q, size))
    ranks = list(range(1, size + 1))
    shuffle(rng, ranks)
    if model.kind == "rank":
        return tuple(ranks)
    # the tags are drawn after the whole shuffle
    return tuple(zip(ranks, randbelows(rng, model.q, size)))


def _loopless(H):
    return not any(H.has_edge(v, v) for v in range(H.n))


def is_homomorphism_rule(rule, H, samples=100_000, rng_seed=0):
    """Exact edge-ball scan in lexicographic order, or sampled falsification.

    Returns a CheckResult; a failed exact scan carries the lexicographically
    first violating configuration as witness.  An alphabet rule into a
    loopless target fails exactly at any radius: the first configuration,
    all tags zero, is the constant-seed certificate's.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _require_target_alphabet(rule, H)
    if rule.model.kind == "alphabet" and _loopless(H):
        cert = alphabet_impossibility_certificate(H, rule.d, rule.t, rule.model.q)
        witness = replay_certificate(cert, rule, H)
        return CheckResult(passed=False, exact=True, samples_checked=None, witness=witness)
    layout = rules.edge_ball_layout(rule.d, rule.t)
    try:
        rules.check_edge_budget(rule.d, rule.t, rule.model)
    except BudgetExceeded:
        exact = False
        rng = random.Random(rng_seed)
        configs = (_random_config(layout, rule.model, rng) for _ in range(samples))
    else:
        exact = True
        configs = rules.edge_configs(layout, rule.model)
    code_u, code_v = rules.edge_coders(rule.d, rule.t, rule.model)
    for config in configs:
        x, y = rule.table[code_u(config)], rule.table[code_v(config)]
        if not H.has_edge(x, y):
            return CheckResult(
                passed=False,
                exact=exact,
                samples_checked=None,
                witness=_witness_from_config(rule, config, (x, y)),
            )
    return CheckResult(
        passed=True, exact=exact, samples_checked=None if exact else samples, witness=None
    )


def replay_witness(rule, H, witness):
    """True when re-evaluating the rule on the witness reproduces the
    stored violating pair."""
    layout = rules.edge_ball_layout(witness.d, witness.t)
    cu, cv = rules.endpoint_codes(layout, witness.model, witness.config)
    x, y = rule.table[cu], rule.table[cv]
    return (x, y) == witness.outputs and not H.has_edge(x, y)


# ---------------------------------------------------------------------------
# the constant-seed collapse certificate


@dataclass(frozen=True)
class ConstantSeedCertificate:
    d: int
    t: int
    q: int
    config: tuple
    reasoning: tuple


def alphabet_impossibility_certificate(H, d, t, q):
    """Certificate that no alphabet-model rule is a homomorphism rule into a
    loopless target: the all-zero-tags edge-ball configuration."""
    if not _loopless(H):
        raise ValueError("target must be loopless")
    layout = rules.edge_ball_layout(d, t)
    return ConstantSeedCertificate(
        d=d,
        t=t,
        q=q,
        config=tuple(0 for _ in range(layout.size)),
        reasoning=(
            "all tags equal, so the two endpoint balls have identical canonical codes",
            "equal canonical codes force equal outputs at both endpoints",
            "the target has no loops, so the monochromatic pair is not an edge",
        ),
    )


def replay_certificate(cert, rule, H):
    """Run the certificate configuration against a candidate alphabet rule;
    returns the resulting ViolationWitness."""
    if rule.model != rules.alphabet(cert.q) or (rule.d, rule.t) != (cert.d, cert.t):
        raise ValueError("rule does not match the certificate class")
    layout = rules.edge_ball_layout(cert.d, cert.t)
    cu, cv = rules.endpoint_codes(layout, rule.model, cert.config)
    x, y = rule.table[cu], rule.table[cv]
    if x != y or H.has_edge(x, y):
        raise AssertionError("certificate replay did not produce a monochromatic non-edge")
    return _witness_from_config(rule, cert.config, (x, y))


# ---------------------------------------------------------------------------
# exhaustive search over rule tables


@dataclass
class SearchBudget:
    max_rules: int = 1_000_000
    witness_cap: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_rules < 1:
            raise ValueError(f"max_rules must be >= 1, got {self.max_rules}")


@dataclass
class SearchOutcome:
    kind: str  # Found | ExhaustedNone | ImpossibleByConstantSeeds | BudgetExceeded
    rules_examined: int
    rule: object = None
    witnesses: list = field(default_factory=list)  # (rule_index, ViolationWitness)
    caveat: str = ""
    certificate: ConstantSeedCertificate | None = None

    def to_json_dict(self):
        sample = [{"rule_index": idx, **w.to_json_dict()} for idx, w in self.witnesses[:10]]
        return jsonable(
            {
                "kind": self.kind,
                "rules_examined": self.rules_examined,
                "witnesses_stored": len(self.witnesses),
                "witness_sample": sample,
                "class_caveat": self.caveat,
                "certificate": None if self.certificate is None else asdict(self.certificate),
            }
        )


def _digits(index, base, n):
    """The n base-`base` digits of `index`, most significant first."""
    digits = []
    x = index
    for _ in range(n):
        x, digit = divmod(x, base)
        digits.append(digit)
    if x:
        raise ValueError(f"rule index {index} out of range")
    digits.reverse()
    return digits


def rule_table_at(codes, output_alphabet, index):
    """Rule table number `index` in mixed-radix order over the sorted
    canonical codes: codes[0] is the most significant digit."""
    digits = _digits(index, len(output_alphabet), len(codes))
    return {code: output_alphabet[digit] for code, digit in zip(codes, digits)}


def rule_at_cursor(d, t, model, output_alphabet, index):
    codes = rules.enumerate_canonical_balls(d, t, model)
    table = rule_table_at(codes, tuple(output_alphabet), index)
    return rules.make_rule(d, t, model, tuple(output_alphabet), table)


def search(H, d, t, model, budget=None, force_enumeration=False):
    """Scan the whole rule class for a homomorphism rule into H.

    Alphabet-model classes against loopless targets short-circuit to
    ImpossibleByConstantSeeds without enumeration (disable with
    force_enumeration to exercise the generic scan).  Refuted rules each
    get a witness; a reservoir sample of them is kept, and any rule's
    witness is reconstructible from its index via `rule_at_cursor`.
    """
    budget = budget or SearchBudget()
    caveat = class_caveat(d, t, model)
    if model.kind == "alphabet" and _loopless(H) and not force_enumeration:
        cert = alphabet_impossibility_certificate(H, d, t, model.q)
        return SearchOutcome(
            kind="ImpossibleByConstantSeeds",
            rules_examined=0,
            caveat=caveat,
            certificate=cert,
        )

    try:
        # the edge budget is cheap to check and refuses before the ball
        # enumeration, which can be large
        rules.check_edge_budget(d, t, model)
        codes = rules.enumerate_canonical_balls(d, t, model)
        pair_table = rules.edge_pair_table(d, t, model)
    except BudgetExceeded:
        return SearchOutcome(kind="BudgetExceeded", rules_examined=0, caveat=caveat)

    labels = tuple(range(H.n))
    L, n = len(labels), len(codes)
    total = L**n
    if total > budget.max_rules:
        return SearchOutcome(kind="BudgetExceeded", rules_examined=0, caveat=caveat)

    ball_index = {code: i for i, code in enumerate(codes)}
    # pair entries by first lexicographic occurrence; scanning them in this
    # order makes the first violating entry the lexicographically first
    # violating configuration
    entries = [
        (ball_index[cu], ball_index[cv], cfg) for _, cu, cv, cfg in pair_table.order
    ]
    # decided[p]: the entries whose pair is fixed once balls 0..p have outputs
    decided = [[] for _ in codes]
    for iu, iv, _ in entries:
        decided[max(iu, iv)].append((iu, iv))
    has_edge = H.has_edge

    def witness_at(index):
        outputs = _digits(index, L, n)
        for iu, iv, cfg in entries:
            a, b = outputs[iu], outputs[iv]
            if not has_edge(a, b):
                return ViolationWitness(d=d, t=t, model=model, config=cfg, outputs=(a, b))

    getrandbits = random.Random(budget.rng_seed).getrandbits
    cap = budget.witness_cap
    stored = []  # rule indices

    def refute(lo, hi):
        # Algorithm R over rules lo..hi-1, drawn as the module docstring
        # says.  Every rule before a Found one is refuted, so rule i is the
        # (i+1)-th refuted.  The bit width k of rule i's draw is the same
        # for every rule up to the next power of two.
        stored.extend(range(lo, min(hi, cap)))
        i = max(lo, cap)
        while i < hi:
            k = (i + 1).bit_length()
            end = min(hi, (1 << k) - 1)
            for i in range(i, end):
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                if j < cap:
                    stored[j] = i
            i = end

    def witnesses():
        return [(i, witness_at(i)) for i in stored]

    # depth-first walk over the digits, ball 0 most significant, so `index`
    # runs in rule_table_at order; `digits` are the outputs of rule `index`,
    # and balls before p decide no violation.  A violation decided at ball p
    # refutes the block of span[p] rules that share the prefix digits[:p+1].
    # Past the last ball every pair entry is an edge, so rule `index` maps
    # every edge-ball configuration to an edge: it is a homomorphism rule.
    span = [L ** (n - 1 - p) for p in range(n)]
    digits = [0] * n
    index = p = 0
    while index < total:
        while p < n and all(has_edge(digits[iu], digits[iv]) for iu, iv in decided[p]):
            p += 1
        if p == n:
            return SearchOutcome(
                kind="Found",
                rules_examined=index + 1,
                rule=rule_at_cursor(d, t, model, labels, index),
                witnesses=witnesses(),
                caveat=caveat,
            )
        refute(index, index + span[p])
        index += span[p]
        # the next prefix: add one at digit p, carrying into the balls before
        while p and digits[p] == L - 1:
            digits[p] = 0
            p -= 1
        digits[p] += 1

    return SearchOutcome(
        kind="ExhaustedNone",
        rules_examined=total,
        witnesses=witnesses(),
        caveat=caveat,
    )
