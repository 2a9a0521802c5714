"""Search for homomorphism rules into a finite target graph.

A rule is a homomorphism rule when, for every seed configuration of the
edge ball, the two endpoint outputs form an edge of the target.  Both entry
points answer by one rule, for every seed model: they scan when the class
fits the budgets, and past a budget they answer with the impossibility
certificate below where one exists, and BudgetExceeded where none does.  The
checker scans the configurations in lexicographic order; the search
enumerates whole rule tables in mixed-radix order over the canonical balls.

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
rules are those of one randrange call per rule.  From bit width 16 on the
draws come from whole 32-bit words taken in bulk: getrandbits(k) for
k <= 32 is the top k bits of the generator's next 32-bit output, and
getrandbits(32 * m) is its next m outputs, the first in the low bits.  So
the words, read in order, give each rule the values of its own getrandbits
calls, and the stored rules do not change; the generator only runs ahead
of the last rule by words that no draw of the search reads.

The impossibility certificate.  At d >= 2 no finite-radius rule maps into
a loopless target; the same argument rules out finite-radius colorings of
Z^d (Holroyd, Schramm and Wilson, Finitary coloring, Ann. Probab. 2017).
Run an axis ... -> w -> u -> v -> b -> ... through the edge, where w is the
root of u's first side subtree and b that of v's, each continued through
first children, and give its vertices positions p (u = 0, v = 1).  A vertex
at distance delta from its axis projection at position p gets the key
(delta - p, p, child-index path from the axis); delta - p is a Busemann
function of the axis.  The certificate configuration ranks the edge ball in
key order (rank), adds tag 0 to each rank (hybrid), or sets every tag to 0
(alphabet).  The translation one step along the axis maps u to v and
ball(u) onto ball(v), and adds (-1, +1) to the first two key entries of
every vertex, so it keeps the order.  Hence the two endpoint balls have the
same canonical code, every rule gives both endpoints the same label, and
that pair is not an edge of a loopless target.  The configuration has
positive probability, so no rule of the class is a homomorphism rule.  At
d = 1 there is no axis beyond the edge: the endpoint codes differ for
t >= 1, and the constructor refuses.  The certificate is replayable against
any rule of its class.

Every exhaustion result is relative to the searched finite-radius class;
outcome reports carry that caveat verbatim.
"""

import random
from dataclasses import dataclass, field

from . import draw_words, rules
from .rules import BudgetExceeded


def class_caveat(d, t, model):
    return (
        f"exhaustion covers only finite-radius rules with d={d}, t={t}, "
        f"model={model}; rules of larger radius or other seed models are not excluded"
    )


@dataclass(frozen=True)
class ViolationWitness:
    """An edge-ball seed configuration on which a rule outputs a non-edge."""

    config: tuple
    outputs: tuple


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: ViolationWitness | None


def is_homomorphism_rule(rule, H):
    """Exact answer by the module's rule: a scan of the edge ball in
    lexicographic order, whose witness is the first violating configuration,
    or past the edge budget the certificate, whose witness is its own."""
    if set(rule.output_alphabet) != set(range(H.n)):
        raise ValueError("rule output alphabet must equal the target vertex set 0..n-1")
    try:
        layout = rules.check_edge_budget(rule.d, rule.t, rule.model)
    except BudgetExceeded:
        cert = _certificate_or_none(H, rule.d, rule.t, rule.model)
        if cert is None:
            raise
        return CheckResult(passed=False, witness=replay_certificate(cert, rule, H))
    code_u, code_v = rules.edge_coders(rule.d, rule.t, rule.model)
    for config in rules.edge_configs(layout, rule.model):
        x, y = rule.table[code_u(config)], rule.table[code_v(config)]
        if not H.has_edge(x, y):
            return CheckResult(passed=False, witness=ViolationWitness(config, (x, y)))
    return CheckResult(passed=True, witness=None)


def replay_witness(rule, H, witness):
    """True when re-evaluating the rule on the witness reproduces the
    stored violating pair."""
    layout = rules.edge_ball_layout(rule.d, rule.t)
    cu, cv = rules.endpoint_codes(layout, rule.model, witness.config)
    x, y = rule.table[cu], rule.table[cv]
    return (x, y) == witness.outputs and not H.has_edge(x, y)


# ---------------------------------------------------------------------------
# the impossibility certificate (see the module docstring)


@dataclass(frozen=True)
class ImpossibilityCertificate:
    d: int
    t: int
    model: rules.SeedModel
    config: tuple
    reasoning: tuple


def _axis_keys(layout):
    """{vertex id: (delta - p, p, child-index path)} over the edge ball, for
    the axis of the module docstring."""
    keys = {}

    def visit(node, p, step, delta, path):
        keys[node[0]] = (delta - p, p, path)
        kids = node[1]
        if not delta and kids:  # an axis vertex: its first child goes on
            visit(kids[0], p + step, step, 0, ())
            kids = kids[1:]
        for j, kid in enumerate(kids):
            visit(kid, p, step, delta + 1, path + (j,))

    # each endpoint's first child in its template is the other endpoint
    for (root, kids), p, step in ((layout.u_template, 0, -1), (layout.v_template, 1, 1)):
        visit((root, kids[1:]), p, step, 0, ())
    return keys


class NoCertificate(ValueError):
    """The impossibility certificate does not exist for the class and target."""


def impossibility_certificate(H, d, t, model):
    """Certificate that no rule of the class is a homomorphism rule into the
    loopless target H: an edge-ball configuration on which both endpoint
    balls have the same canonical code.  NoCertificate when H has a loop,
    when a rank or hybrid ball has more vertices than a code byte holds
    ranks, or when the two codes differ (at d = 1, t >= 1)."""
    if any(H.has_edge(v, v) for v in range(H.n)):
        raise NoCertificate("target must be loopless")
    rules.check_degree_radius(d, t)
    size = rules.ball_size(d, t)
    if model.kind != "alphabet" and size > 255:
        raise NoCertificate(
            f"no impossibility certificate for {model} at d={d}, t={t}: "
            f"its balls have {size} vertices, more ranks than a code byte holds (255)"
        )
    layout = rules.edge_ball_layout(d, t)
    if model.kind == "alphabet":
        config = (0,) * layout.size
        first = "all tags equal, so the two endpoint balls have identical canonical codes"
    else:
        keys = _axis_keys(layout)
        rank = {i: r for r, i in enumerate(sorted(keys, key=keys.__getitem__), 1)}
        config = tuple(
            rank[i] if model.kind == "rank" else (rank[i], 0) for i in range(layout.size)
        )
        first = (
            "seeds ordered along an axis through the edge, so the translation along it "
            "carries ball(u) onto ball(v) and the two endpoint balls have identical "
            "canonical codes"
        )
    code_u, code_v = rules.endpoint_codes(layout, model, config)
    if code_u != code_v:
        raise NoCertificate(
            f"no impossibility certificate for {model} at d={d}, t={t}: "
            "the axis configuration gives the endpoint balls different codes"
        )
    return ImpossibilityCertificate(
        d=d,
        t=t,
        model=model,
        config=config,
        reasoning=(
            first,
            "equal canonical codes force equal outputs at both endpoints",
            "the target has no loops, so the monochromatic pair is not an edge",
        ),
    )


def _certificate_or_none(H, d, t, model):
    """The answer past a budget: the class's impossibility certificate, or
    None where none exists."""
    try:
        return impossibility_certificate(H, d, t, model)
    except NoCertificate:
        return None


def replay_certificate(cert, rule, H):
    """Run the certificate configuration against a candidate rule of its
    class; returns the resulting ViolationWitness."""
    if (rule.d, rule.t, rule.model) != (cert.d, cert.t, cert.model):
        raise ValueError("rule does not match the certificate class")
    layout = rules.edge_ball_layout(cert.d, cert.t)
    cu, cv = rules.endpoint_codes(layout, rule.model, cert.config)
    x, y = rule.table[cu], rule.table[cv]
    if x != y or H.has_edge(x, y):
        raise AssertionError("certificate replay did not produce a monochromatic non-edge")
    return ViolationWitness(cert.config, (x, y))


# ---------------------------------------------------------------------------
# exhaustive search over rule tables


@dataclass
class SearchBudget:
    max_rules: int = 1_000_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_rules < 1:
            raise ValueError(f"max_rules must be >= 1, got {self.max_rules}")


@dataclass
class SearchOutcome:
    kind: str  # Found | ExhaustedNone | Impossible | BudgetExceeded
    rules_examined: int
    rule: object = None
    witnesses: list = field(default_factory=list)  # (rule_index, ViolationWitness)
    caveat: str = ""
    certificate: ImpossibilityCertificate | None = None


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


def rule_at_cursor(d, t, model, output_alphabet, index):
    """Rule `index` of the class in mixed-radix order, ball 0 the most significant digit."""
    alpha = rules.check_output_alphabet(output_alphabet)
    n = len(rules.enumerate_canonical_balls(d, t, model))
    return rules.LocalRule(d, t, model, alpha, _digits(index, len(alpha), n))


# the witness reservoir (see the module docstring)

# the most refuted rules whose witnesses a search keeps
WITNESS_CAP = 1000
_BUFFER_WORDS = 1 << 13
# From this bit width on, rules go by windows: with fewer rules per window
# the per-window set-up costs more than the draws it saves.
_WINDOW_WIDTH = 16
# a class of this many rules draws more than 32 bits for its last rule
_TWO_WORDS = (1 << 32) - 1


class _Reservoir:
    """Algorithm R over the refuted rules of one search, in order of index.

    Below bit width _WINDOW_WIDTH each draw is one getrandbits call.  From
    it on, the draws come from a buffer of whole 32-bit words, the value of
    rule i's draw being the top k = (i + 1).bit_length() bits of a word.
    Rules go by windows of 2**(k - 8) indices that share a word's top byte
    b as their own: every index of window c has top byte c.  So a word with
    b < c is a value below every rule of the window (accepted), one with
    b > c a value above them all (drawn again); only the words with b == c,
    and those whose value may be a slot below cap, are looked at whole.
    translate sorts the buffered words into these three classes, and
    bytes.count and find step over the sure ones.  Indices only grow, so
    no buffered word is left when the per-call draws of a narrower width
    would run; a class of _TWO_WORDS or more rules keeps the per-call
    draws throughout, since its widest draws take two words.
    """

    def __init__(self, rng_seed, cap, total):
        self.rng = random.Random(rng_seed)
        self.cap = cap
        self.stored = []  # rule indices
        self.windowed = total < _TWO_WORDS
        self.words = self.tops = b""  # the buffer, and each word's top byte
        self.pos = 0  # the first buffered word not drawn
        self.classes = (None, None)  # ((k, c), translate table) of the last window

    def refute(self, lo, hi):
        """Refute rules lo..hi-1: lo is the number of rules refuted before."""
        cap, stored = self.cap, self.stored
        stored.extend(range(lo, min(hi, cap)))
        i = max(lo, cap)
        while i < hi:
            # the bit width k of rule i's draw is the same for every rule up
            # to the next power of two
            k = (i + 1).bit_length()
            end = min(hi, (1 << k) - 1)
            if k < _WINDOW_WIDTH or not self.windowed:
                getrandbits = self.rng.getrandbits
                for i in range(i, end):
                    j = getrandbits(k)
                    while j > i:
                        j = getrandbits(k)
                    if j < cap:
                        stored[j] = i
            else:
                while i < end:
                    i = self._window(i, end, k)
            i = end

    def _table(self, k, c):
        """The class of each top byte in window c of width k: b"A" for a
        value below every rule and cap, b"R" for one above every rule, b"L"
        for a word to look at."""
        key, table = self.classes
        if key != (k, c):
            # values with top byte b < ceil(cap / 2**(k - 8)) may be slots
            low = min((self.cap + (1 << (k - 8)) - 1) >> (k - 8), c)
            table = b"L" * low + b"A" * (c - low) + b"L" + b"R" * (255 - c)
            self.classes = (k, c), table
        return table

    def _window(self, i, end, k):
        """Draw for rules i.. of width k up to end or the end of i's window;
        returns the next rule index."""
        step = k - 8
        c = i >> step
        stop = min(end, (c + 1) << step)
        table = self._table(k, c)
        shift, cap, stored = 32 - k, self.cap, self.stored
        while i < stop:
            if self.pos == len(self.tops):
                self.words = draw_words(self.rng, _BUFFER_WORDS)
                self.tops = self.words[3::4]
                self.pos = 0
            pos = self.pos
            # a rule takes at most two words on average, so this segment
            # seldom ends before the window does
            seg = self.tops[pos : pos + 2 * (stop - i) + 64].translate(table)
            q, n = 0, len(seg)
            while True:
                look = seg.find(b"L", q)
                if look < 0:
                    look = n
                need = stop - i
                sure = seg.count(b"A", q, look)
                if sure >= need:
                    q = _after_nth(seg, b"A", q, look, need)
                    i = stop
                    break
                i += sure
                q = look
                if q == n:
                    break
                w = 4 * (pos + q)
                j = int.from_bytes(self.words[w : w + 4], "little") >> shift
                q += 1
                if j <= i:
                    if j < cap:
                        stored[j] = i
                    i += 1
                    if i == stop:
                        break
            self.pos = pos + q
        return i


def _after_nth(seg, x, lo, hi, count):
    """The least p with seg.count(x, lo, p) == count, where seg[lo:hi] holds
    at least count bytes x: one past the count-th x from lo."""
    p, q = lo + count, hi
    while p < q:
        mid = (p + q) // 2
        if seg.count(x, lo, mid) < count:
            p = mid + 1
        else:
            q = mid
    return p


def search(H, d, t, model, budget=None, force_enumeration=False):
    """Scan the whole rule class for a homomorphism rule into H.

    A class within the edge budget and within budget.max_rules is scanned.
    Past either budget the outcome is Impossible, with the class's
    certificate, or BudgetExceeded where no certificate exists or
    force_enumeration is set.  Refuted rules each get a witness; a
    reservoir sample of WITNESS_CAP of them is kept, and any rule's
    witness is reconstructible from its index via `rule_at_cursor`.
    """
    budget = budget or SearchBudget()
    caveat = class_caveat(d, t, model)

    def past_budget():
        cert = None if force_enumeration else _certificate_or_none(H, d, t, model)
        kind = "BudgetExceeded" if cert is None else "Impossible"
        return SearchOutcome(kind=kind, rules_examined=0, caveat=caveat, certificate=cert)

    try:
        rules.check_edge_budget(d, t, model)
    except BudgetExceeded:
        return past_budget()
    # the edge ball holds the ball, so its enumeration is within budget too
    codes = rules.enumerate_canonical_balls(d, t, model)
    labels = tuple(range(H.n))
    L, n = len(labels), len(codes)
    total = L**n
    if total > budget.max_rules:
        return past_budget()

    pair_table = rules.edge_pair_table(d, t, model)
    ball_index = {code: i for i, code in enumerate(codes)}
    # pair entries by first lexicographic occurrence; scanning them in this
    # order makes the first violating entry the lexicographically first
    # violating configuration
    entries = [(ball_index[cu], ball_index[cv], cfg) for cu, cv, cfg in pair_table.order]
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
                return ViolationWitness(cfg, (a, b))

    reservoir = _Reservoir(budget.rng_seed, WITNESS_CAP, total)
    refute, stored = reservoir.refute, reservoir.stored

    def witnesses():
        return [(i, witness_at(i)) for i in stored]

    # depth-first walk over the digits, ball 0 most significant, so `index`
    # runs in rule_at_cursor order; `digits` are the outputs of rule `index`,
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
                rule=rules.LocalRule(d, t, model, labels, digits),
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
