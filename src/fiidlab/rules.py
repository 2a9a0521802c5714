"""Equivariant finite-radius rules on the d-regular tree.

A rule reads the seed data in the radius-t ball around a vertex and emits a
label.  Equivariance is enforced structurally: the rule sees only a
canonical encoding of the seed-labeled rooted ball, so any two balls related
by a root-fixing automorphism (a permutation of sibling subtrees) look
identical to the rule.  A rule stores `outputs`, the label index of each
canonical ball in the class's sorted order: one `bytes` for at most 256
labels, else a tuple of ints; `table` is a {code: label} view.

Raw balls are nested tuples ``(label, (child, child, ...))``: the root has d
children, every deeper internal vertex has d-1, and leaves sit at depth t.
Seed models:

* alphabet:q  -- labels are tags in 0..q-1, i.i.d. uniform;
* rank        -- labels are distinct comparable seeds; only their relative
                 order within the ball matters (canonicalization replaces
                 them with ranks 1..ball_size);
* hybrid:q    -- labels are (seed, tag) pairs, combining both.

The ball kernel.  `canonicalize` and every hot loop (edge pair tables, Monte
Carlo, emulation, homomorphism scans) code balls the same way.  A ball is a
flat seed vector in level order: the root, its d children, then their
children parent by parent.  Each (d, t) template is compiled once, in
postorder, into one itemgetter per non-root internal vertex that reads its
label and its children's codes off a working list.
Labels are tags, ranks from one sort of the ball's seeds, or (rank, tag)
bytes; a vertex's code is its label bytes followed by its children's codes
sorted as bytes, so the root's code is the preorder byte string of the
sibling-sorted ball; sorted codes order rules and rule files.  A memo
interns the code of each non-root (label, child codes) key; root codes are
joined afresh, as at rank t=2 almost every root is new.  Seeds are validated
only at the public boundary (`canonicalize`, `evaluate`, `endpoint_codes`).

A canonical ball is its code, a plain `bytes`: `canonicalize` returns it,
and a class's canonical balls are one cached, sorted tuple of codes.  The
enumerations build codes directly, and the alphabet and rank ones build
them in sorted order with no class-wide sort.  An alphabet ball is a root
tag over a combination of sorted half-tree codes of one length, so the
combinations come in code order.  The rank codes over ranks 1..s are one
joined `bytes`: the root's child forests over ranks 1..s-1 are built once,
from relabelled subtree codes, and sorted under a root byte 0; each root
rank r then relabels them by one translate (0 to r, each rank from r up by
one).  An increasing relabelling keeps the order of codes and of siblings,
so the root ranks in turn give the class sorted.  A hybrid class puts a tag
after each rank byte of that joined pattern, one tag assignment at a time,
and is sorted once.  Nested labels are made only by `_decode`, which
turns a code back into its sibling-sorted ball.
"""

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, count, permutations, product
from math import factorial
from operator import itemgetter

from . import randbelow_bytes, randbelows, read_lines, write_lines

ALPHABET_ENUM_BUDGET = 10_000_000
RANK_BALL_LIMIT = 10


class RuleError(Exception):
    """Base class for rule construction and evaluation errors."""


class MalformedBall(RuleError):
    pass


class BudgetExceeded(RuleError):
    pass


class UnknownName(RuleError):
    pass


class IncompleteTable(RuleError):
    pass


# ---------------------------------------------------------------------------
# seed models


@dataclass(frozen=True)
class SeedModel:
    kind: str
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("alphabet", "rank", "hybrid"):
            raise ValueError(f"unknown seed model kind {self.kind!r}")
        if self.kind == "rank":
            if self.q is not None:
                raise ValueError("rank model takes no alphabet size")
        else:
            if not isinstance(self.q, int) or not 2 <= self.q <= 256:
                raise ValueError(f"alphabet size must be an int in 2..256, got {self.q!r}")

    def __str__(self):
        return self.kind if self.kind == "rank" else f"{self.kind}:{self.q}"

    @classmethod
    def parse(cls, token):
        """The model whose text is the token; ValueError on any other text,
        such as a size that int() reads but does not print, or padding."""
        token = str(token)
        if token == "rank":
            return cls("rank")
        for kind in ("alphabet", "hybrid"):
            if token.startswith(kind + ":"):
                # the size must be its own text: int() also reads " 3",
                # "+3", "03", "1_0" and non-ASCII digits
                size = token[len(kind) + 1:]
                try:
                    q = int(size)
                except ValueError:
                    break
                if size != str(q):
                    break
                return cls(kind, q)
        raise ValueError(f"cannot parse seed model {token!r}")


def alphabet(q):
    return SeedModel("alphabet", q)


def rank():
    return SeedModel("rank")


def hybrid(q):
    return SeedModel("hybrid", q)


# ---------------------------------------------------------------------------
# ball geometry


def subtree_size(d, depth):
    """Vertices in a depth-`depth` subtree whose internal vertices have d-1 children."""
    size = 1
    for _ in range(depth):
        size = 1 + (d - 1) * size
    return size


def check_degree_radius(d, t):
    """ValueError unless d >= 1 and t >= 0.  Every rule class and edge ball
    is built through this check: T_0 has no edge, and a negative radius no
    ball."""
    if d < 1 or t < 0:
        raise ValueError(f"need d >= 1 and t >= 0, got d={d}, t={t}")


def ball_size(d, t):
    """Vertices in the radius-t ball of the d-regular tree."""
    if t == 0:
        return 1
    return 1 + d * subtree_size(d, t - 1)


def _subtree_aut(d, depth):
    if depth == 0:
        return 1
    return factorial(d - 1) * _subtree_aut(d, depth - 1) ** (d - 1)


def ball_aut_order(d, t):
    """Order of the root-fixing automorphism group of the radius-t ball."""
    if t == 0:
        return 1
    return factorial(d) * _subtree_aut(d, t - 1) ** d


def rank_ball_count(d, t):
    """Number of canonical rank balls: orderings up to ball automorphisms."""
    return factorial(ball_size(d, t)) // ball_aut_order(d, t)


def _flatten(raw, d, t):
    """Seed vector of a raw ball in level order; MalformedBall on a bad shape."""
    seeds = []
    level = [raw]
    branching = d
    for depth in range(t, -1, -1):
        want = branching if depth > 0 else 0
        below = []
        for node in level:
            if (
                not isinstance(node, tuple)
                or len(node) != 2
                or not isinstance(node[1], tuple)
            ):
                raise MalformedBall(f"ball node must be (label, children), got {node!r}")
            if len(node[1]) != want:
                raise MalformedBall(
                    f"node at remaining depth {depth} has {len(node[1])} children, expected {want}"
                )
            seeds.append(node[0])
            below.extend(node[1])
        level = below
        branching = d - 1
    return seeds


def _check_seeds(seeds, model):
    """MalformedBall unless every seed fits the model: tags in range, rank
    seeds mutually comparable and distinct."""
    q = model.q
    if model.kind == "alphabet":
        for label in seeds:
            if not isinstance(label, int) or not 0 <= label < q:
                raise MalformedBall(f"alphabet tag {label!r} outside 0..{q - 1}")
        return
    if model.kind == "hybrid":
        for label in seeds:
            if not isinstance(label, tuple) or len(label) != 2:
                raise MalformedBall(f"hybrid label must be (seed, tag), got {label!r}")
            if not isinstance(label[1], int) or not 0 <= label[1] < q:
                raise MalformedBall(f"hybrid tag {label[1]!r} outside 0..{q - 1}")
        seeds = [label[0] for label in seeds]
    try:
        ordered = sorted(seeds)
    except TypeError as exc:
        raise MalformedBall(f"seeds are not mutually comparable: {exc}") from exc
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        raise MalformedBall("tied seeds in rank-model ball")
    if len(seeds) > 255:
        raise MalformedBall(f"{len(seeds)} ranks do not fit a code byte")


# ---------------------------------------------------------------------------
# the ball kernel (see the module docstring)


_BYTE = tuple(bytes((i,)) for i in range(256))
# (label bytes, child codes...) -> code of a non-root vertex.  Cleared when
# full: below the roots of deep rank balls most keys are new, so the memo
# must not grow with the number of balls coded.
_NODE_CODES = {}
_NODE_CODES_LIMIT = 1 << 14


def _getter(indices):
    """Like itemgetter(*indices), but always returns a tuple."""
    if len(indices) == 1:
        only = indices[0]
        return lambda seq: (seq[only],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _ball_template(d, t):
    """(size, program, root_children) of the radius-t ball over level-order
    positions.  `program` holds one getter per non-root internal vertex, in
    postorder; a vertex's code lands at index size + its program index of
    the working list, a leaf's code is its label at its own position."""
    children = [()]
    level = [0]
    for _ in range(t):
        below = []
        for p in level:
            first = len(children)
            kids = tuple(range(first, first + (d if p == 0 else d - 1)))
            children[p] = kids
            children.extend(() for _ in kids)
            below.extend(kids)
        level = below
    size = len(children)
    slot = list(range(size))
    program = []

    def visit(p):
        for c in children[p]:
            visit(c)
        if p and children[p]:
            program.append(_getter([p] + [slot[c] for c in children[p]]))
            slot[p] = size + len(program) - 1

    visit(0)
    return size, tuple(program), _getter([slot[c] for c in children[0]])


def _code(template, labels):
    """Code of the ball whose level-order label bytes are `labels` (a list
    the kernel extends with the codes of the internal vertices)."""
    _, program, root_children = template
    memo = _NODE_CODES
    for get in program:
        key = get(labels)
        code = memo.get(key)
        if code is None:
            if len(memo) >= _NODE_CODES_LIMIT:
                memo.clear()
            code = memo[key] = key[0] + b"".join(sorted(key[1:]))
        labels.append(code)
    return labels[0] + b"".join(sorted(root_children(labels)))


@lru_cache(maxsize=None)
def ball_coder(d, t, model):
    """Function from a level-order seed vector to its canonical code.

    The seeds are not validated: this is the kernel for configurations the
    library generates itself, whose rank seeds are distinct.
    """
    template = _ball_template(d, t)
    size = template[0]
    if model.kind == "alphabet":

        def code(seeds):
            return _code(template, [_BYTE[x] for x in seeds])

    elif model.kind == "rank":
        ranks = _BYTE[1:size + 1]

        def code(seeds):
            labels = [None] * size
            for r, i in zip(ranks, sorted(range(size), key=seeds.__getitem__)):
                labels[i] = r
            return _code(template, labels)

    else:
        # (seed, tag) pairs with distinct seeds sort by seed alone
        pair_bytes = [[bytes((r, tag)) for tag in range(model.q)] for r in range(size + 1)]

        def code(seeds):
            labels = [None] * size
            for r, i in enumerate(sorted(range(size), key=seeds.__getitem__), 1):
                labels[i] = pair_bytes[r][seeds[i][1]]
            return _code(template, labels)

    return code


@lru_cache(maxsize=None)
def _preorder_template(d, t):
    ids = count()

    def build(depth, branching):
        idx = next(ids)
        if depth == 0:
            return (idx, ())
        return (idx, tuple(build(depth - 1, d - 1) for _ in range(branching)))

    return build(t, d)


def _decode(code, d, t, kind):
    """Sibling-sorted nested labels of a canonical code."""
    labels = list(zip(code[::2], code[1::2])) if kind == "hybrid" else list(code)
    return fill_ball(_preorder_template(d, t), labels)


def canonicalize(raw, d, t, model):
    """Canonical code of a raw seed-labeled ball: the preorder byte string
    (one byte per label component) of the sibling-sorted ball, which is what
    rule tables are keyed by.  `_decode` gives the sorted ball back.

    Sibling subtrees are recursively sorted by their own code, and rank-model
    seeds are first replaced by the induced ranking restricted to the ball.
    Constant on orbits of root-fixing ball automorphisms, and the decoded
    code canonicalizes to itself.  MalformedBall on a bad shape or seed.
    """
    seeds = _flatten(raw, d, t)
    _check_seeds(seeds, model)
    return ball_coder(d, t, model)(seeds)


# ---------------------------------------------------------------------------
# enumeration of canonical balls, with orbit sizes


def check_enumeration_budget(d, t, model):
    B = ball_size(d, t)
    if model.kind == "alphabet":
        if model.q**B > ALPHABET_ENUM_BUDGET:
            raise BudgetExceeded(
                f"alphabet enumeration needs q^{B} = {model.q**B} > {ALPHABET_ENUM_BUDGET}"
            )
    elif B > RANK_BALL_LIMIT:
        raise BudgetExceeded(f"{model.kind} ball size {B} exceeds limit {RANK_BALL_LIMIT}")
    elif model.kind == "hybrid":
        count = rank_ball_count(d, t) * model.q**B
        if count > ALPHABET_ENUM_BUDGET:
            raise BudgetExceeded(
                f"hybrid enumeration needs {count} > {ALPHABET_ENUM_BUDGET} balls"
            )


@lru_cache(maxsize=None)
def _alphabet_subtree_types(d, depth, q):
    """Canonical half-trees of the given depth, whose internal vertices have
    d-1 children: sorted list of (code, count)."""
    return _alphabet_types(d, depth, q, d - 1)


def _alphabet_types(d, depth, q, branching):
    """Canonical subtrees of the given depth whose root has `branching`
    children and whose deeper internal vertices have d-1: sorted list of
    (code, count).  With branching d they are the balls of radius depth,
    which `enumerate_canonical_balls_weighted` keeps, so only the
    half-trees are cached here."""
    if depth == 0:
        return [(_BYTE[a], 1) for a in range(q)]
    prev = _alphabet_subtree_types(d, depth - 1, q)
    return [
        _assemble(a, combo, branching)
        for a in range(q)
        for combo in combinations_with_replacement(prev, branching)
    ]


def _assemble(root_label, combo, slots):
    """(code, count) from a root label and a nondecreasing tuple of child types."""
    mult = {}
    for code, _ in combo:
        mult[code] = mult.get(code, 0) + 1
    count = factorial(slots)
    for mcount in mult.values():
        count //= factorial(mcount)
    for _, child_count in combo:
        count *= child_count
    return _BYTE[root_label] + b"".join(code for code, _ in combo), count


def _block_partitions(elems, size):
    """Unordered partitions of `elems` into blocks of equal `size`,
    generated by anchoring the smallest remaining element."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for others in combinations(rest, size - 1):
        block = (first,) + others
        chosen = set(others)
        remaining = tuple(e for e in rest if e not in chosen)
        for tail in _block_partitions(remaining, size):
            yield (block,) + tail


def _split(joined, width, relabel=None):
    """`joined` cut into `width`-byte codes, after ranks 1..s are relabelled
    to the increasing tuple `relabel` if one is given."""
    if relabel is not None:
        joined = joined.translate(bytes((0, *relabel)).ljust(256, b"\0"))
    return [joined[i:i + width] for i in range(0, len(joined), width)]


def _rank_codes(size, d, depth):
    """Codes of all canonical subtrees over ranks 1..size, sorted and joined
    in one `bytes` as the module docstring says.  The root gets
    (size - 1) / subtree_size(d, depth - 1) children: d - 1 in a subtree,
    d when the ranks fill a whole ball of radius depth."""
    if depth == 0:
        return _BYTE[1]
    block = subtree_size(d, depth - 1)
    subtrees = _rank_pattern(block, d, depth - 1)
    pattern = b"".join(sorted(
        b"\0" + b"".join(sorted(parts))
        for blocks in _block_partitions(tuple(range(1, size)), block)
        for parts in product(*(_split(subtrees, block, b) for b in blocks))
    ))
    return b"".join(
        pattern.translate(bytes((r, *range(1, r), *range(r + 1, size + 1))).ljust(256, b"\0"))
        for r in range(1, size + 1)
    )


# cached for the subtree sizes the recursion asks for; a class's own codes are not
_rank_pattern = lru_cache(maxsize=None)(_rank_codes)


def _enumerate_hybrid(d, t, q):
    """Sorted codes of the canonical hybrid balls: each rank code with every
    tag assignment, each rank byte r followed by the tag of the vertex of
    rank r.  Sibling codes start with distinct rank bytes, so the tags leave
    the rank code's sibling order canonical."""
    B = ball_size(d, t)
    pattern = _rank_codes(B, d, t)
    buf = bytearray(2 * len(pattern))
    buf[0::2] = pattern
    codes = []
    for tags in product(range(q), repeat=B):
        buf[1::2] = pattern.translate(bytes((0, *tags)).ljust(256, b"\0"))
        codes += _split(bytes(buf), 2 * B)
    codes.sort()
    return codes


@lru_cache(maxsize=None)
def enumerate_canonical_balls_weighted(d, t, model):
    """All canonical balls with orbit sizes: (codes, counts, total).

    ``codes`` is the sorted tuple of canonical codes, ``counts[i]`` the
    number of raw seed configurations in the orbit of codes[i], and
    ``total`` the size of the raw configuration space, so counts[i]/total is
    the probability of the orbit under the seed model.  Cached per class.
    """
    check_degree_radius(d, t)
    check_enumeration_budget(d, t, model)
    B = ball_size(d, t)
    if model.kind == "alphabet":
        codes, counts = zip(*_alphabet_types(d, t, model.q, d))
        total = model.q**B
    else:
        if model.kind == "rank":
            codes = tuple(_split(_rank_codes(B, d, t), B))
            total = factorial(B)
        else:
            codes = tuple(_enumerate_hybrid(d, t, model.q))
            total = factorial(B) * model.q**B
        # every rank and hybrid orbit is free: its size is the group order
        counts = (ball_aut_order(d, t),) * len(codes)
    assert sum(counts) == total
    return codes, counts, total


def enumerate_canonical_balls(d, t, model):
    """Sorted tuple of the canonical codes, one per orbit of root-fixing
    ball automorphisms."""
    return enumerate_canonical_balls_weighted(d, t, model)[0]


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class LocalRule:
    """Total mapping from canonical balls of (d, t, model) to output labels:
    outputs[i] indexes in output_alphabet the label of the i-th code of
    enumerate_canonical_balls(d, t, model); `table` is a {code: label} view.

    Any sequence of indices is taken, and stored as `bytes` when the
    alphabet has at most 256 labels, else as a tuple, so one rule has one
    form whatever it was built from."""

    d: int
    t: int
    model: SeedModel
    output_alphabet: tuple
    outputs: bytes | tuple

    def __post_init__(self):
        n = len(enumerate_canonical_balls(self.d, self.t, self.model))
        k = len(self.output_alphabet)
        outputs = self.outputs
        valid = len(outputs) == n
        if valid and k <= 256:
            try:  # bytes() refuses what is not an int in 0..255
                outputs = bytes(outputs)
            except (TypeError, ValueError):
                valid = False
            else:  # deleting the k index bytes must leave nothing
                valid = not outputs.translate(None, bytes(range(k)))
        elif valid:
            outputs = tuple(outputs)
            valid = set(outputs) <= set(range(k))
        if not valid:
            raise ValueError(f"a rule of this class has {n} outputs, each an output alphabet index")
        object.__setattr__(self, "outputs", outputs)

    @cached_property
    def table(self):
        codes = enumerate_canonical_balls(self.d, self.t, self.model)
        return dict(zip(codes, map(self.output_alphabet.__getitem__, self.outputs)))


def check_output_alphabet(output_alphabet):
    """The alphabet as a tuple; ValueError on repeats, none, or a label that
    a rule file cannot carry: its text must be nonempty ASCII without space
    or comma, and read back as the label itself."""
    alpha = tuple(output_alphabet)
    if len(alpha) != len(set(alpha)) or not alpha:
        raise ValueError("output alphabet must be nonempty without repeats")
    for label in alpha:
        text = str(label)
        if not text or any(ch.isspace() or ch == "," for ch in text):
            raise ValueError(f"label {label!r} not serializable (space or comma)")
        if not text.isascii() or _parse_label(text) != label:
            raise ValueError(f"label {label!r} not serializable (non-ASCII or not read back)")
    return alpha


def make_rule(d, t, model, output_alphabet, table):
    """Validated LocalRule; the table must cover every canonical ball."""
    alpha = check_output_alphabet(output_alphabet)
    codes = enumerate_canonical_balls(d, t, model)
    table = dict(table)  # a plain dict: a subclass could answer a missing code
    try:  # one lookup per code, where a check and a conversion would take two
        labels = list(map(table.__getitem__, codes))
    except KeyError:
        covered = sum(map(table.__contains__, codes))
        raise IncompleteTable(f"table covers {covered} of {len(codes)} canonical balls") from None
    # every code is covered, so the keys beyond them are unknown
    if len(table) > len(codes):
        raise ValueError(f"table has {len(table) - len(codes)} entries for unknown balls")
    bad = set(labels) - set(alpha)
    if bad:
        raise ValueError(f"table outputs {bad} outside the output alphabet")
    position = {label: i for i, label in enumerate(alpha)}
    return LocalRule(d, t, model, alpha, tuple(map(position.__getitem__, labels)))


def evaluate(rule, raw):
    """Output of the rule at the root of a raw seed-labeled ball."""
    return rule.table[canonicalize(raw, rule.d, rule.t, rule.model)]


def builtin_rule(name, **params):
    """Built-in rules: constant, max_seed_independent."""
    if name == "constant":
        label = params["label"]
        d = params.get("d", 3)
        out = tuple(params.get("output_alphabet") or (label,))
        codes = enumerate_canonical_balls(d, 0, rank())
        return make_rule(d, 0, rank(), out, dict.fromkeys(codes, label))
    if name == "max_seed_independent":
        d = params.get("d", 3)
        codes = enumerate_canonical_balls(d, 1, rank())
        return LocalRule(d, 1, rank(), ("IN", "OUT"), tuple(int(c[0] != d + 1) for c in codes))
    raise UnknownName(f"unknown builtin rule {name!r}")


def random_rule(d, t, model, output_alphabet, rng_seed):
    """Independent uniform output per canonical ball; deterministic per seed."""
    n = len(enumerate_canonical_balls(d, t, model))
    alpha = check_output_alphabet(output_alphabet)
    draw = randbelow_bytes if len(alpha) <= 255 else randbelows
    return LocalRule(d, t, model, alpha, draw(random.Random(rng_seed), len(alpha), n))


# ---------------------------------------------------------------------------
# rule serialization: header "d t model output_alphabet", then one
# "<canonical_code_hex> <label>" line per canonical ball, in class order.
# A file is written from the line generator that rule_to_text joins, and
# read line by line by the parser that rule_from_text runs on its text.
# The reader accepts exactly what the writer writes: the codes in class order,
# each label one of the header's texts, each header text its label's own.


def _parse_label(text):
    """An int for an ASCII digit string, optionally negative; else the text."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else text


def _rule_lines(rule):
    texts = tuple(map(str, rule.output_alphabet))
    yield f"{rule.d} {rule.t} {rule.model} {','.join(texts)}\n"
    codes = enumerate_canonical_balls(rule.d, rule.t, rule.model)
    ends = tuple(f" {text}\n" for text in texts)
    for code, i in zip(codes, rule.outputs):
        yield code.hex() + ends[i]


def rule_to_text(rule):
    return "".join(_rule_lines(rule))


def _rule_from_lines(lines):
    """Parse a rule file's lines in one pass over the class's codes, skipping
    blank lines; ValueError naming the line on a bad header, a line that is
    not the next code and a header label, or a line missing or extra."""
    rows = ((n, fields) for n, fields in enumerate(map(str.split, lines), 1) if fields)
    n, head = next(rows, (1, []))
    try:  # d, t and the model must each read back as its own text
        d, t, model = int(head[0]), int(head[1]), SeedModel.parse(head[2])
        canonical = len(head) == 4 and [str(d), str(t), str(model)] == head[:3]
    except (IndexError, ValueError):
        canonical = False
    if not canonical:
        raise ValueError(f"line {n}: bad rule header {' '.join(head)!r}")
    texts = head[3].split(",")
    out = check_output_alphabet(map(_parse_label, texts))
    if list(map(str, out)) != texts:
        raise ValueError(f"line {n}: header labels {head[3]!r} are not the texts of {out!r}")
    index = {label_text: i for i, label_text in enumerate(texts)}
    codes = enumerate_canonical_balls(d, t, model)
    outputs = []
    for code, (n, fields) in zip(codes, rows):
        i = index.get(fields[-1])
        if len(fields) != 2 or fields[0] != code.hex() or i is None:
            raise ValueError(f"line {n}: expected '{code.hex()} <header label>', got {' '.join(fields)!r}")
        outputs.append(i)
    extra = next(rows, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: extra line past the {len(codes)} canonical balls")
    if len(outputs) < len(codes):
        raise ValueError(f"line {n + 1}: missing, only {len(outputs)} of {len(codes)} balls")
    return LocalRule(d, t, model, out, outputs)


def rule_from_text(text):
    return _rule_from_lines(text.splitlines())


def save_rule(rule, path):
    with open(path, "w", encoding="ascii") as fh:
        write_lines(fh, _rule_lines(rule))


def load_rule(path):
    with open(path, "r", encoding="ascii") as fh:
        return _rule_from_lines(read_lines(fh))


# ---------------------------------------------------------------------------
# edge balls: the union of the two endpoint balls of a fixed tree edge.
# Vertex ids are assigned u=0, v=1, then u-side subtrees preorder, then
# v-side subtrees preorder; a configuration is a flat tuple over these ids.
# u_ids and v_ids list each endpoint ball's ids in level order, the order of
# the kernel's seed vectors.


@dataclass(frozen=True)
class EdgeBallLayout:
    d: int
    t: int
    size: int
    u_template: tuple
    v_template: tuple
    u_ids: tuple
    v_ids: tuple


def _truncate(template, depth):
    if depth < 0:
        return None
    idx, children = template
    if depth == 0:
        return (idx, ())
    kept = tuple(_truncate(c, depth - 1) for c in children)
    return (idx, tuple(c for c in kept if c is not None))


def _level_ids(template):
    """Ids of a nested id template in level order."""
    ids, level = [], [template]
    while level:
        ids.extend(node[0] for node in level)
        level = [c for node in level for c in node[1]]
    return tuple(ids)


@lru_cache(maxsize=None)
def edge_ball_layout(d, t):
    check_degree_radius(d, t)
    counter = [2]

    def build(depth):
        idx = counter[0]
        counter[0] += 1
        if depth == 0:
            return (idx, ())
        return (idx, tuple(build(depth - 1) for _ in range(d - 1)))

    u_subs = tuple(build(t - 1) for _ in range(d - 1)) if t >= 1 else ()
    v_subs = tuple(build(t - 1) for _ in range(d - 1)) if t >= 1 else ()

    if t == 0:
        u_template = (0, ())
        v_template = (1, ())
    else:
        v_as_child = (1, tuple(
            c for c in (_truncate(s, t - 2) for s in v_subs) if c is not None
        ))
        u_as_child = (0, tuple(
            c for c in (_truncate(s, t - 2) for s in u_subs) if c is not None
        ))
        u_template = (0, (v_as_child,) + u_subs)
        v_template = (1, (u_as_child,) + v_subs)

    return EdgeBallLayout(
        d=d,
        t=t,
        size=counter[0],
        u_template=u_template,
        v_template=v_template,
        u_ids=_level_ids(u_template),
        v_ids=_level_ids(v_template),
    )


def fill_ball(template, config):
    """Nested ball from an id template and a flat vector indexed by its ids."""
    idx, children = template
    return (config[idx], tuple(fill_ball(c, config) for c in children))


def edge_configs(layout, model):
    """All edge-ball seed configurations in lexicographic order.

    alphabet: tag tuples; rank: rank tuples (permutations of 1..size);
    hybrid: ((rank, tag), ...) tuples, ranks major.
    """
    if model.kind == "alphabet":
        yield from product(range(model.q), repeat=layout.size)
    elif model.kind == "rank":
        yield from permutations(range(1, layout.size + 1))
    else:
        for ranks in permutations(range(1, layout.size + 1)):
            for tags in product(range(model.q), repeat=layout.size):
                yield tuple(zip(ranks, tags))


def check_edge_budget(d, t, model):
    """Feasibility of exact edge-ball enumeration for (d, t, model): the
    configurations `edge_configs` yields over S seeds, q^S, S! or S! q^S,
    are at most ALPHABET_ENUM_BUDGET.  S! alone passes it past S =
    RANK_BALL_LIMIT, where the factorial stops rather than build a huge int.
    Only the homomorphism scans enumerate the edge ball; the exact laws
    need only `check_enumeration_budget`."""
    layout = edge_ball_layout(d, t)
    S = layout.size
    orders = 1 if model.kind == "alphabet" else factorial(min(S, RANK_BALL_LIMIT + 1))
    if orders * (model.q or 1) ** S > ALPHABET_ENUM_BUDGET:
        raise BudgetExceeded(
            f"{model} edge ball of {S} seeds has over {ALPHABET_ENUM_BUDGET} configurations"
        )
    return layout


@lru_cache(maxsize=None)
def edge_coders(d, t, model):
    """(code_u, code_v): functions from an edge-ball configuration to the
    canonical code of one endpoint ball.  Unvalidated, like `ball_coder`."""
    layout = edge_ball_layout(d, t)
    code = ball_coder(d, t, model)
    get_u, get_v = _getter(layout.u_ids), _getter(layout.v_ids)
    return (lambda config: code(get_u(config))), (lambda config: code(get_v(config)))


def endpoint_codes(layout, model, config):
    """Canonical codes of the two endpoint balls under a configuration."""
    if len(config) != layout.size:
        raise MalformedBall(
            f"edge-ball configuration has {len(config)} seeds, expected {layout.size}"
        )
    sides = [[config[i] for i in ids] for ids in (layout.u_ids, layout.v_ids)]
    for seeds in sides:
        _check_seeds(seeds, model)
    code = ball_coder(layout.d, layout.t, model)
    return code(sides[0]), code(sides[1])


@dataclass(frozen=True)
class EdgePairTable:
    """Exact joint law of the two endpoint canonical balls across an edge.

    ``counts`` maps (code_u, code_v) to the number of configurations
    realizing it; ``order`` lists the pairs by first lexicographic
    occurrence, each with its first configuration.
    """

    total: int
    counts: dict
    order: tuple  # ((code_u, code_v, config), ...)


@lru_cache(maxsize=None)
def edge_pair_table(d, t, model):
    layout = check_edge_budget(d, t, model)
    code_u, code_v = edge_coders(d, t, model)
    counts, order = {}, []
    for config in edge_configs(layout, model):
        pair = (code_u(config), code_v(config))
        if pair in counts:
            counts[pair] += 1
        else:
            counts[pair] = 1
            order.append((*pair, config))
    return EdgePairTable(total=sum(counts.values()), counts=counts, order=tuple(order))
