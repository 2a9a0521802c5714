"""Label marginals of a rule on the d-regular tree and entropy audits.

A law stores `counts` over one `denominator`.  An exact law counts seed
configurations (or orders) as ints over their total, and its `p`, `probs`
and `mass` are Fraction views; a Monte Carlo law holds float masses over 1.
The exact vertex law is the marginal of the exact pair law.  No pair law
enumerates the edge ball (the union of the two endpoint balls); each splits
it instead.

Alphabet seeds.  Split the edge ball (u, v) into two disjoint half-trees:
A, u with its d-1 subtrees away from v, to depth t, and B, the same at v.
Their seeds are independent.  Write A' and B' for A and B cut to depth t-1.
The ball of u is A with B' as the root's d-th child, so its code is A's root
byte followed by the codes of A's children and of B', sorted as bytes (all d
have the same shape).  Hence

    P(a, b) = sum over (A', B') of g(A', B', a) * g(B', A', b),
    g(A', B', a) = sum over types A cut to A' of c_A * [rule(code(A, B')) = a],

over q^(2|A|), where c_A counts the seed configurations of type A.  The
rule-independent (A', B') cells are built once per (d, t, q) from the
half-tree types of `rules._alphabet_subtree_types`; a rule costs one pass
over their N_t * N_(t-1) entries, not q^(edge ball size) configurations.
At t=0, A is the vertex alone and B' is empty.

The same sum runs by label class.  Each canonical ball gets a packed
column: its multiplicity in each cell (A', B'), the sum of c_A over the
types A cut to A' that give that ball with B', in a byte-aligned
little-endian field per cell, as wide as the largest cell total needs.  The
columns of the balls a rule labels a add, field by field without a carry,
to M_a[A', B'] = g(A', B', a); the last label's M is the class total less
the others.  Then

    P(a, b) = sum over (A', B') of M_a[A', B'] * M_b[B', A'],

one sum of products over the cells per pair of labels.  The dict form
above costs one step per (ball, count) entry and about min(k, e)^2 per
cell for k labels and e = N_t / N_(t-1) half-tree types per cell; the
label-class form costs one add of a packed column per ball and k^2 / 2
products per cell.  So it runs for rules of at most min(16, e) labels on
classes whose packed column takes at most 1 KiB, and the dict form for
every other rule: many labels (alphabet:3 t=2 crosses over near 50), few
types per cell (d=2, where e = q), and wide grids (alphabet:2 t=3, 1,764
cells of two bytes), where the columns also cost memory on every ball.

Rank and hybrid seeds: core interleavings.  Let K = ball(u) & ball(v) be
the core (k vertices), U the vertices only u sees and V those only v sees,
and S the edge-ball size.  The seeds' order is uniform over S! orders and
the tags over q^S (q = 1 for rank).  An order of the edge ball restricts to
an order sigma of K and to orders of K+U and of K+V that extend sigma.  Let
n and m count the U and the V vertices in each of the k+1 gaps of sigma.
The orders of the edge ball that restrict to two given ones interleave U
and V within each gap, so there are prod_i C(n_i + m_i, n_i) of them, and

    P(a, b) = 1/(S! q^S) * sum over (sigma, core tags) of
              sum_(n, m) F_a[n] * prod_i C(n_i + m_i, n_i) * G_b[m],

where F_a[n] counts the orders of K+U (with U tags) that extend sigma, have
gap vector n and whose u-ball code the rule maps to a; G_b[m] likewise at v.
Vandermonde's identity C(n + m, n) = sum_j C(n, j) * C(m, j) splits the
kernel: the inner sum is sum_j F'_a[j] * G'_b[j], where
F'[j] = sum over n >= j of prod_i C(n_i, j_i) * F[n], so a rule lifts each
count into the j below its gap vector and never forms the kernel.  Three
symmetries keep the rule-independent (sigma, core tags, n) cells small:

* the flip u_ids[i] -> v_ids[i] of `rules.edge_ball_layout` maps the v-ball
  onto the u-ball and K onto itself, so G for sigma is F for sigma composed
  with the flip: only the u side is built;
* the sibling permutations inside K are automorphisms of both balls that
  fix K, so F is constant on their orbits, and the sum runs over the pairs
  (orbit of sigma, orbit of the flipped sigma), with multiplicities;
* the sibling permutations inside U fix K pointwise, so each cell keeps one
  order per orbit (ranks increasing along each sibling group), weighted by
  the group order.

At d=3, t=2 that is 180 core orbits, 210 gap vectors and 226,800 coded
balls, where the edge ball has 14! orders.  The build codes B! q^B / |group|
balls of size B, so the pair law needs only the vertex law's budget.

Monte Carlo marginals are plug-in empirical laws from i.i.d. edge-ball
samples, deterministic per seed via fixed-size blocks with derived
substreams.  At rank t=1 only each root's rank in its closed ball matters;
that path draws a chunk of samples' uniforms in one run and compares them
in bulk, making the same random() calls in the same order as the generic
path, so both give the same counts, in the same key order, and leave the
generator in the same state.

All entropies are in nats.
"""

import hashlib
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, permutations, product, repeat
from operator import add, eq, le, lt, mul

from . import graphs, randbelows, rules
from .rules import BudgetExceeded


class EntropyError(Exception):
    pass


class InvalidDistribution(EntropyError):
    pass


class InconsistentMarginals(EntropyError):
    pass


class CTooLarge(EntropyError):
    pass


class Overflow(EntropyError):
    pass


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Provenance:
    kind: str  # "exact" | "monte_carlo"
    n_samples: int | None = None


EXACT = Provenance("exact")


def monte_carlo(n_samples):
    return Provenance("monte_carlo", n_samples)


def _check_sum(total, law):
    """InvalidDistribution unless the counts sum to the denominator: exactly
    for an exact law, to 1e-9 for a Monte Carlo one."""
    if abs(total - law.denominator) > (0 if law.provenance.kind == "exact" else 1e-9):
        raise InvalidDistribution(f"masses sum to {total} over {law.denominator}, not 1")


@dataclass(frozen=True)
class LabelDistribution:
    """Law of the output label at a random vertex: labels[i] has mass
    counts[i] / denominator (see the module docstring)."""

    labels: tuple
    counts: tuple
    provenance: Provenance
    denominator: int = 1

    def __post_init__(self):
        if len(self.labels) != len(self.counts) or not self.labels:
            raise InvalidDistribution("labels and masses must align and be nonempty")
        if any(x < 0 for x in self.counts):
            raise InvalidDistribution("negative mass")
        _check_sum(sum(self.counts), self)

    @cached_property
    def p(self):
        """Masses in label order: Fractions if exact, floats if Monte Carlo."""
        if self.provenance.kind != "exact":
            return self.counts
        return tuple(Fraction(c, self.denominator) for c in self.counts)

    def mass(self, label):
        return self.p[self.labels.index(label)]

    def as_float_dict(self):
        return {a: float(x) for a, x in zip(self.labels, self.p)}


@dataclass(frozen=True)
class PairDistribution:
    """Exchangeable law of the ordered label pair across a fixed tree edge.

    ``counts`` maps ordered pairs to counts over ``denominator``; absent
    pairs have mass zero.
    """

    labels: tuple
    counts: dict
    provenance: Provenance
    denominator: int = 1

    def __post_init__(self):
        universe = set(self.labels)
        for (a, b), x in self.counts.items():
            if a not in universe or b not in universe:
                raise InvalidDistribution(f"pair ({a!r}, {b!r}) outside the alphabet")
            if x < 0:
                raise InvalidDistribution("negative mass")
            if self.counts.get((b, a), 0) != x:
                raise InvalidDistribution(f"not exchangeable at ({a!r}, {b!r})")
        _check_sum(sum(self.counts.values()), self)

    @cached_property
    def probs(self):
        """Masses of the ordered pairs: Fractions if exact, floats if Monte Carlo."""
        if self.provenance.kind != "exact":
            return self.counts
        return {k: Fraction(c, self.denominator) for k, c in self.counts.items()}

    def mass(self, a, b):
        return self.probs.get((a, b), 0)

    def marginal(self):
        """The law of either label, computed once per pair law."""
        return self._marginal

    @cached_property
    def _marginal(self):
        sums = {a: 0 for a in self.labels}
        for (a, _), x in self.counts.items():
            sums[a] += x
        return LabelDistribution(
            self.labels, tuple(sums[a] for a in self.labels), self.provenance, self.denominator
        )


def uniform_distribution(labels):
    return LabelDistribution(tuple(labels), (1,) * len(labels), EXACT, len(labels))


def point_mass(labels, label):
    return LabelDistribution(tuple(labels), tuple(int(a == label) for a in labels), EXACT)


def pair_from_edge_weights(H, weights):
    """Exact exchangeable pair law supported on the edges of H from integer
    per-edge weights."""
    counts = {}
    for (u, v), w in weights.items():
        if not H.has_edge(u, v):
            raise InvalidDistribution(f"({u}, {v}) is not an edge of the target")
        counts[(u, v)] = counts.get((u, v), 0) + w
        counts[(v, u)] = counts.get((v, u), 0) + w
    return PairDistribution(tuple(range(H.n)), counts, EXACT, 2 * sum(weights.values()))


# ---------------------------------------------------------------------------
# entropies: a mass is c / D, which for ints is correctly rounded, so equals
# float(Fraction(c, D)); Fraction counts over 1 turn float in mixed arithmetic


def entropy(dist):
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0.

    The sum is subtracted from 0.0, which is -sum for every nonzero sum and
    gives 0.0, not -0.0, for a point mass; joint_entropy does the same."""
    D = dist.denominator
    return 0.0 - sum(c / D * math.log(c / D) for c in dist.counts if c > 0)


def joint_entropy(pair):
    D = pair.denominator
    return 0.0 - sum(c / D * math.log(c / D) for c in pair.counts.values() if c > 0)


def conditional_entropy(pair):
    """h(X|Y) for (X, Y) distributed as the pair law, via the defining sum."""
    D = pair.denominator
    my = {}
    for (_, b), c in pair.counts.items():
        my[b] = my.get(b, 0) + c
    my = {b: float(m / D) for b, m in my.items()}
    h = 0.0
    for (_, b), c in pair.counts.items():
        if c > 0:
            x = c / D
            h -= x * math.log(x / my[b])
    return h


def entropy_sigma(dist, n_samples):
    """Delta-method standard error of the plug-in entropy estimate."""
    h = entropy(dist)
    D = dist.denominator
    second = sum(c / D * math.log(c / D) ** 2 for c in dist.counts if c > 0)
    var = max(second - h * h, 0.0)
    return math.sqrt(var / n_samples)


def total_variation(d1, d2):
    labels = set(d1.labels) | set(d2.labels)
    f1, f2 = d1.as_float_dict(), d2.as_float_dict()
    return 0.5 * sum(abs(f1.get(a, 0.0) - f2.get(a, 0.0)) for a in labels)


# ---------------------------------------------------------------------------
# exact marginals


def _half_tree_count(d, depth, q):
    """Number of half-tree types of a depth (1 for the empty depth -1):
    a root tag and a multiset of d-1 types one level shallower."""
    n = 1 if depth < 0 else q
    for _ in range(depth):
        n = q * math.comb(n + d - 2, d - 1)
    return n


def _truncated_code(code, d, depth):
    """A subtree code cut to the given depth (empty below depth 0).  Its
    children are the d-1 equal slices of the code after the root byte; at
    d=1 there are none, and a half-tree is its root alone."""
    if depth < 0:
        return b""
    if depth == 0 or d == 1:
        return code[:1]
    width = (len(code) - 1) // (d - 1)
    kids = (code[k:k + width] for k in range(1, len(code), width))
    return code[:1] + b"".join(sorted(_truncated_code(kid, d, depth - 1) for kid in kids))


def _half_tree_types(d, t, q):
    """(cuts, types) of an alphabet class; see the module docstring.
    `cuts` lists the half-tree types cut to depth t-1.  `types` yields, for
    each half-tree type A, the index i of its cut, the ball index (in the
    class's sorted codes) of A coded with cut j as the root's d-th child
    for every j, and c_A."""
    codes = rules.enumerate_canonical_balls(d, t, rules.alphabet(q))
    entries = _half_tree_count(d, t, q) * _half_tree_count(d, t - 1, q)
    if entries > rules.ALPHABET_ENUM_BUDGET:
        raise BudgetExceeded(
            f"alphabet pair law needs {entries} half-tree type pairs "
            f"> {rules.ALPHABET_ENUM_BUDGET}"
        )
    index = {code: i for i, code in enumerate(codes)}
    if t == 0:
        cuts = [b""]
    else:
        cuts = [code for code, _ in rules._alphabet_subtree_types(d, t - 1, q, d - 1)]
    cut_index = {code: i for i, code in enumerate(cuts)}
    width = rules.subtree_size(d, t - 1)

    def types():
        for code, count in rules._alphabet_subtree_types(d, t, q, d - 1):
            root = code[:1]
            kids = [code[k:k + width] for k in range(1, len(code), width)]
            balls = [index[root + b"".join(sorted(kids + [cut]))] for cut in cuts]
            yield cut_index[_truncated_code(code, d, t - 1)], balls, count

    return cuts, types()


@lru_cache(maxsize=None)
def _half_tree_structure(d, t, q):
    """(cells, denominator) of the alphabet pair law by cells; see the
    module docstring.  cells[i][j] lists the (ball index, c_A) of every
    half-tree type A cut to type i, coded with cut type j as the root's d-th
    child.  Rule-independent, cached."""
    cuts, types = _half_tree_types(d, t, q)
    cells = [[[] for _ in cuts] for _ in cuts]
    for i, balls, count in types:
        row = cells[i]
        for j, ball in enumerate(balls):
            row[j].append((ball, count))
    return cells, q ** (2 * rules.subtree_size(d, t))


# Bounds of the label-class path, below where the per-cell sums overtake it
# (see the module docstring and `_label_class_limit`).
_PACKED_MAX_LABELS = 16
_PACKED_MAX_BYTES = 1024
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _label_class_limit(d, t, q):
    """The most labels a rule may have for its pair law to be summed by
    label class: at most _PACKED_MAX_LABELS, and at most the mean number
    N_t / N_(t-1) of half-tree types per cell.  The label-class form pays
    k^2 products per cell, the per-cell form about min(k, types)^2."""
    return min(_PACKED_MAX_LABELS, _half_tree_count(d, t, q) // _half_tree_count(d, t - 1, q))


@lru_cache(maxsize=None)
def _half_tree_columns(d, t, q):
    """(columns, total, n, width, denominator) of the alphabet pair law by
    label class, or None when a packed column would exceed
    _PACKED_MAX_BYTES or a cell total 8 bytes.  columns[ball] packs the
    ball's multiplicity in each of the n * n cells (i, j), summed c_A as in
    `_half_tree_structure`, into the little-endian field i * n + j of
    `width` bytes; `total` is the sum of the columns.  Rule-independent,
    cached."""
    cuts = [(b"", 1)] if t == 0 else rules._alphabet_subtree_types(d, t - 1, q, d - 1)
    n = len(cuts)
    # the cells of row i hold the configurations of A cut to type i: those of
    # the cut times q to the (d-1)^t leaves of A, in total
    top = max(count for _, count in cuts) * q ** ((d - 1) ** t)
    width = next((w for w in _FIELD_FORMATS if top < 1 << (8 * w)), None)
    if width is None or n * n * width > _PACKED_MAX_BYTES:
        return None
    _, types = _half_tree_types(d, t, q)
    bits = 8 * width
    columns = [0] * len(rules.enumerate_canonical_balls(d, t, rules.alphabet(q)))
    for i, balls, count in types:
        shift = bits * n * i
        for ball in balls:
            columns[ball] += count << shift
            shift += bits
    return columns, sum(columns), n, width, q ** (2 * rules.subtree_size(d, t))


def _exact_pair_law_alphabet(rule):
    if len(rule.output_alphabet) <= _label_class_limit(rule.d, rule.t, rule.model.q):
        packed = _half_tree_columns(rule.d, rule.t, rule.model.q)
        if packed is not None:
            return _pair_law_by_label_class(rule, packed)
    return _pair_law_by_cells(rule)


def _pair_law_by_label_class(rule, packed):
    columns, total, n, width, denom = packed
    labels = rule.output_alphabet
    k = len(labels)
    # M_a, packed: the columns of the balls labelled a; the last label's is
    # what the others leave of the total
    packs = [sum(compress(columns, map(eq, rule.outputs, repeat(a)))) for a in range(k - 1)]
    packs.append(total - sum(packs))
    size = n * n * width
    fmt = _FIELD_FORMATS[width]
    # On a big-endian machine the cells unpack in reverse order, which maps
    # (i, j) to (n-1-i, n-1-j) and so commutes with the transposition below.
    used = [a for a in range(k) if packs[a]]
    grids = {
        a: memoryview(packs[a].to_bytes(size, sys.byteorder)).cast(fmt).tolist() for a in used
    }
    # M_b[j, i] in the order of M_a[i, j]: the i-th column of M_b, for each i
    flipped = {a: list(chain.from_iterable(m[i::n] for i in range(n))) for a, m in grids.items()}
    law = {}
    for p, a in enumerate(used):
        m_a = grids[a]
        for b in used[p:]:
            law[a, b] = law[b, a] = sum(map(mul, m_a, flipped[b]))
    counts = {(labels[a], labels[b]): law[a, b] for a in used for b in used if law[a, b]}
    return PairDistribution(labels, counts, EXACT, denom)


def _pair_law_by_cells(rule):
    cells, denom = _half_tree_structure(rule.d, rule.t, rule.model.q)
    labels = rule.output_alphabet
    k = len(labels)
    out = rule.outputs
    g = []
    for row in cells:
        g_row = []
        for cell in row:
            law = {}
            for ball, count in cell:
                a = out[ball]
                law[a] = law.get(a, 0) + count
            g_row.append(law)
        g.append(g_row)
    acc = {}
    for i, g_row in enumerate(g):
        for j, g_u in enumerate(g_row):
            g_v = g[j][i]
            for a, x in g_u.items():
                base = a * k
                for b, y in g_v.items():
                    acc[base + b] = acc.get(base + b, 0) + x * y
    counts = {(labels[key // k], labels[key % k]): acc[key] for key in sorted(acc)}
    return PairDistribution(labels, counts, EXACT, denom)


def _core_key(node, label, core):
    """Orbit key of a labelling of the core under its sibling permutations:
    a vertex's label and the sorted keys of its children in the core."""
    idx, kids = node
    return (label[idx], tuple(sorted(_core_key(c, label, core) for c in kids if c[0] in core)))


def _group_assignments(values, sizes):
    """Flat tuples giving each sibling group in turn an increasing choice of
    sizes[g] of the values: one per orbit of the permutations within groups."""
    if not sizes:
        yield ()
        return
    for block in combinations(values, sizes[0]):
        rest = tuple(x for x in values if x not in block)
        for tail in _group_assignments(rest, sizes[1:]):
            yield block + tail


@lru_cache(maxsize=None)
def _interleaving_structure(d, t, model):
    """(cells, terms, lifts, denominator) of the rank and hybrid pair law;
    see the module docstring.  cells[i][n] lists the ball index (in the
    class's sorted codes) of each order of the u-ball (with its U tags) that
    extends core orbit i with gap vector n, one per orbit of the sibling
    permutations inside U.  `terms` lists (i, j, weight): a core
    orbit, the orbit of its flipped labellings, and how many core labellings
    have that pair, times the squared order of the group inside U.  `lifts`
    is (lift, width): lift[n] lists the (j index, prod_i C(n_i, j_i)) of
    every j <= gap vector n, and width counts the j.  Rule-independent,
    cached."""
    index = {code: i for i, code in enumerate(rules.enumerate_canonical_balls(d, t, model))}
    coder = rules.ball_coder(d, t, model)
    layout = rules.edge_ball_layout(d, t)
    u_ids = layout.u_ids
    flip = dict(zip(u_ids, layout.v_ids))
    core = set(u_ids) & set(layout.v_ids)
    assert {flip[x] for x in core} == core
    core_ids = [x for x in u_ids if x in core]
    groups = []

    def collect(node):
        group = [c[0] for c in node[1] if c[0] not in core]
        if group:
            groups.append(group)
        for c in node[1]:
            collect(c)

    collect(layout.u_template)
    if not core:  # t = 0: U is u alone
        groups.append([0])
    sizes = [len(group) for group in groups]
    position = {x: p for p, x in enumerate(u_ids)}
    core_pos = [position[x] for x in core_ids]
    u_pos = [position[x] for group in groups for x in group]
    B, k, s = len(u_ids), len(core_ids), len(u_pos)
    hybrid = model.kind == "hybrid"
    tag_range = range(model.q) if hybrid else (None,)

    # u's child v is fixed; u's other children may be permuted
    root = layout.u_template
    halves = (root[1][0], (0, root[1][1:])) if core else ()
    # a sibling group lies in the core (v's d-1 other children) only at d >= 3
    # and t >= 2; without one, each labelling is its own orbit
    symmetric = d > 2 and t > 1
    orbit_of, reps, pair_counts = {}, [], {}

    def orbit(label):
        if symmetric:
            okey = tuple(_core_key(half, label, core) for half in halves)
        else:
            okey = tuple(label.values())
        if okey not in orbit_of:
            orbit_of[okey] = len(reps)
            reps.append(label)
        return orbit_of[okey]

    for ranks in permutations(range(1, k + 1)):
        for tags in product(tag_range, repeat=k):
            seeds = list(zip(ranks, tags)) if hybrid else ranks
            label = dict(zip(core_ids, seeds))
            ij = (orbit(label), orbit({x: label[flip[x]] for x in core_ids}))
            pair_counts[ij] = pair_counts.get(ij, 0) + 1

    # the ranks of U in the u-ball, one set per gap vector
    slot_sets = list(combinations(range(1, B + 1), s))
    lifts, lift_index = [], {}
    for slots in slot_sets:
        gaps = [0] * (k + 1)
        for p, r in enumerate(slots):
            gaps[r - 1 - p] += 1
        lifts.append([
            (lift_index.setdefault(sub, len(lift_index)), math.prod(map(math.comb, gaps, sub)))
            for sub in product(*(range(x + 1) for x in gaps))
        ])
    fillings = [
        [
            list(zip(assignment, u_tags)) if hybrid else assignment
            for assignment in _group_assignments(slots, sizes)
            for u_tags in product(tag_range, repeat=s)
        ]
        for slots in slot_sets
    ]
    cells = []
    for label in reps:
        row = []
        for slots, filling in zip(slot_sets, fillings):
            core_ranks = [r for r in range(1, B + 1) if r not in slots]
            seeds = [None] * B
            for p, x in zip(core_pos, core_ids):
                if hybrid:
                    r, g = label[x]
                    seeds[p] = (core_ranks[r - 1], g)
                else:
                    seeds[p] = core_ranks[label[x] - 1]
            cell = []
            for u_seeds in filling:
                for p, y in zip(u_pos, u_seeds):
                    seeds[p] = y
                cell.append(index[coder(seeds)])
            row.append(cell)
        cells.append(row)
    aut = math.prod(math.factorial(size) for size in sizes)
    terms = [(i, j, c * aut * aut) for (i, j), c in pair_counts.items()]
    q = model.q if hybrid else 1
    denominator = math.factorial(layout.size) * q**layout.size
    return cells, terms, (lifts, len(lift_index)), denominator


def _exact_pair_law_ordered(rule):
    cells, terms, (lifts, width), denom = _interleaving_structure(rule.d, rule.t, rule.model)
    labels = rule.output_alphabet
    k = len(labels)
    out = rule.outputs
    # lifted[i][a][j]: core orbit i's u-ball orders with output a, lifted to j
    lifted = []
    for row in cells:
        h = {}
        for lift, cell in zip(lifts, row):
            for ball in cell:
                a = out[ball]
                vec = h.get(a)
                if vec is None:
                    vec = h[a] = [0] * width
                for j, x in lift:
                    vec[j] += x
        lifted.append(h)
    acc = {}
    for i, j, weight in terms:
        for a, vec in lifted[i].items():
            base = a * k
            for b, other in lifted[j].items():
                acc[base + b] = acc.get(base + b, 0) + weight * sum(map(mul, vec, other))
    counts = {(labels[key // k], labels[key % k]): acc[key] for key in sorted(acc)}
    return PairDistribution(labels, counts, EXACT, denom)


def exact_marginals(rule):
    """Exact (LabelDistribution, PairDistribution) of a rule: integer counts
    over one denominator, the vertex law being the pair law's marginal."""
    if rule.model.kind == "alphabet":
        pair = _exact_pair_law_alphabet(rule)
    else:
        pair = _exact_pair_law_ordered(rule)
    return pair.marginal(), pair


# ---------------------------------------------------------------------------
# Monte Carlo marginals


_MC_BLOCK = 1 << 16
_MC_CHUNK = 1 << 10


def _block_seed(rng_seed, block_index):
    digest = hashlib.sha256(f"{rng_seed}:{block_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _mc_pair_counts_rank_t1(rule, n, rng):
    """Fast path: only the root's rank in its closed ball matters at t=1.

    Samples go in chunks of _MC_CHUNK.  A chunk's 2d uniforms per sample
    are drawn in one run, in the generic path's order, so the stream is the
    same: sample s's vertex i is draws[s * 2d + i], and a strided slice
    holds one vertex over the chunk.  Counting the keys in sample order
    keeps their first-occurrence order, which the float sums of the
    marginal follow."""
    d = rule.d
    width = 2 * d
    # a root's rank is 1 + the number of its smaller neighbours
    label_by_smaller = {
        code[0] - 1: rule.output_alphabet[i]
        for code, i in zip(rules.enumerate_canonical_balls(d, 1, rule.model), rule.outputs)
    }
    counts = Counter()
    uniform = rng.random
    for start in range(0, n, _MC_CHUNK):
        draws = [uniform() for _ in range(width * min(_MC_CHUNK, n - start))]
        su, sv = draws[0::width], draws[1::width]
        smaller_u = map(lt, sv, su)
        for i in range(2, d + 1):
            smaller_u = map(add, smaller_u, map(lt, draws[i::width], su))
        # as in the generic path, a tie ranks u (id 0) below v (id 1)
        smaller_v = map(le, su, sv)
        for i in range(d + 1, width):
            smaller_v = map(add, smaller_v, map(lt, draws[i::width], sv))
        counts.update(zip(smaller_u, smaller_v))
    out = {}
    for (ku, kv), c in counts.items():
        key = (label_by_smaller[ku], label_by_smaller[kv])
        out[key] = out.get(key, 0) + c
    return out


def _mc_configs(model, size, n, rng):
    """n edge-ball seed configurations of `size` vertices, in draw order."""
    if model.kind == "alphabet":
        # a chunk's tags are one run of randbelows, its samples' draws one
        # after another, so sample s is the s-th slice: the same stream as
        # one randbelows call per sample
        for start in range(0, n, _MC_CHUNK):
            draws = randbelows(rng, model.q, size * min(_MC_CHUNK, n - start))
            for s in range(0, len(draws), size):
                yield draws[s : s + size]
    elif model.kind == "rank":
        # (draw, index) keys, as in emulation: equal draws still rank apart
        for _ in range(n):
            yield [(rng.random(), i) for i in range(size)]
    else:
        # random() and randrange alternate per vertex, so the tags cannot
        # be drawn as one run of randbelows without changing the stream
        for _ in range(n):
            yield [((rng.random(), i), rng.randrange(model.q)) for i in range(size)]


def _mc_pair_counts_generic(rule, n, rng):
    code_u, code_v = rules.edge_coders(rule.d, rule.t, rule.model)
    table = rule.table
    counts = {}
    size = rules.edge_ball_layout(rule.d, rule.t).size
    for config in _mc_configs(rule.model, size, n, rng):
        key = (table[code_u(config)], table[code_v(config)])
        counts[key] = counts.get(key, 0) + 1
    return counts


def mc_marginals(rule, n_samples, rng_seed):
    """Plug-in empirical laws from n_samples edge-ball configurations.

    Samples are drawn in fixed-size blocks whose seeds derive from the
    master seed, so merged counts do not depend on evaluation order.  The
    pair law is symmetrized and the vertex law is its marginal, which keeps
    the two exactly consistent.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    fast = rule.model.kind == "rank" and rule.t == 1
    counts = {}
    done = 0
    block_index = 0
    while done < n_samples:
        n = min(_MC_BLOCK, n_samples - done)
        rng = random.Random(_block_seed(rng_seed, block_index))
        block = (
            _mc_pair_counts_rank_t1(rule, n, rng)
            if fast
            else _mc_pair_counts_generic(rule, n, rng)
        )
        for k, c in block.items():
            counts[k] = counts.get(k, 0) + c
        done += n
        block_index += 1
    denom = 2 * n_samples
    probs = {}
    for (a, b), c in counts.items():
        sym = c + counts.get((b, a), 0)
        if sym:
            probs[(a, b)] = sym / denom
            probs[(b, a)] = sym / denom
    pair = PairDistribution(rule.output_alphabet, probs, monte_carlo(n_samples))
    vertex = pair.marginal()
    return vertex, pair


# ---------------------------------------------------------------------------
# the inequality audit


@dataclass(frozen=True)
class Verdict:
    check: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class AuditResult:
    h_vertex: float
    h_edge: float
    h_nbr_given_vertex: float
    slack_edge_vertex: float
    r: int | None
    verdicts: tuple
    provenance: Provenance

    def all_passed(self):
        return all(v.passed for v in self.verdicts)


def support_violations(pair, H):
    """(mass as float, a, b) of each positive pair that is not an edge of H,
    in the order of pair.counts."""
    D = pair.denominator
    return [
        (float(x / D), a, b)
        for (a, b), x in pair.counts.items()
        if x > 0 and not H.has_edge(a, b)
    ]


def entropy_caps(r):
    """(ln r, 3 ln r): the caps on the neighbor entropy h(X|Y) and on the
    vertex entropy of a d=3 law supported on the edges of an r-regular target."""
    return math.log(r), 3 * math.log(r)


def tolerance(dist, n_samples):
    """Slack of the entropy verdicts: 1e-9 for an exact law (n_samples None);
    for a Monte Carlo law of n_samples, 3 sigma of its entropy plus 1e-9."""
    if n_samples is None:
        return 1e-9
    return 3 * entropy_sigma(dist, n_samples) + 1e-9


def check_marginals(vertex, pair):
    """InconsistentMarginals unless the pair law's marginal is the vertex law:
    exactly for exact laws, within 3 sigma for Monte Carlo ones.  Returns the
    sample counts of the Monte Carlo laws among the two."""
    ns = [p.n_samples for p in (vertex.provenance, pair.provenance) if p.kind == "monte_carlo"]
    marginal = pair.marginal()
    M, V = marginal.denominator, vertex.denominator
    marg = dict(zip(marginal.labels, marginal.counts))
    vert = dict(zip(vertex.labels, vertex.counts))
    for a in dict.fromkeys(marginal.labels + vertex.labels):
        x, y = marg.get(a, 0), vert.get(a, 0)
        if ns:
            # 3 sigma with sigma <= 0.5/sqrt(n) per cell
            differ = abs(x / M - y / V) > 1.5 / math.sqrt(min(ns)) + 1e-9
        else:
            # exact laws: counts cross-multiplied by the other denominator
            differ = x * V != y * M
        if differ:
            raise InconsistentMarginals(
                f"pair marginal and vertex law differ at {a!r}: "
                f"{float(x / M)} vs {float(y / V)}"
            )
    return ns


def audit(vertex, pair, r=None, H=None):
    """Entropies plus verdicts.

    Checks, in order: (a) the edge law dominates 4/3 of the vertex entropy;
    (b) when a target graph is given, the pair support lies inside its edge
    set; (c) when the support check passes and a regularity r is known (or
    read from H, whose regular degree a given r must equal), the neighbor
    and vertex entropies are within `entropy_caps(r)`.  The slack is
    `tolerance` of the vertex law, as in pipeline step 2.
    """
    if r is not None and r < 1:
        raise ValueError(f"regularity r must be >= 1, got {r}")
    if H is not None:
        degree = graphs.regular_degree(H)
        if r not in (None, degree):
            raise ValueError(
                f"regularity r = {r} disagrees with the target's regular degree {degree}"
            )
        r = degree
    ns = check_marginals(vertex, pair)

    h_v = entropy(vertex)
    h_e = joint_entropy(pair)
    h_n = conditional_entropy(pair)

    tol = tolerance(vertex, min(ns) if ns else None)
    slack = h_e - (4.0 / 3.0) * h_v
    verdicts = [Verdict("edge_vertex", slack >= -tol, slack)]

    support_ok = None
    if H is not None:
        bad = support_violations(pair, H)
        support_ok = not bad
        verdicts.append(Verdict("support_in_target", support_ok, -sum(x for x, _, _ in bad)))

    if r is not None and (support_ok or (H is None)):
        nbr_cap, vertex_cap = entropy_caps(r)
        verdicts.append(Verdict("nbr_entropy_cap", h_n <= nbr_cap + tol, nbr_cap - h_n))
        verdicts.append(
            Verdict("vertex_entropy_cap", h_v <= vertex_cap + tol, vertex_cap - h_v)
        )

    prov = (
        vertex.provenance
        if vertex.provenance.kind == "monte_carlo"
        else pair.provenance
    )
    return AuditResult(
        h_vertex=h_v,
        h_edge=h_e,
        h_nbr_given_vertex=h_n,
        slack_edge_vertex=slack,
        r=r,
        verdicts=tuple(verdicts),
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# the girth constant


_OVERFLOW_BIT_CAP = 8_000_000


def c0_fraction(c0):
    """c0 as an exact fraction.  Floats go through their shortest decimal
    repr, so 0.089 means 89/1000, not the binary float it parses to."""
    if isinstance(c0, Fraction):
        frac = c0
    elif isinstance(c0, float):
        frac = Fraction(repr(c0))
    elif isinstance(c0, str):
        try:
            frac = Fraction(c0)
        except ZeroDivisionError:
            raise ValueError(f"c0 {c0!r} has a zero denominator") from None
    else:
        raise ValueError(f"cannot interpret c0 of type {type(c0).__name__}")
    if not 0 < frac < 1:
        raise ValueError(f"c0 must lie strictly between 0 and 1, got {frac}")
    return frac


def min_girth_constant(r, c0):
    """Least integer strictly greater than r**(3/c0), in exact arithmetic.

    With c0 = p/q in lowest terms the answer is 1 + max{n : n**p <= r**(3q)},
    found by binary search over big integers.  Results are memoized on
    (r, c0 as a fraction), since pipelines ask again for the same constant.
    """
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"regularity r must be an integer >= 2, got {r!r}")
    return _min_girth_constant(r, c0_fraction(c0))


@lru_cache(maxsize=64)
def _min_girth_constant(r, frac):
    # lru_cache stores no exception, so Overflow is raised on every call
    p, q = frac.numerator, frac.denominator
    bits = 3 * q * max(r.bit_length(), 1)
    if bits > _OVERFLOW_BIT_CAP:
        raise Overflow(
            f"r^(3q) needs about {bits} bits with c0 = {frac}; "
            "give c0 with a smaller denominator"
        )
    R = r ** (3 * q)
    hi = 1 << (R.bit_length() // p + 2)
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**p <= R:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


# ---------------------------------------------------------------------------
# tail selection (the large-preimage argument)


@dataclass(frozen=True)
class TailSelection:
    selected: tuple
    selected_mass: object
    outside_mass: object
    tail_entropy: float
    triggered: bool
    min_selected_mass: object
    max_outside_mass: object
    outside_at_most_inv_C: bool
    entropy_floor: float
    c0_floor: float
    floor_holds: bool
    verdict: str


def tail_select(dist, C, c0):
    """Top C-1 labels by mass, the leftover tail, and the implication chain.

    Selection ties break toward the smaller label index, so reports are
    deterministic.  When the tail mass reaches c0 the tail entropy is
    bounded below by outside_mass * ln C, which needs every outside mass to
    be at most 1/C; both links are computed and reported, not assumed.
    """
    if not isinstance(C, int) or C < 2:
        raise ValueError(f"C must be an integer >= 2, got {C!r}")
    if C - 1 >= len(dist.labels):
        raise CTooLarge(
            f"C - 1 = {C - 1} >= {len(dist.labels)} labels: the whole alphabet "
            "would be selected and the tail is empty"
        )
    # the masses are counts over one positive denominator, so the counts
    # order and sum as the masses do; Fractions are built only for the
    # masses reported, and c / D is the float of Fraction(c, D)
    counts, D = dist.counts, dist.denominator
    exact = dist.provenance.kind == "exact"

    def mass(c):
        return Fraction(c, D) if exact else c

    order = sorted(range(len(dist.labels)), key=lambda i: (-counts[i], i))
    chosen = sorted(order[: C - 1])
    rest = sorted(order[C - 1:])
    selected_mass = mass(sum(counts[i] for i in chosen))
    outside_mass = 1 - selected_mass
    tail_entropy = -sum(
        counts[i] / D * math.log(counts[i] / D) for i in rest if counts[i] > 0
    )
    min_sel = mass(min((counts[i] for i in chosen), default=0))
    max_out = mass(max((counts[i] for i in rest), default=0))
    inv_C = Fraction(1, C)
    bounded = max_out <= inv_C
    triggered = outside_mass >= c0_fraction(c0)
    entropy_floor = float(outside_mass) * math.log(C)
    c0_floor = float(c0_fraction(c0)) * math.log(C)
    floor_holds = tail_entropy >= entropy_floor - 1e-12
    if not triggered:
        verdict = "tail hypothesis not triggered: outside mass below c0"
    elif bounded and floor_holds:
        verdict = (
            "tail entropy at least outside_mass * ln C, hence at least c0 * ln C"
        )
    else:
        verdict = "implication chain incomplete (see computed bounds)"
    return TailSelection(
        selected=tuple(dist.labels[i] for i in chosen),
        selected_mass=selected_mass,
        outside_mass=outside_mass,
        tail_entropy=tail_entropy,
        triggered=triggered,
        min_selected_mass=min_sel,
        max_outside_mass=max_out,
        outside_at_most_inv_C=bounded,
        entropy_floor=entropy_floor,
        c0_floor=c0_floor,
        floor_holds=floor_holds,
        verdict=verdict,
    )
