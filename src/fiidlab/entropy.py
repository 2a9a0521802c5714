"""Label marginals of a rule on the d-regular tree and entropy audits.

A law stores `counts` over one `denominator`.  An exact law counts seed
configurations (or orders) as ints over their total, and its `p`, `probs`
and `mass` are Fraction views; a Monte Carlo law holds float masses over 1.
The exact vertex law is the marginal of the exact pair law.  No pair law
enumerates the edge ball (the union of the two endpoint balls).  Each is
one bilinear form over a rule-independent `CellForm`, built once per class:

    P(a, b) = 1/D * sum over blocks I of w_I * sum over J of
              M_a[I, J] * M_b[partner(I), J].

The form's cells list ball indices with multiplicities.  Each cell lies in
one block and lifts to each J with a coefficient, and M_a[I, J] sums
multiplicity times coefficient over block I's balls that the rule labels a.
Partnering is an involution and partners have equal weights w, so block
I's term for (a, b) is its partner's for (b, a).  D is the denominator.

Alphabet seeds: half-tree types.  Split the edge ball (u, v) into two
disjoint half-trees: A, u with its d-1 subtrees away from v, to depth t, and
B, the same at v.  Their seeds are independent.  Write A' and B' for A and B
cut to depth t-1.  The ball of u is A with B' as the root's d-th child, so
its code is A's root byte followed by the codes of A's children and of B',
sorted as bytes (all d have the same shape).  So D = q^(2|A|), and a cell is
a pair (A', B') of cut types, listing the ball of each type A cut to A'
with B', with multiplicity c_A, the number of seed configurations of type
A.  It is its own block, with one J of coefficient 1, and its partner is
(B', A'), of weight 1.  The cells hold N_t * N_(t-1) entries, built from
the half-tree types of `rules._alphabet_subtree_types`; A and B' hold the
ball's B vertices between them, so N_t * N_(t-1) <= q^B, within the vertex
law's budget.  At t=0, A is the vertex alone and B' is empty.

Rank and hybrid seeds: core interleavings.  Let K = ball(u) & ball(v) be
the core (k vertices), U the vertices only u sees and V those only v sees,
and S the edge-ball size.  The seeds' order is uniform over S! orders and
the tags over q^S (q = 1 for rank), so D = S! q^S.  An order of the edge
ball restricts to an order sigma of K and to orders of K+U and of K+V that
extend sigma.  Let n and m count the U and the V vertices in each of the
k+1 gaps of sigma.  The orders of the edge ball that restrict to two given
ones interleave U and V within each gap, so there are
prod_i C(n_i + m_i, n_i) of them, and Vandermonde's identity
C(n + m, n) = sum_J C(n, J) * C(m, J) splits that count between the two
sides, which meet only through J.  So a cell is a gap vector n of
(sigma, core tags), listing the ball of each order of K+U (with U tags)
that extends it with gap vector n, and lifting to every J <= n with
coefficient prod_i C(n_i, J_i).  Three symmetries keep the form small:

* the flip u_ids[i] -> v_ids[i] of `rules.edge_ball_layout` maps the v-ball
  onto the u-ball and K onto itself, so only the u side is built, and the
  v side of (sigma, core tags) is the u side of its flip;
* the sibling permutations inside K are automorphisms of both balls that
  fix K: a block is an orbit of (sigma, core tags) under them, its partner
  the orbit of the flipped labellings, and its weight counts the labellings
  in the orbit;
* the sibling permutations inside U fix K pointwise, so each cell keeps one
  order per orbit (ranks increasing along each sibling group), with
  multiplicity 1, and the weight has the squared group order.

At d=3, t=2 that is 180 core orbits, 210 gap vectors, 330 J and 226,800
coded balls, where the edge ball has 14! orders.  The build codes
B! q^B / |group| balls of size B, so the pair law needs only the vertex
law's budget.

Two kernels read the form, with the fields (I, J) packed little-endian in
ints, each as wide as the largest field total needs.  The per-cell kernel
adds each entry's multiplicity times its cell's packed lift into M_a[I, .]
and sums each pair of partner blocks once: about min(k, e)^2 dot products
per pair for k labels and e entries per cell.  Both read the rule's
`outputs`: one `bytes` for at most 256 labels, else a tuple of ints.  The
label-class kernel keeps a packed column per ball, its fields from the
first block of its run: the balls that share its root byte, contiguous in
the sorted codes.  At alphabet:q every block (A', B') of a ball has A'
rooted at the ball's root tag, so of the n^2 blocks a column spans the
n^2 / q of its run.  The kernel adds the columns of the balls labelled a
into M_a without a carry, run by run, picking them by one bytes.translate
of the outputs to a 0/1 mask, and shifts each run's sum into place; the
last label's M_a is the class total less the others.  It reads label b's
grid through the weighted partner, w_I * M_b[partner(I), J], with one
getter over the partner fields: one add per ball and k^2 / 2 products per
field.  A rule takes it if it has at most min(16, e) labels and a column
of all the fields takes at most 1 KiB.  Many labels
(alphabet:3 t=2 crosses over near 50), few entries per cell (alphabet at
d=2, e = q; rank t=1, e = 1) and wide grids (alphabet:2 t=3, rank t=2),
where columns would also cost memory on every ball, take the per-cell
kernel.  A class keeps only the data of the kernels its rules take.

Monte Carlo marginals are plug-in empirical laws from i.i.d. edge-ball
samples, deterministic per seed via fixed-size blocks with derived
substreams.  At rank t=1 only each root's rank in its closed ball matters;
that path draws a chunk of samples' uniforms in one run and compares them
in bulk, making the same random() calls in the same order as the generic
path, so both give the same counts, in the same key order, and leave the
generator in the same state.

Degree-d bounds.  Let X and Y be the labels at the ends of an edge of T_d
under a factor of i.i.d., h_vertex = h(X) and h_edge = h(X, Y).  On a
random d-regular graph of n vertices, the expected number of labellings
whose vertex and edge laws are those of (X, Y) is

    exp(n * ((d/2) h_edge - (d-1) h_vertex) + o(n)),

since there are about exp(n h_vertex) ways to place the labels, and the
configuration model pairs the dn half-edges as the edge law asks with
probability about exp((dn/2) h_edge - dn h_vertex).  Such a graph has few
short cycles, so the factor, run on it, gives such a labelling with
probability near 1, and the exponent is not negative (Lyons, *Factors of
IID on trees*, 2017; Backhausz, Szegedy and Virag, 2015):

    (d/2) h_edge >= (d-1) h_vertex,

and `audit` checks the slack h_edge - (2(d-1)/d) h_vertex >= 0, with
factor 4/3 at d=3.  At d <= 2 the factor is at most 1, and every law
passes, as h(X, Y) >= h(X).  If the pair law lies on the edges of an
r-regular target, Y takes at most r values given X, so
h(Y|X) <= ln r and h_edge = h_vertex + h(Y|X) <= h_vertex + ln r.  With
the inequality, (d/2 - 1) h_vertex <= (d/2) ln r, so for d >= 3

    h_vertex <= (d/(d-2)) ln r        (`vertex_entropy_cap`),

and at d <= 2 the vertex entropy has no cap.  When the C-1 heaviest labels
leave mass c0 or more outside, h_vertex >= c0 ln C (`tail_select`), so no
such law meets the cap once c0 ln C > (d/(d-2)) ln r, that is for
C > r^(d/((d-2) c0)).  With c0 = p/q, `min_girth_constant` finds the least
such integer n, the least n with n^(p(d-2)) > r^(dq), in exact arithmetic;
`entropy constant` prints it at d=3, r^(3/c0).

All entropies are in nats.
"""

import hashlib
import math
import random
import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, permutations, product
from operator import add, le, lt, mul

from . import graphs, randbelows, rules


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


# Bounds of the label-class kernel, below where the per-cell kernel overtakes
# it (see the module docstring).
_PACKED_MAX_LABELS = 16
_PACKED_MAX_BYTES = 1024
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_size(top):
    """The fewest bytes of a field that holds `top`.  The enumeration budgets
    keep every field total of a form below 2^64."""
    return next(w for w in _FIELD_FORMATS if top < 1 << 8 * w)


def _reader(size, n):
    """A function that unpacks an int into n little-endian fields of `size` bytes."""
    unpack = struct.Struct(f"<{n}{_FIELD_FORMATS[size]}").unpack
    return lambda packed: unpack(packed.to_bytes(n * size, "little"))


@dataclass(frozen=True)
class CellForm:
    """The rule-independent cell form of a class; see the module docstring.

    `stream()` yields each cell as (block, unit, balls, mults): its balls'
    indices (in the class's sorted codes) and multiplicities, and its lift
    packed into `unit`, the coefficient of J in the field J of `size` bytes,
    which hold any field total.  Block i has partner[i] and weight[i];
    `width` counts the J, `cell_size` is the mean number of entries per cell
    rounded down, and `balls` counts the class's canonical balls.  `runs`
    lists the (start, stop) range of each root byte in the sorted codes.
    The stream yields the blocks in increasing order."""

    partner: tuple
    weight: tuple
    width: int
    size: int
    cell_size: int
    balls: int
    runs: tuple
    denominator: int
    stream: object

    @cached_property
    def cells(self):
        """(cells, read) of the per-cell kernel: the stream, and a function
        that unpacks one block's lifted vector."""
        return list(self.stream()), _reader(self.size, self.width)

    @cached_property
    def columns(self):
        """(runs, total, read, (partnered, weights)) of the label-class
        kernel, or None if a full column would pass _PACKED_MAX_BYTES.
        Each run is (start, stop, shift, columns): columns[k] packs the
        lifted multiplicities of ball start + k in the fields i * width + J
        from bit `shift` on, where the run's first block starts, so that
        columns[k] << shift is the ball's column over all the fields.
        partnered(grid) reads each field's partner, the field of block
        partner(i) at the same J, and weights lists each field's block
        weight, or is None when every weight is 1."""
        n = len(self.partner) * self.width
        if n * self.size > _PACKED_MAX_BYTES:
            return None
        block_bits = 8 * self.size * self.width
        run_of = [r for r, (start, stop) in enumerate(self.runs) for _ in range(start, stop)]
        firsts = [None] * len(self.runs)
        columns = [0] * self.balls
        # blocks come in increasing order, so a run's first cell is in its first block
        for block, unit, balls, mults in self.stream():
            for ball, m in zip(balls, mults):
                r = run_of[ball]
                if firsts[r] is None:
                    firsts[r] = block
                columns[ball] += m * unit << block_bits * (block - firsts[r])
        runs = [
            (start, stop, block_bits * first, columns[start:stop])
            for (start, stop), first in zip(self.runs, firsts)
        ]
        total = sum(sum(cols) << shift for _, _, shift, cols in runs)
        fields = range(self.width)
        partnered = rules._getter([j * self.width + f for j in self.partner for f in fields])
        # an alphabet form weighs every block 1, and its partner read needs no product
        weights = None if set(self.weight) == {1} else [w for w in self.weight for _ in fields]
        return runs, total, _reader(self.size, n), (partnered, weights)


def _root_runs(codes):
    """The (start, stop) range of each root byte in sorted codes."""
    bounds = [bisect_left(codes, bytes((b,))) for b in range(256)] + [len(codes)]
    return tuple((start, stop) for start, stop in zip(bounds, bounds[1:]) if start < stop)


def _half_tree_types(d, t, q):
    """The cell form of an alphabet class; see the module docstring.  Of n
    cut types, cell (i, j) is block i * n + j."""
    codes = rules.enumerate_canonical_balls(d, t, rules.alphabet(q))
    halves = rules._alphabet_subtree_types(d, t, q)
    cuts = [(b"", 1)] if t == 0 else rules._alphabet_subtree_types(d, t - 1, q)
    n = len(cuts)
    width = rules.subtree_size(d, t - 1)

    def stream():
        index = {code: i for i, code in enumerate(codes)}
        cut_index = {code: i for i, (code, _) in enumerate(cuts)}
        rows = [[] for _ in cuts]
        for code, count in halves:
            kids = [code[k:k + width] for k in range(1, len(code), width)]
            rows[cut_index[_truncated_code(code, d, t - 1)]].append((code[:1], kids, count))
        for i, row in enumerate(rows):
            mults = [count for _, _, count in row]
            for j, (cut, _) in enumerate(cuts):
                balls = [index[root + b"".join(sorted(kids + [cut]))] for root, kids, _ in row]
                yield i * n + j, 1, balls, mults

    # the cells of row i hold the configurations of A cut to type i: those of
    # the cut times q to the (d-1)^t leaves of A, in total
    size = _field_size(max(count for _, count in cuts) * q ** ((d - 1) ** t))
    partner = tuple(j * n + i for i in range(n) for j in range(n))
    denominator = q ** (2 * rules.subtree_size(d, t))
    return CellForm(
        partner, (1,) * n**2, 1, size, len(halves) // n, len(codes), _root_runs(codes),
        denominator, stream,
    )


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


def _interleaving_structure(d, t, model):
    """The cell form of a rank or hybrid class; see the module docstring.
    Block i is the core orbit of reps[i], and its cells are gap vectors."""
    codes = rules.enumerate_canonical_balls(d, t, model)
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
    # the flip maps each orbit into one orbit
    assert len(pair_counts) == len(reps)
    aut = math.prod(math.factorial(size) for size in sizes)
    partner, weight = [0] * len(reps), [0] * len(reps)
    for (i, j), c in pair_counts.items():
        partner[i], weight[i] = j, c * aut * aut

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
    ones = [(1,) * len(filling) for filling in fillings]
    # every block's cells hold the same number of balls per gap vector
    totals = [0] * len(lift_index)
    for lift, filling in zip(lifts, fillings):
        for j, c in lift:
            totals[j] += c * len(filling)
    size = _field_size(max(totals))
    units = [sum(c << 8 * size * j for j, c in lift) for lift in lifts]

    def stream():
        index = {code: i for i, code in enumerate(codes)}
        for i, label in enumerate(reps):
            for slots, unit, filling, mults in zip(slot_sets, units, fillings, ones):
                core_ranks = [r for r in range(1, B + 1) if r not in slots]
                seeds = [None] * B
                for p, x in zip(core_pos, core_ids):
                    if hybrid:
                        r, g = label[x]
                        seeds[p] = (core_ranks[r - 1], g)
                    else:
                        seeds[p] = core_ranks[label[x] - 1]
                balls = []
                for u_seeds in filling:
                    for p, y in zip(u_pos, u_seeds):
                        seeds[p] = y
                    balls.append(index[coder(seeds)])
                yield i, unit, balls, mults

    q = model.q if hybrid else 1
    denominator = math.factorial(layout.size) * q**layout.size
    cell_size = sum(map(len, fillings)) // len(fillings)
    return CellForm(
        tuple(partner), tuple(weight), len(lift_index), size, cell_size, len(codes),
        _root_runs(codes), denominator, stream,
    )


@lru_cache(maxsize=None)
def _cell_form(d, t, model):
    """The cell form of a class, built once."""
    if model.kind == "alphabet":
        return _half_tree_types(d, t, model.q)
    return _interleaving_structure(d, t, model)


# bytes.translate tables of the label-class kernel: _LABEL_MASKS[a] maps
# byte a to 1 and every other byte to 0
_LABEL_MASKS = tuple(bytes(a) + b"\1" + bytes(255 - a) for a in range(_PACKED_MAX_LABELS))


def _pair_law_by_label_class(rule, form):
    runs, total, read, (partner_of, weights) = form.columns
    labels = rule.output_alphabet
    k = len(labels)
    # M_a, packed: each run's columns of the balls labelled a, picked by
    # the mask of a over the outputs' bytes, summed and shifted into place;
    # the last label's is what the others leave of the total
    packs = []
    for a in range(k - 1):
        mask = rule.outputs.translate(_LABEL_MASKS[a])
        packs.append(
            sum(sum(compress(cols, mask[start:stop])) << shift for start, stop, shift, cols in runs)
        )
    packs.append(total - sum(packs))
    used = [a for a in range(k) if packs[a]]
    grids = {a: read(packs[a]) for a in used}
    # w_I * M_b[partner(I), J], in the order of M_a[I, J]
    partnered = {b: partner_of(m) for b, m in grids.items()}
    if weights is not None:
        partnered = {b: list(map(mul, m, weights)) for b, m in partnered.items()}
    law = {}
    for p, a in enumerate(used):
        m_a = grids[a]
        for b in used[p:]:
            law[a, b] = law[b, a] = sum(map(mul, m_a, partnered[b]))
    counts = {(labels[a], labels[b]): law[a, b] for a in used for b in used if law[a, b]}
    return PairDistribution(labels, counts, EXACT, form.denominator)


def _dot(u, v):
    return sum(map(mul, u, v))


def _pair_law_per_cell(rule, form):
    cells, read = form.cells
    labels = rule.output_alphabet
    out = rule.outputs
    # lifted[i][a] = M_a[i, .], packed as the cells' units are
    lifted = [{} for _ in form.partner]
    for block, unit, balls, mults in cells:
        h = lifted[block]
        for ball, m in zip(balls, mults):
            a = out[ball]
            h[a] = h.get(a, 0) + m * unit
    # a vector of one field is its int, and a dot product one product
    dot = mul if form.width == 1 else _dot
    if form.width > 1:
        for h in lifted:  # in place, so each packed vector is freed as it is read
            for a, v in h.items():
                h[a] = read(v)
    # block i's term for (a, b) is its partner's for (b, a): each partner
    # pair is summed once, into both; rows[a][b] sums P(a, b)
    rows = [{} for _ in labels]
    for i, (h, j, weight) in enumerate(zip(lifted, form.partner, form.weight)):
        if j < i:
            continue
        h_partner = lifted[j]
        for a, vec in h.items():
            row = rows[a]
            for b, other in h_partner.items():
                x = weight * dot(vec, other)
                row[b] = row.get(b, 0) + x
                if j != i:
                    column = rows[b]
                    column[a] = column.get(a, 0) + x
    counts = {
        (labels[a], labels[b]): x for a, row in enumerate(rows) for b, x in sorted(row.items())
    }
    return PairDistribution(labels, counts, EXACT, form.denominator)


def exact_marginals(rule):
    """Exact (LabelDistribution, PairDistribution) of a rule: integer counts
    over one denominator, the vertex law being the pair law's marginal."""
    form = _cell_form(rule.d, rule.t, rule.model)
    by_class = len(rule.output_alphabet) <= min(_PACKED_MAX_LABELS, form.cell_size)
    kernel = _pair_law_by_label_class if by_class and form.columns else _pair_law_per_cell
    pair = kernel(rule, form)
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


def vertex_entropy_cap(vertex, r, d=3):
    """(h, cap, holds): a vertex law's entropy h, its cap (d/(d-2)) ln r on
    an r-regular target, and whether h <= cap within the law's own
    `tolerance`; cap and holds are None at d <= 2, where there is no cap
    (see the module docstring).  The audit and pipeline step 2 both read it."""
    h = entropy(vertex)
    if d <= 2:
        return h, None, None
    cap = d / (d - 2) * math.log(r)
    return h, cap, h <= cap + tolerance(vertex, vertex.provenance.n_samples)


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


def audit(vertex, pair, r=None, H=None, d=3):
    """Entropies plus verdicts for laws of a rule on T_d.

    Checks, in order: (a) the edge law dominates 2(d-1)/d of the vertex
    entropy; (b) when a target graph is given, the pair support lies inside
    its edge set; (c) when the support check passes and a regularity r is
    known (or read from H, whose regular degree a given r must equal), the
    neighbor entropy h(X|Y) is at most ln r, and at d >= 3 the vertex
    entropy within `vertex_entropy_cap`.  The other entropy checks allow
    `tolerance` of the vertex law at the fewer samples of the two laws.
    """
    if d < 1:
        raise ValueError(f"degree d must be >= 1, got {d}")
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
    slack = h_e - 2 * (d - 1) / d * h_v
    verdicts = [Verdict("edge_vertex", slack >= -tol, slack)]

    support_ok = None
    if H is not None:
        bad = support_violations(pair, H)
        support_ok = not bad
        verdicts.append(Verdict("support_in_target", support_ok, -sum(x for x, _, _ in bad)))

    if r is not None and (support_ok or (H is None)):
        nbr_cap = math.log(r)
        verdicts.append(Verdict("nbr_entropy_cap", h_n <= nbr_cap + tol, nbr_cap - h_n))
        _, vertex_cap, holds = vertex_entropy_cap(vertex, r, d)
        if vertex_cap is not None:
            verdicts.append(Verdict("vertex_entropy_cap", holds, vertex_cap - h_v))

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


def min_girth_constant(r, c0, d=3):
    """Least integer strictly greater than r**(d/((d-2) c0)), in exact
    arithmetic (see the module docstring); there is none at d <= 2.

    With c0 = p/q in lowest terms the answer is
    1 + max{n : n**(p(d-2)) <= r**(dq)}, found by binary search over big
    integers.  Results are memoized on (r, c0 as a fraction, d), since
    pipelines ask again for the same constant.
    """
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"regularity r must be an integer >= 2, got {r!r}")
    if d <= 2:
        raise ValueError(f"the girth constant needs d >= 3, got d = {d}")
    return _min_girth_constant(r, c0_fraction(c0), d)


@lru_cache(maxsize=64)
def _min_girth_constant(r, frac, d):
    # lru_cache stores no exception, so Overflow is raised on every call
    p, q = frac.numerator * (d - 2), frac.denominator
    bits = d * q * max(r.bit_length(), 1)
    if bits > _OVERFLOW_BIT_CAP:
        raise Overflow(
            f"r^({d}q) needs about {bits} bits with c0 = {frac}; "
            "give c0 with a smaller denominator"
        )
    R = r ** (d * q)
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
    deterministic.  Both links of the chain always hold, and both are
    reported.  The C-1 selected labels each weigh at least the heaviest
    outside one, so C times its mass is at most the total 1: every outside
    mass x is at most 1/C.  Then -ln x >= ln C, so -x ln x >= x ln C, and
    summed over the outside labels the tail entropy is at least
    outside_mass * ln C, hence at least c0 * ln C when the outside mass
    reaches c0.  A Monte Carlo law's float masses are compared with 1/C
    with a slack of 1e-12, as the entropy floor is.
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
    bounded = max_out <= Fraction(1, C) if exact else max_out <= 1 / C + 1e-12
    triggered = outside_mass >= c0_fraction(c0)
    entropy_floor = float(outside_mass) * math.log(C)
    c0_floor = float(c0_fraction(c0)) * math.log(C)
    floor_holds = tail_entropy >= entropy_floor - 1e-12
    if triggered:
        verdict = "tail entropy at least outside_mass * ln C, hence at least c0 * ln C"
    else:
        verdict = "tail hypothesis not triggered: outside mass below c0"
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
