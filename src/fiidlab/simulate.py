"""Emulation of tree rules on finite graphs, and the end-to-end refutation
pipeline for candidate homomorphism rules.

A vertex of a finite graph is *covered* when its radius-t ball is isomorphic
to the radius-t ball of the d-regular tree (a tree with full internal
degrees); the rule applies verbatim there and the empirical label law on
covered vertices matches the tree law as coverage tends to one.  Vertices on
short cycles, or with deficient degrees, stay unlabeled and are counted.

The pipeline walks the refutation chain for a candidate rule on T_d against
a regular target H of degree r >= 2: (1) is the pair law supported on edges
of H, (2) is the vertex entropy within (d/(d-2)) ln r (not applicable at
d <= 2, where there is no cap; the `entropy` docstring derives the bounds),
(3) how much mass escapes the C-1 heaviest labels, (4) is the selected set
acyclic in H, (5) does the composed partial 2-coloring reach domain mass
1 - c0 (not applicable at d <= 2, where T_d is an edge or a path and its
factors of i.i.d. give partial 2-colorings of any mass below 1).  The
pipeline refuses the laws the audit refuses (`entropy.check_marginals`),
and steps 1 and 2 use the checks of `entropy.audit`: `support_violations`
and `vertex_entropy_cap`.  Each step reports its numbers; the
classification names the refuting step or states that no refutation
follows at the chosen parameters.
"""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import entropy as ent
from . import graphs, randbelows, rules


class DegreeMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# running a rule on a finite graph


@dataclass
class SimulationReport:
    n: int
    d: int
    t: int
    model: str
    rng_seed: int
    histogram: dict
    covered: int
    covered_fraction: float
    seed_collisions: int
    covered_edges: int | None
    violating_edges: int | None
    violating_edge_fraction: float | None
    independent_set: dict | None


def _tree_ball_order(G, v, t, d):
    """Vertices of the radius-t ball at v in level order when that ball is
    the full tree ball of T_d, else None.

    A non-backtracking expansion lists each vertex's neighbours minus its
    parent, in adjacency order, parent by parent: on a tree that is the BFS
    order, the level order of the rule's seed vectors.  The ball is the full
    tree ball iff every internal vertex has degree d, no vertex repeats, and
    no leaf has a neighbour in the ball other than its parent.  Under the
    first two, every edge at an internal vertex is a tree edge, so the last
    test only looks for an edge between two leaves."""
    adj = G.adjacency
    order = [v]
    if t == 0:
        return order
    level = adj[v]
    if len(level) != d:
        return None
    order += level
    parents = [v] * d
    for _ in range(t - 1):
        below, up = [], []
        for x, p in zip(level, parents):
            nbrs = adj[x]
            if len(nbrs) != d:
                return None
            for w in nbrs:
                if w != p:
                    below.append(w)
                    up.append(x)
        order += below
        level, parents = below, up
    if len(set(order)) != len(order):
        return None
    leaves = set(level)
    for x in level:
        if not leaves.isdisjoint(adj[x]):
            return None
    return order


def run_on_graph(rule, G, rng_seed, target=None):
    """Run a rule once over a finite graph with i.i.d. per-vertex seeds.

    Returns (labeling, SimulationReport).  Rank and hybrid seeds are 64-bit
    uniforms; equal draws are broken by vertex index and counted in the
    report.  Deterministic per rng_seed.
    """
    d, t, model = rule.d, rule.t, rule.model
    if G.max_degree() > d:
        raise DegreeMismatch(
            f"graph has max degree {G.max_degree()}, rule expects at most {d}"
        )
    if target is not None and not set(rule.output_alphabet) <= set(range(target.n)):
        raise ValueError("rule outputs must be vertices of the target graph")

    rng = random.Random(rng_seed)
    n = G.n
    collisions = 0
    if model.kind == "alphabet":
        seeds = randbelows(rng, model.q, n)
    else:
        draws = [rng.random() for _ in range(n)]
        collisions = n - len(set(draws))
        # (value, vertex index) keys are distinct and order-stable
        if model.kind == "rank":
            seeds = [(draws[v], v) for v in range(n)]
        else:
            # the tags are drawn after all the uniforms
            tags = randbelows(rng, model.q, n)
            seeds = [((draws[v], v), tags[v]) for v in range(n)]

    code = rules.ball_coder(d, t, model)
    table = rule.table
    labeling = {}
    for v in range(n):
        order = _tree_ball_order(G, v, t, d)
        if order is not None:
            labeling[v] = table[code([seeds[x] for x in order])]

    histogram = {}
    for lab in labeling.values():
        histogram[lab] = histogram.get(lab, 0) + 1

    covered_edges = violating = vfrac = independent = None
    in_out = set(rule.output_alphabet) == {"IN", "OUT"}
    if target is not None or in_out:
        # the label pairs of the edges whose two ends are covered
        pairs = Counter(
            (labeling[u], labeling[w]) for u, w in G.edges() if u in labeling and w in labeling
        )
    if target is not None:
        covered_edges = sum(pairs.values())
        violating = sum(c for (a, b), c in pairs.items() if not target.has_edge(a, b))
        vfrac = violating / covered_edges if covered_edges else 0.0
    if in_out:
        size = histogram.get("IN", 0)
        independent = {
            "size": size,
            "fraction": size / n if n else 0.0,
            "adjacent_in_in": pairs["IN", "IN"],
        }

    report = SimulationReport(
        n=n,
        d=d,
        t=t,
        model=str(model),
        rng_seed=rng_seed,
        histogram=histogram,
        covered=len(labeling),
        covered_fraction=len(labeling) / n if n else 1.0,
        seed_collisions=collisions,
        covered_edges=covered_edges,
        violating_edges=violating,
        violating_edge_fraction=vfrac,
        independent_set=independent,
    )
    return labeling, report


# ---------------------------------------------------------------------------
# the refutation pipeline


@dataclass
class PipelineStep:
    index: int
    name: str
    passed: bool | None
    data: dict


@dataclass
class PipelineReport:
    c0: object
    C: int
    r: int
    girth: float
    hypothesis_weakened: bool | None
    marginal_mode: str
    steps: list
    classification: str

    def step(self, index):
        return self.steps[index - 1]


def _weakened(C, r, c0, d):
    """Is C below the threshold the girth argument actually needs?  None at
    d <= 2, where there is no threshold."""
    if d <= 2:
        return None
    try:
        return C < ent.min_girth_constant(r, c0, d)
    except ent.Overflow:
        # the true constant is astronomically large, so any practical C is below it
        return True


def _target_profile(H):
    """The profile of the pipeline's target: H must be regular of degree
    r >= 2, the range of the girth constant r^(d/((d-2) c0))."""
    prof = graphs.profile(H)
    if prof.regular_degree is None:
        raise ValueError("the pipeline needs a regular target graph")
    if prof.regular_degree < 2:
        raise ValueError(
            f"the pipeline needs a target of degree >= 2, got degree {prof.regular_degree}"
        )
    return prof


def pipeline_from_laws(vertex, pair, H, c0, C, d=3):
    """Run the refutation chain on explicitly given marginals of a rule on T_d.

    This is the testing hook behind `theorem_pipeline`; it accepts any
    (vertex, pair) laws that `entropy.check_marginals` finds consistent, so
    synthetic laws can be audited too.
    The report's `marginal_mode` is "exact" or "mc:<n>", from the vertex
    law's provenance.
    """
    prof = _target_profile(H)
    r = prof.regular_degree
    ent.check_marginals(vertex, pair)
    c0f = ent.c0_fraction(c0)
    n_samples = vertex.provenance.n_samples
    steps = []

    # (1) support: every positive pair must be an edge of H
    bad = sorted(ent.support_violations(pair, H))
    bad_mass = sum(x for x, _, _ in bad)
    support_ok = not bad
    steps.append(
        PipelineStep(
            1,
            "support",
            support_ok,
            {
                "violating_mass": bad_mass,
                "violating_pairs": [(a, b) for _, a, b in bad[:5]],
            },
        )
    )

    # (2) vertex entropy against (d/(d-2)) ln r; passed None at d <= 2
    h_v, cap, cap_ok = ent.vertex_entropy_cap(vertex, r, d)
    steps.append(
        PipelineStep(
            2,
            "vertex_entropy_cap",
            cap_ok,
            {"h_vertex": h_v, "bound": cap, "margin": None if cap is None else cap - h_v},
        )
    )

    # (3) tail selection at C
    tail = ent.tail_select(vertex, C, c0f)
    outside_small = tail.outside_mass <= c0f
    steps.append(
        PipelineStep(
            3,
            "tail_mass",
            outside_small,
            {
                "selected": tail.selected,
                "outside_mass": tail.outside_mass,
                "c0": c0f,
                "tail_entropy": tail.tail_entropy,
                "max_outside_mass": tail.max_outside_mass,
                "outside_at_most_inv_C": tail.outside_at_most_inv_C,
            },
        )
    )

    # (4) acyclicity of H[S]; guaranteed when |S| < girth
    S = tail.selected
    guaranteed = len(S) < prof.girth
    try:
        coloring = graphs.induced_two_coloring(H, S)
        acyclic = True
        cycle = None
    except graphs.InducedCycle as exc:
        coloring = None
        acyclic = False
        cycle = exc.cycle
    steps.append(
        PipelineStep(
            4,
            "selected_set_acyclic",
            acyclic,
            {
                "selected_size": len(S),
                "girth": prof.girth,
                "guaranteed_by_girth": guaranteed,
                "coloring": coloring,
                "cycle": cycle,
            },
        )
    )

    # (5) domain mass of the composed partial 2-coloring against 1 - c0;
    # passed None at d <= 2, where T_d is an edge or a path and its factors
    # of i.i.d. give partial 2-colorings of any mass below 1
    domain_mass = tail.selected_mass
    threshold = None if d <= 2 else 1 - c0f
    big_domain = None if d <= 2 else domain_mass >= threshold
    steps.append(
        PipelineStep(
            5,
            "two_coloring_domain",
            big_domain,
            {"domain_mass": domain_mass, "threshold": threshold},
        )
    )

    if not support_ok:
        classification = "refuted at step 1: not a homomorphism (support)"
    elif cap_ok is False:
        classification = f"refuted at step 2: vertex entropy exceeds {Fraction(d, d - 2)} ln r"
    elif acyclic and big_domain:
        classification = (
            "refuted at step 5: partial 2-coloring domain mass reaches 1 - c0"
        )
    elif not acyclic:
        classification = "no refutation at these parameters (selected set induces a cycle)"
    else:
        classification = "no refutation at these parameters"

    return PipelineReport(
        c0=c0f,
        C=C,
        r=r,
        girth=prof.girth,
        hypothesis_weakened=_weakened(C, r, c0f, d),
        marginal_mode="exact" if n_samples is None else f"mc:{n_samples}",
        steps=steps,
        classification=classification,
    )


def theorem_pipeline(rule, H, c0, C, mode="exact", samples=None, rng_seed=None):
    """Marginals of the rule, then the five-step refutation chain against H."""
    if set(rule.output_alphabet) != set(range(H.n)):
        raise ValueError("rule output alphabet must equal the target vertex set")
    # refuse the target before the laws, whose cost grows with the rule's class
    _target_profile(H)
    if mode == "exact":
        if samples is not None or rng_seed is not None:
            raise ValueError("exact mode takes neither a sample count nor an rng seed")
        vertex, pair = ent.exact_marginals(rule)
    elif mode == "mc":
        if samples is None:
            raise ValueError("mc mode needs a sample count")
        vertex, pair = ent.mc_marginals(rule, samples, rng_seed or 0)
    else:
        raise ValueError(f"unknown marginal mode {mode!r}")
    return pipeline_from_laws(vertex, pair, H, c0, C, rule.d)
