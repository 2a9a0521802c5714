"""Emulation of tree rules on finite graphs, and the end-to-end refutation
pipeline for candidate homomorphism rules.

A vertex of a finite graph is *covered* when its radius-t ball is isomorphic
to the radius-t ball of the d-regular tree (a tree with full internal
degrees); the rule applies verbatim there and the empirical label law on
covered vertices matches the tree law as coverage tends to one.  Vertices on
short cycles, or with deficient degrees, stay unlabeled and are counted.

The pipeline walks the refutation chain for a candidate rule against a
regular target H: (1) is the pair law supported on edges of H, (2) is the
vertex entropy within 3 ln r, (3) how much mass escapes the C-1 heaviest
labels, (4) is the selected set acyclic in H, (5) does the composed partial
2-coloring reach domain mass 1 - c0.  The pipeline refuses the laws the
audit refuses (`entropy.check_marginals`), and steps 1 and 2 use the checks
of `entropy.audit`: `support_violations`, `entropy_caps` and `tolerance`.  Each
step reports its numbers; the classification names the refuting step or
states that no refutation follows at the chosen parameters.
"""

import random
from dataclasses import dataclass

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

    covered_edges = None
    violating = None
    vfrac = None
    if target is not None:
        covered_edges = 0
        violating = 0
        for u, w in G.edges():
            if u in labeling and w in labeling:
                covered_edges += 1
                if not target.has_edge(labeling[u], labeling[w]):
                    violating += 1
        vfrac = violating / covered_edges if covered_edges else 0.0

    independent = None
    if set(rule.output_alphabet) == {"IN", "OUT"}:
        size = histogram.get("IN", 0)
        adjacent = sum(
            1
            for u, w in G.edges()
            if labeling.get(u) == "IN" and labeling.get(w) == "IN"
        )
        independent = {
            "size": size,
            "fraction": size / n if n else 0.0,
            "adjacent_in_in": adjacent,
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
    hypothesis_weakened: bool
    marginal_mode: str
    steps: list
    classification: str

    def step(self, index):
        return self.steps[index - 1]


def _weakened(C, r, c0):
    """Is C below the threshold the girth argument actually needs?"""
    try:
        return C < ent.min_girth_constant(r, c0)
    except ent.Overflow:
        # the true constant is astronomically large, so any practical C is below it
        return True


def pipeline_from_laws(vertex, pair, H, c0, C):
    """Run the refutation chain on explicitly given marginals.

    This is the testing hook behind `theorem_pipeline`; it accepts any
    (vertex, pair) laws that `entropy.check_marginals` finds consistent, so
    synthetic laws can be audited too.
    The report's `marginal_mode` is "exact" or "mc:<n>", from the vertex
    law's provenance.
    """
    prof = graphs.profile(H)
    if prof.regular_degree is None:
        raise ValueError("the pipeline needs a regular target graph")
    r = prof.regular_degree
    if r < 1:
        raise ValueError(f"the pipeline needs a target of degree >= 1, got degree {r}")
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

    # (2) vertex entropy against 3 ln r
    h_v = ent.entropy(vertex)
    _, cap = ent.entropy_caps(r)
    cap_ok = h_v <= cap + ent.tolerance(vertex, n_samples)
    steps.append(
        PipelineStep(
            2,
            "vertex_entropy_cap",
            cap_ok,
            {"h_vertex": h_v, "bound": cap, "margin": cap - h_v},
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

    # (5) domain mass of the composed partial 2-coloring
    domain_mass = tail.selected_mass
    threshold = 1 - c0f
    big_domain = domain_mass >= threshold
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
    elif not cap_ok:
        classification = "refuted at step 2: vertex entropy exceeds 3 ln r"
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
        hypothesis_weakened=_weakened(C, r, c0f),
        marginal_mode="exact" if n_samples is None else f"mc:{n_samples}",
        steps=steps,
        classification=classification,
    )


def theorem_pipeline(rule, H, c0, C, mode="exact", samples=None, rng_seed=None):
    """Marginals of the rule, then the five-step refutation chain against H."""
    if set(rule.output_alphabet) != set(range(H.n)):
        raise ValueError("rule output alphabet must equal the target vertex set")
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
    return pipeline_from_laws(vertex, pair, H, c0, C)
