"""Peak allocations of random regular graphs and of graph and rule files,
held under fixed bounds.

tracemalloc counts the Python allocations live during one call.  Read line
by line, written from a line generator, and checked by int edge keys, the
calls below peaked at 4.8 MiB (random_regular), 6.9 MiB (read_graph),
1.2 MiB (load_rule) and under 0.1 MiB (write_graph, save_rule) when the
bounds were set.  Holding the whole file text and sets of (u, v) tuples
took 12.2, 12.3, 8.0, 2.6 and 9.0 MiB.  The bounds leave headroom for other
Python versions.

The packed columns of the alphabet:3 t=2 cell form, each spanning only the
108 blocks of its ball's root tag, retained 0.40 MiB when their bound was
set; columns over all 324 blocks retained 0.77 MiB.
"""

import gc
import tracemalloc

import pytest

from fiidlab import entropy, graphs, rules

MiB = 1 << 20


def traced(fn):
    """(result, peak MiB, MiB still allocated) of one call of fn."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / MiB, current / MiB


@pytest.fixture(scope="module")
def graph():
    return graphs.random_regular(20000, 3, 5)


@pytest.fixture(scope="module")
def rank_t2_rule():
    return rules.random_rule(3, 2, rules.rank(), (0, 1, 2), 1)


def test_random_regular_peak_and_retained(graph):
    G, peak, retained = traced(lambda: graphs.random_regular(20000, 3, 5))
    assert G == graph
    assert peak < 7, f"random_regular peaked at {peak:.2f} MiB"
    # the neighbor tuples share the pairing's vertex ints (1.98 MiB when set)
    assert retained < 2.6, f"the graph holds {retained:.2f} MiB"


def test_write_graph_streams(graph, tmp_path):
    _, peak, _ = traced(lambda: graphs.write_graph(graph, tmp_path / "g.graph"))
    assert peak < 1, f"write_graph peaked at {peak:.2f} MiB"


def test_read_graph_retains_what_random_regular_does(graph, tmp_path):
    path = tmp_path / "g.graph"
    graphs.write_graph(graph, path)
    G, peak, retained = traced(lambda: graphs.read_graph(path))
    assert G == graph
    assert peak < 9, f"read_graph peaked at {peak:.2f} MiB"
    # one shared int per vertex in the neighbor tuples: 1.98 MiB when set,
    # 2.96 MiB when every parsed endpoint stayed its own int
    assert retained < 2.6, f"the graph read holds {retained:.2f} MiB"


def test_rule_files_stream(rank_t2_rule, tmp_path):
    path = tmp_path / "r.rule"
    _, peak, _ = traced(lambda: rules.save_rule(rank_t2_rule, path))
    assert peak < 1, f"save_rule peaked at {peak:.2f} MiB"
    rule, peak, _ = traced(lambda: rules.load_rule(path))
    assert rule == rank_t2_rule
    assert peak < 3, f"load_rule peaked at {peak:.2f} MiB"


def test_alphabet_columns_span_their_runs():
    rules.enumerate_canonical_balls(3, 2, rules.alphabet(3))
    form = entropy._half_tree_types(3, 2, 3)  # a fresh form, outside the class cache
    columns, peak, retained = traced(lambda: form.columns)
    assert columns is not None
    assert retained < 0.5, f"the columns hold {retained:.2f} MiB"
