"""Property tests of the structural rules the enumerator relies on, on
random nested joins and disjoint unions of small graphs.  Such graphs keep
``independence_polynomial`` splitting into components and co-components
at every depth; the references are the subset-enumeration oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from wellcovered import Graph, Polynomial, clique_polynomial, independence_polynomial, join

import bruteforce
from bruteforce import independence_polynomial_bruteforce


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.rows + tuple(r << g.n for r in h.rows))


@st.composite
def nested_graphs(draw, budget: int) -> Graph:
    """A random graph on at most ``budget`` vertices: a leaf of at most 5
    vertices, or a join or disjoint union of two nested graphs that share
    the budget.  Budgets above 5 always split."""
    if budget < 2 or (budget <= 5 and draw(st.booleans())):
        n = draw(st.integers(0, min(budget, 5)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])
    left = draw(st.integers(1, budget - 1))
    g = draw(nested_graphs(left))
    h = draw(nested_graphs(budget - left))
    return join([g, h]) if draw(st.booleans()) else disjoint_union(g, h)


@settings(max_examples=60, deadline=None)
@given(nested_graphs(7), nested_graphs(7))
def test_disjoint_union_multiplies(g, h):
    expected = independence_polynomial_bruteforce(g) * independence_polynomial_bruteforce(h)
    assert independence_polynomial(disjoint_union(g, h)) == expected


@settings(max_examples=60, deadline=None)
@given(nested_graphs(7), nested_graphs(7))
def test_join_adds_above_degree_zero(g, h):
    pg = independence_polynomial_bruteforce(g)
    ph = independence_polynomial_bruteforce(h)
    top = max(pg.degree, ph.degree)
    expected = [pg.coefficient(t) + ph.coefficient(t) for t in range(top + 1)]
    expected[0] -= 1
    assert independence_polynomial(join([g, h])) == Polynomial(expected)


@settings(max_examples=40, deadline=None)
@given(nested_graphs(14))
def test_clique_polynomial_counts_cliques(g):
    counts = [len(bruteforce.cliques_of_size(g, j)) for j in range(g.n + 1)]
    assert clique_polynomial(g) == Polynomial(counts)
