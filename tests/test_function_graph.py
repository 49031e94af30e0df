from itertools import combinations
from math import comb

import pytest

from wellcovered import (
    BudgetExceededError,
    FunctionVertex,
    build_function_graph,
    check_clique_extension,
    clique_count_closed_form,
    clique_polynomial,
    complement,
    complete,
    disjoint_copies,
    function_vertices,
    is_well_covered,
    maximal_cliques,
    vertex_count,
)

import bruteforce

# every parameter triple with 0 <= k < q <= 5, 1 <= m <= 4 that stays
# within 200 vertices; the acceptance suite runs the same grid
GRID = [
    (k, q, m)
    for q in range(1, 6)
    for k in range(q)
    for m in range(1, 5)
    if q * m ** comb(q - 1, k) <= 200
]


def test_grid_includes_required_points():
    for point in [(1, 3, 2), (1, 3, 3), (2, 3, 2), (2, 3, 4), (1, 4, 2), (2, 4, 2), (3, 4, 2)]:
        assert point in GRID
    for q in range(1, 6):
        for m in range(1, 5):
            assert (0, q, m) in GRID


def test_vertex_count():
    assert vertex_count(1, 3, 2) == 12
    assert vertex_count(0, 3, 2) == 6
    assert vertex_count(1, 5, 10) == 50_000
    assert vertex_count(2, 3, 2) == 6
    for k, q, m in GRID:
        assert build_function_graph(k, q, m).n == vertex_count(k, q, m)


def test_degenerate_cases():
    assert build_function_graph(1, 3, 1) == complete(3)
    assert build_function_graph(2, 5, 1) == complete(5)
    assert build_function_graph(0, 3, 2) == disjoint_copies(complete(3), 2)


def test_small_example_structure():
    h = build_function_graph(1, 3, 2)
    assert h.n == 12
    assert h.edge_count() == 24
    cliques = list(maximal_cliques(h))
    assert len(cliques) == 8
    assert all(len(c) == 3 for c in cliques)
    # vertex order: i ascending, then vector as little-endian base-m
    labels = function_vertices(1, 3, 2)
    assert labels[0] == FunctionVertex(1, (1, 1))
    assert labels[1] == FunctionVertex(2, (1, 1)) or labels[4] == FunctionVertex(2, (1, 1))


# k = 1..3 and q <= 5, m = 1 included; each side's ground {1..q}\{i} has
# a gap.  Colex and lex order first differ on the 2-subsets of a 4-set, so
# the (2, 5, m) triples pin the colex order.
ADJACENCY_TRIPLES = [
    (1, 2, 3), (1, 3, 1), (1, 3, 4), (1, 4, 2), (1, 4, 3), (1, 5, 2),
    (2, 3, 3), (2, 4, 1), (2, 4, 2), (2, 5, 1), (2, 5, 2), (3, 4, 3),
    (3, 5, 1), (3, 5, 2),
]


@pytest.mark.parametrize("k,q,m", ADJACENCY_TRIPLES)
def test_adjacency_rule_matches_definition(k, q, m):
    # vertex order and the declared adjacency predicate, read off the
    # labels through the combinatorial number system
    h = build_function_graph(k, q, m)
    labels = function_vertices(k, q, m)
    vectors = bruteforce.assignment_vectors(comb(q - 1, k), m)
    assert labels == tuple(
        FunctionVertex(i, vec) for i in range(1, q + 1) for vec in vectors
    )
    grounds = {i: [x for x in range(1, q + 1) if x != i] for i in range(1, q + 1)}

    def value(label, s):
        return label.values[bruteforce.colex_rank(s, grounds[label.i])]

    for u in range(h.n):
        fu = labels[u]
        for v in range(u + 1, h.n):
            fv = labels[v]
            shared = [x for x in grounds[fu.i] if x != fv.i]
            expected = fu.i != fv.i and all(
                value(fu, s) == value(fv, s) for s in combinations(shared, k)
            )
            assert h.has_edge(u, v) == expected, (u, v, fu, fv)


def test_clique_of():
    # m = 1: the unique global function restricts to the whole of K_3
    (fn,) = bruteforce.global_functions(1, 3, 1)
    assert sorted(bruteforce.clique_of(fn, 1, 3, 1)) == [0, 1, 2]

    # constant global function at (1,3,2) gives an actual triangle
    h = build_function_graph(1, 3, 2)
    triangle = bruteforce.clique_of((1, 1, 1), 1, 3, 2)
    assert len(triangle) == 3
    assert bruteforce.is_clique(h, triangle)

    # k = 0: value class c is the c-th copy
    assert bruteforce.clique_of((2,), 0, 3, 2) == (3, 4, 5)


def test_restriction_cliques_cover_all_maximal_cliques():
    # injectivity and coverage of the global-function -> clique map, over
    # the whole grid: maximal cliques are exactly the m^C(q,k) restriction
    # cliques, one per global function
    for k, q, m in GRID:
        h = build_function_graph(k, q, m)
        fns = bruteforce.global_functions(k, q, m)
        assert len(fns) == m ** comb(q, k)
        mapped = {tuple(sorted(bruteforce.clique_of(f, k, q, m))) for f in fns}
        assert len(mapped) == len(fns)
        assert mapped == set(maximal_cliques(h)), (k, q, m)


def test_coverage_multiplicities_on_grid():
    # every (k+1)-clique extends to exactly one maximal clique and every
    # k-clique to exactly m of them
    from wellcovered import cliques_of_size

    for k, q, m in GRID:
        h = build_function_graph(k, q, m)
        cliques = list(maximal_cliques(h))
        membership = [0] * h.n
        for ci, cl in enumerate(cliques):
            for v in cl:
                membership[v] |= 1 << ci

        def count_containing(cl):
            mask = (1 << len(cliques)) - 1
            for v in cl:
                mask &= membership[v]
            return mask.bit_count()

        assert all(count_containing(c) == 1 for c in cliques_of_size(h, k + 1))
        if k >= 1:
            assert all(count_containing(c) == m for c in cliques_of_size(h, k))
        else:
            assert len(cliques) == m


def test_closed_form_against_enumeration():
    # the last four reach n = 2048, beyond the 200-vertex grid
    cases = [(1, 3, 2), (1, 3, 3), (2, 3, 4), (1, 4, 2), (3, 4, 2), (0, 4, 4)]
    cases += [(1, 4, 8), (1, 3, 20), (2, 4, 5), (1, 5, 4)]
    for k, q, m in cases:
        h = build_function_graph(k, q, m)
        poly = clique_polynomial(h)
        for j in range(q + 1):
            assert poly.coefficient(j) == clique_count_closed_form(k, q, m, j), (k, q, m, j)
        assert poly.degree == q


def test_closed_form_examples():
    assert clique_count_closed_form(1, 3, 2, 3) == 8
    assert clique_count_closed_form(1, 3, 2, 2) == 24
    assert clique_count_closed_form(1, 3, 2, 1) == 12
    assert clique_count_closed_form(0, 3, 5, 2) == 15
    assert clique_count_closed_form(2, 3, 2, 1) == 6 == vertex_count(2, 3, 2)
    assert clique_count_closed_form(1, 3, 2, 0) == 1
    with pytest.raises(ValueError):
        clique_count_closed_form(1, 3, 2, 4)
    with pytest.raises(ValueError):
        clique_count_closed_form(3, 3, 2, 1)


def test_complement_well_covered():
    for k, q, m in [(1, 3, 2), (2, 3, 4), (1, 4, 3), (0, 5, 2)]:
        report = is_well_covered(complement(build_function_graph(k, q, m)))
        assert report.is_well_covered
        assert report.alpha == q


def test_extension_property_spot_checks():
    for k, q, m in [(1, 3, 2), (2, 4, 2), (3, 4, 2), (0, 2, 4)]:
        assert check_clique_extension(build_function_graph(k, q, m), k, q, m).holds


def test_budget_refusal():
    with pytest.raises(BudgetExceededError) as err:
        build_function_graph(1, 5, 100)
    assert "500000000" in str(err.value)
    with pytest.raises(BudgetExceededError):
        build_function_graph(1, 3, 2, vertex_budget=10)
    # the budget only counts vertices actually required
    assert build_function_graph(1, 3, 2, vertex_budget=12).n == 12


def test_param_validation():
    for bad in [(3, 3, 2), (-1, 3, 2), (0, 0, 1), (1, 3, 0)]:
        with pytest.raises(ValueError):
            build_function_graph(*bad)
        with pytest.raises(ValueError):
            vertex_count(*bad)
