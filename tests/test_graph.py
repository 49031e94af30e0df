from itertools import combinations
from random import Random

import pytest

from wellcovered import (
    Graph,
    Polynomial,
    complement,
    complete,
    disjoint_copies,
    independence_polynomial,
    join,
)

from bruteforce import kneser, random_graph


def components(g):
    seen = set()
    count = 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(g.neighbors(v))
    return count


def test_complete_examples():
    assert complete(1).n == 1 and complete(1).edge_count() == 0
    assert complete(3).edge_count() == 3
    assert complete(5).edge_count() == 10
    with pytest.raises(ValueError):
        complete(0)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(1, [1])  # self-loop bit
    with pytest.raises(ValueError):
        Graph(2, [4, 0])  # row references vertex 2 on a 2-vertex graph


def test_graph_immutable():
    g = complete(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_disjoint_copies():
    two_k3 = disjoint_copies(complete(3), 2)
    assert two_k3.n == 6 and two_k3.edge_count() == 6
    assert components(two_k3) == 2

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert disjoint_copies(g, 1) == g

    three_k2 = disjoint_copies(complete(2), 3)
    assert three_k2.n == 6 and three_k2.edge_count() == 3
    with pytest.raises(ValueError):
        disjoint_copies(g, 0)


def test_complement_examples():
    assert complement(complete(3)).edge_count() == 0
    comp = complement(disjoint_copies(complete(3), 2))
    # complement of two triangles is the complete bipartite graph K_{3,3}
    assert comp.n == 6 and comp.edge_count() == 9
    assert sorted(comp.edges()) == [
        (u, v) for u in range(3) for v in range(3, 6)
    ]


def test_complement_involution_exact():
    rng = Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 12))
        assert complement(complement(g)) == g


def test_join_examples():
    assert join([complete(1), complete(1)]) == complete(2)
    e2 = Graph.from_edges(2, [])
    c4 = join([e2, e2])
    assert c4.edge_count() == 4
    assert sorted(c4.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    with pytest.raises(ValueError):
        join([])


def test_join_additivity_of_counts():
    rng = Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 7))
        h = random_graph(rng, rng.randint(1, 7))
        joined = independence_polynomial(join([g, h]))
        pg = independence_polynomial(g)
        ph = independence_polynomial(h)
        assert joined.coefficient(0) == 1
        for t in range(1, max(len(pg), len(ph)) + 1):
            assert joined.coefficient(t) == pg.coefficient(t) + ph.coefficient(t)


def test_disjoint_copies_polynomial_multiplicativity():
    rng = Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 6))
        base = independence_polynomial(g)
        power = Polynomial([1])
        for c in (1, 2, 3):
            power = power * base
            assert independence_polynomial(disjoint_copies(g, c)) == power


def test_kneser():
    assert kneser(3, 1) == complete(3)
    for n in (2, 4, 5):
        assert kneser(n, 1) == complete(n)

    petersen = kneser(5, 2)
    assert petersen.n == 10
    assert petersen.edge_count() == 15
    assert all(petersen.degree(v) == 3 for v in range(10))

    big = kneser(8, 2)
    assert big.n == 28
    assert all(big.degree(v) == 15 for v in range(28))
    # vertices are the 2-subsets in lexicographic order and adjacency is
    # exactly disjointness
    subsets = list(combinations(range(1, 9), 2))
    for u in range(big.n):
        for v in range(u + 1, big.n):
            disjoint = not set(subsets[u]) & set(subsets[v])
            assert big.has_edge(u, v) == disjoint

    with pytest.raises(ValueError):
        kneser(3, 4)
    with pytest.raises(ValueError):
        kneser(3, 0)
