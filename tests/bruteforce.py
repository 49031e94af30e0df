"""Deliberately dumb reference implementations used as test oracles.

Everything here enumerates subsets with itertools and checks pairwise
adjacency directly, independent of the bitset algorithms under test.
Keep these slow and obvious.
"""

from itertools import combinations
from random import Random

from wellcovered import Graph, Polynomial


def random_graph(rng: Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def is_independent(g: Graph, subset) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(subset, 2))


def is_clique(g: Graph, subset) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(subset, 2))


def independence_counts(g: Graph) -> list:
    """Coefficient list of the independence polynomial, by full enumeration."""
    counts = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            if is_independent(g, subset):
                counts[size] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def independence_polynomial_bruteforce(g: Graph) -> Polynomial:
    """Independent oracle: count independent sets by enumerating all 2^n
    subsets.  Limited to n <= 20."""
    n = g.n
    if n > 20:
        raise ValueError(f"brute-force oracle limited to n <= 20, got {n}")
    rows = g.rows
    counts = [0] * (n + 1)
    counts[0] = 1
    independent = bytearray(1 << n)
    independent[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        if independent[rest] and not rows[low.bit_length() - 1] & rest:
            independent[mask] = 1
            counts[mask.bit_count()] += 1
    return Polynomial(counts)


def maximal_independent_sets(g: Graph) -> set:
    """All maximal independent sets, by filtering every subset."""
    out = set()
    verts = range(g.n)
    for size in range(g.n + 1):
        for subset in combinations(verts, size):
            if not is_independent(g, subset):
                continue
            if any(
                v not in subset and is_independent(g, subset + (v,)) for v in verts
            ):
                continue
            out.add(subset)
    return out


def maximal_cliques(g: Graph) -> set:
    out = set()
    verts = range(g.n)
    for size in range(g.n + 1):
        for subset in combinations(verts, size):
            if not is_clique(g, subset):
                continue
            if any(v not in subset and is_clique(g, subset + (v,)) for v in verts):
                continue
            out.add(subset)
    return out


def cliques_of_size(g: Graph, j: int) -> set:
    return {s for s in combinations(range(g.n), j) if is_clique(g, s)}
