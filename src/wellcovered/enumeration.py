"""Exact counting and enumeration: independence/clique polynomials,
maximal independent sets and cliques, well-coveredness, the clique
extension property, and the binomial-ratio chain check.

Everything here is exhaustive and exact; coefficients and counts are
arbitrary-precision integers and all comparisons of ratios cross-multiply
big integers instead of going through floats.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, prod
from numbers import Rational
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .graph import Graph, _bits, complement
from .polynomial import Polynomial

# -- maximal clique / independent set enumeration ----------------------


def _components(mask: int, rows) -> list[int]:
    """Connected components of the graph induced on mask, as bit masks,
    ordered by smallest contained vertex."""
    comps = []
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        comp = 0
        frontier = seed
        while frontier:
            comp |= frontier
            nxt = 0
            for u in _bits(frontier):
                nxt |= rows[u]
            frontier = nxt & mask & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


def _bron_kerbosch(rows, clique: list[int], p: int, x: int) -> Iterator[tuple[int, ...]]:
    """Pivoting Bron-Kerbosch; yields maximal cliques in insertion order.

    Pivot: the vertex of P|X maximizing |P & N(u)|, ties to the lowest
    index, which keeps the enumeration order deterministic.
    """
    if p == 0 and x == 0:
        yield tuple(clique)
        return
    pivot = -1
    best = -1
    for u in _bits(p | x):
        d = (p & rows[u]).bit_count()
        if d > best:
            best = d
            pivot = u
    for v in _bits(p & ~rows[pivot]):
        bv = 1 << v
        clique.append(v)
        yield from _bron_kerbosch(rows, clique, p & rows[v], x & rows[v])
        clique.pop()
        p &= ~bv
        x |= bv


def maximal_cliques(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every maximal clique exactly once, as sorted vertex tuples.

    The graph is split into connected components first (a maximal clique
    never spans components), and each component is relabeled to a compact
    bit range so the inner recursion works on short masks.
    """
    if g.n == 0:
        yield ()
        return
    full = (1 << g.n) - 1
    for comp in _components(full, g.rows):
        verts = list(_bits(comp))
        local_index = {v: i for i, v in enumerate(verts)}
        local_rows = [0] * len(verts)
        for i, v in enumerate(verts):
            for w in _bits(g.rows[v] & comp):
                local_rows[i] |= 1 << local_index[w]
        for cl in _bron_kerbosch(local_rows, [], (1 << len(verts)) - 1, 0):
            yield tuple(sorted(verts[i] for i in cl))


def maximal_independent_sets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every maximal independent set exactly once (deterministic
    order for a fixed graph)."""
    return maximal_cliques(complement(g))


def cliques_of_size(g: Graph, j: int) -> Iterator[tuple[int, ...]]:
    """All cliques of size exactly j, by depth-first extension over the
    ordered vertex list; yields sorted tuples."""
    if j < 0:
        raise ValueError("clique size must be non-negative")
    if j == 0:
        yield ()
        return
    rows = g.rows
    full = (1 << g.n) - 1

    def extend(cur: list[int], cand: int) -> Iterator[tuple[int, ...]]:
        if len(cur) == j:
            yield tuple(cur)
            return
        for v in _bits(cand):
            cur.append(v)
            # candidates stay above v to emit each clique once
            yield from extend(cur, cand & rows[v] & (full << (v + 1)))
            cur.pop()

    yield from extend([], full)


# -- independence polynomial -------------------------------------------


def independence_polynomial(g: Graph) -> Polynomial:
    """Exact independence polynomial.

    Each node first tries two value-preserving decompositions that keep
    join-heavy product graphs tractable: disjoint unions multiply, and
    joins (detected as disconnected complements) add coefficientwise
    above degree zero.  A node that is connected and co-connected
    branches by one of two rules, picked by its own edge count (s
    vertices, degree sum D):

    - sparse (``2 * D <= s * (s - 1)``, no more edges than non-edges):
      ``I(G) = I(G - v) + x * I(G - N[v])`` on the maximum-degree pivot
      v, ties to the lowest index;
    - dense (more edges than non-edges): first-vertex expansion
      ``I(G) = 1 + x * sum_v I(G[later(v) - N(v)])``, v ascending, where
      later(v) are the vertices after v.  Each term is a non-neighbourhood
      of a dense graph, so it is small, and it goes back through both
      decompositions.
    """
    rows = g.rows
    n = g.n
    if n == 0:
        return Polynomial([1])
    corows = complement(g).rows

    def solve(mask: int) -> Sequence[int]:
        size = mask.bit_count()
        if size == 0:
            return [1]
        if size == 1:
            return [1, 1]
        comps = _components(mask, rows)
        if len(comps) > 1:
            factors = (Polynomial(solve(c)) for c in comps)
            return prod(factors, start=Polynomial([1])).coeffs
        cocomps = _components(mask, corows)
        if len(cocomps) > 1:
            parts = [solve(c) for c in cocomps]
            out = [0] * max(len(p) for p in parts)
            out[0] = 1
            for part in parts:
                for t in range(1, len(part)):
                    out[t] += part[t]
            return out
        # connected and co-connected: the edge count picks the branching rule
        pivot = -1
        best = -1
        degree_sum = 0
        for u in _bits(mask):
            d = (rows[u] & mask).bit_count()
            degree_sum += d
            if d > best:
                best = d
                pivot = u
        if 2 * degree_sum > size * (size - 1):
            # more edges than non-edges: expand on the first vertex
            out = [1, 0]
            rest = mask
            for v in _bits(mask):
                rest &= ~(1 << v)
                for t, c in enumerate(solve(rest & corows[v])):
                    if t + 1 < len(out):
                        out[t + 1] += c
                    else:
                        out.append(c)
            return out
        without = solve(mask & ~(1 << pivot))
        with_pivot = solve(mask & ~(rows[pivot] | (1 << pivot)))
        out = list(without)
        if len(out) < len(with_pivot) + 1:
            out.extend([0] * (len(with_pivot) + 1 - len(out)))
        for t, c in enumerate(with_pivot):
            out[t + 1] += c
        return out

    limit = sys.getrecursionlimit()
    bumped = max(limit, 3 * n + 200)
    sys.setrecursionlimit(bumped)
    try:
        coeffs = solve((1 << n) - 1)
    finally:
        sys.setrecursionlimit(limit)
    return Polynomial(coeffs)


def clique_polynomial(g: Graph) -> Polynomial:
    """Clique-count polynomial, computed on the complement."""
    return independence_polynomial(complement(g))


# -- well-coveredness ---------------------------------------------------


@dataclass(frozen=True)
class WellCoveredReport:
    """Outcome of the well-coveredness test.

    ``witness`` is a pair of maximal independent sets of distinct sizes
    whenever the graph is not well-covered, else None.  ``alpha`` is the
    independence number in either case.
    """

    is_well_covered: bool
    alpha: int
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]

    def to_json(self) -> dict:
        return {
            "is_well_covered": self.is_well_covered,
            "alpha": self.alpha,
            "witness": None if self.witness is None else [list(s) for s in self.witness],
        }


def is_well_covered(g: Graph) -> WellCoveredReport:
    smallest: Optional[tuple[int, ...]] = None
    largest: Optional[tuple[int, ...]] = None
    for s in maximal_independent_sets(g):
        if smallest is None or len(s) < len(smallest):
            smallest = s
        if largest is None or len(s) > len(largest):
            largest = s
    assert smallest is not None and largest is not None
    if len(smallest) == len(largest):
        return WellCoveredReport(True, len(largest), None)
    return WellCoveredReport(False, len(largest), (smallest, largest))


# -- clique extension property ------------------------------------------


@dataclass(frozen=True)
class CliqueExtensionReport:
    """Result of checking the three clique-coverage conditions:

    1. every maximal clique has size q;
    2. every (k+1)-clique lies in exactly one maximal clique;
    3. every k-clique lies in at least m maximal cliques (for k = 0 this
       reads: the graph has at least m maximal cliques, since the empty
       clique lies in all of them).

    ``violations`` holds at most one (condition, witness clique) pair per
    failed condition.
    """

    holds: bool
    k: int
    q: int
    m: int
    violations: tuple[tuple[int, tuple[int, ...]], ...]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "k": self.k,
            "q": self.q,
            "m": self.m,
            "violations": [
                {"condition": c, "witness": list(w)} for c, w in self.violations
            ],
        }


def check_clique_extension(g: Graph, k: int, q: int, m: int) -> CliqueExtensionReport:
    """Exhaustively verify the clique extension property with parameters
    (k, q, m).  No sampling: every relevant clique is enumerated and its
    containing maximal cliques counted by candidate-set intersection."""
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < q, got k={k}, q={q}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    cliques = list(maximal_cliques(g))
    violations: list[tuple[int, tuple[int, ...]]] = []

    for cl in cliques:
        if len(cl) != q:
            violations.append((1, cl))
            break

    # membership[v] has bit c set iff maximal clique c contains v
    membership = [0] * g.n
    for ci, cl in enumerate(cliques):
        for v in cl:
            membership[v] |= 1 << ci

    def containing(cl: tuple[int, ...]) -> int:
        count_mask = (1 << len(cliques)) - 1
        for v in cl:
            count_mask &= membership[v]
        return count_mask.bit_count()

    for cl in cliques_of_size(g, k + 1):
        if containing(cl) != 1:
            violations.append((2, cl))
            break

    if k == 0:
        if len(cliques) < m:
            violations.append((3, ()))
    else:
        for cl in cliques_of_size(g, k):
            if containing(cl) < m:
                violations.append((3, cl))
                break

    return CliqueExtensionReport(not violations, k, q, m, tuple(violations))


# -- binomial-ratio chain -----------------------------------------------


class ChainCheck(NamedTuple):
    """Result of a monotone-chain verification.

    ``first_violation`` is the smallest index t where the inequality
    between positions t and t+1 fails, or None when the chain holds.
    """

    holds: bool
    first_violation: Optional[int]


def check_ratio_chain(q: int, a: Callable[[int], Rational]) -> ChainCheck:
    """Exact check of a(t)/C(q,t) <= a(t+1)/C(q,t+1) for 1 <= t < q,
    cross-multiplied; reports the smallest violating t."""
    for t in range(1, q):
        if a(t) * comb(q, t + 1) > a(t + 1) * comb(q, t):
            return ChainCheck(False, t)
    return ChainCheck(True, None)


def binomial_ratio_check(g: Graph) -> ChainCheck:
    """Check i_t / C(q,t) <= i_{t+1} / C(q,t+1) for 1 <= t < q on a
    well-covered graph with independence number q.

    Raises ValueError when the input graph is not well-covered.
    """
    report = is_well_covered(g)
    if not report.is_well_covered:
        raise ValueError(
            "binomial_ratio_check requires a well-covered graph; "
            f"found maximal independent sets of sizes {len(report.witness[0])} "
            f"and {len(report.witness[1])}"
        )
    return check_ratio_chain(report.alpha, independence_polynomial(g).coefficient)
