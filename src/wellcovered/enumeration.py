"""Exact counting and enumeration: independence/clique polynomials,
maximal independent sets and cliques, well-coveredness, the clique
extension property, and the binomial-ratio chain check.

Everything here is exhaustive and exact; coefficients and counts are
arbitrary-precision integers and all comparisons of ratios cross-multiply
big integers instead of going through floats.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, prod
from numbers import Rational
from typing import Callable, Iterator, NamedTuple, Optional

from .graph import Graph, complement
from .polynomial import Polynomial

# -- maximal clique / independent set enumeration ----------------------


def _components(mask: int, rows) -> list[int]:
    """Connected components of the graph induced on mask, as bit masks,
    ordered by smallest contained vertex."""
    comps = []
    remaining = mask
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


def _bron_kerbosch(rows, p: int) -> Iterator[tuple[int, ...]]:
    """Pivoting Bron-Kerbosch on an explicit stack; yields the maximal
    cliques inside the vertex set p as sorted tuples.

    Pivot: the vertex of P|X maximizing |P & N(u)|, ties to the lowest
    index; the candidates P - N(pivot) are taken in ascending order.
    This fixes the enumeration order.  Each frame is [P, X, candidates
    left]; the clique of frame i is ``clique[:i]``.
    """
    clique: list[int] = []
    stack: list[list[int]] = []
    x = 0
    while True:
        if p:
            pivot = -1
            best = -1
            scan = p | x
            while scan:
                low = scan & -scan
                u = low.bit_length() - 1
                d = (p & rows[u]).bit_count()
                if d > best:
                    best = d
                    pivot = u
                scan ^= low
            stack.append([p, x, p & ~rows[pivot]])
        elif not x:
            yield tuple(sorted(clique))
        # otherwise P is empty and X is not: the clique is not maximal
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return
        frame = stack[-1]
        p, x, cand = frame
        low = cand & -cand
        v = low.bit_length() - 1
        frame[0] = p ^ low
        frame[1] = x | low
        frame[2] = cand ^ low
        del clique[len(stack) - 1 :]
        clique.append(v)
        p &= rows[v]
        x &= rows[v]


def maximal_cliques(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every maximal clique exactly once, as sorted vertex tuples.

    A maximal clique never spans components, so Bron-Kerbosch runs on
    each connected component in turn, ordered by smallest vertex.
    """
    if g.n == 0:
        yield ()
        return
    for comp in _components((1 << g.n) - 1, g.rows):
        yield from _bron_kerbosch(g.rows, comp)


def maximal_independent_sets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every maximal independent set exactly once (deterministic
    order for a fixed graph)."""
    return maximal_cliques(complement(g))


def cliques_of_size(g: Graph, j: int) -> Iterator[tuple[int, ...]]:
    """All cliques of size exactly j in lexicographic order, by depth-first
    extension over the ordered vertex list on an explicit stack; yields
    sorted tuples."""
    if j < 0:
        raise ValueError("clique size must be non-negative")
    if j == 0:
        yield ()
        return
    rows = g.rows
    cur: list[int] = []
    # stack[d]: candidates left at depth d, all above cur[d - 1]
    stack = [(1 << g.n) - 1]
    while stack:
        d = len(stack) - 1
        cand = stack[d]
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        stack[d] = rest = cand ^ low
        del cur[d:]
        cur.append(v)
        if d + 1 == j:
            yield tuple(cur)
        else:
            stack.append(rest & rows[v])


# -- independence polynomial -------------------------------------------

# Masks one independence_polynomial call memoizes.  The complements of
# function graphs up to 864 vertices and the q = 2 certificates need at
# most about 3100.  Past the cap a node is solved without being stored,
# so an input whose search does not finish takes time but not ever more
# memory.
_MEMO_ENTRIES = 1 << 14


def independence_polynomial(g: Graph) -> Polynomial:
    """Exact independence polynomial.

    Each node first tries two value-preserving decompositions that keep
    join-heavy product graphs tractable: disjoint unions multiply, and
    joins (detected as disconnected complements) add coefficientwise
    above degree zero.  Singleton components of a disjoint union fold
    into one ``(1 + x)^s`` factor.  A node that is connected and
    co-connected branches by one of two rules, picked by its own edge
    count (s vertices, degree sum D):

    - sparse (``2 * D <= s * (s - 1)``, no more edges than non-edges):
      ``I(G) = I(G - v) + x * I(G - N[v])`` on the maximum-degree pivot
      v, ties to the lowest index;
    - dense (more edges than non-edges): first-vertex expansion
      ``I(G) = 1 + x * sum_v I(G[later(v) - N(v)])``, v ascending, where
      later(v) are the vertices after v.  Each term is a non-neighbourhood
      of a dense graph, so it is small, and it goes back through both
      decompositions.

    Each induced subgraph is solved once per call: a dict local to the
    call memoizes the coefficient tuple of each vertex mask, up to
    ``_MEMO_ENTRIES`` masks.
    """
    rows = g.rows
    n = g.n
    if n == 0:
        return Polynomial([1])
    corows = complement(g).rows
    memo: dict[int, tuple[int, ...]] = {}

    def solve(mask: int) -> tuple[int, ...]:
        size = mask.bit_count()
        if size == 0:
            return (1,)
        if size == 1:
            return (1, 1)
        out = memo.get(mask)
        if out is not None:
            return out
        comps = _components(mask, rows)
        cocomps = _components(mask, corows) if len(comps) == 1 else []
        if len(comps) > 1:
            big = [c for c in comps if c & (c - 1)]
            singles = len(comps) - len(big)
            factor = Polynomial([comb(singles, t) for t in range(singles + 1)])
            factors = (Polynomial(solve(c)) for c in big)
            out = prod(factors, start=factor).coeffs
        elif len(cocomps) > 1:
            parts = [solve(c) for c in cocomps]
            acc = [0] * max(len(p) for p in parts)
            acc[0] = 1
            for part in parts:
                for t in range(1, len(part)):
                    acc[t] += part[t]
            out = tuple(acc)
        else:
            # connected and co-connected: the edge count picks the rule
            pivot = -1
            best = -1
            degree_sum = 0
            rest = mask
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                d = (rows[u] & mask).bit_count()
                degree_sum += d
                if d > best:
                    best = d
                    pivot = u
                rest ^= low
            if 2 * degree_sum > size * (size - 1):
                # more edges than non-edges: expand on the first vertex
                acc = [1, 0]
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    for t, c in enumerate(solve(rest & corows[low.bit_length() - 1])):
                        if t + 1 < len(acc):
                            acc[t + 1] += c
                        else:
                            acc.append(c)
            else:
                acc = list(solve(mask & ~(1 << pivot)))
                with_pivot = solve(mask & ~(rows[pivot] | (1 << pivot)))
                if len(acc) < len(with_pivot) + 1:
                    acc.extend([0] * (len(with_pivot) + 1 - len(acc)))
                for t, c in enumerate(with_pivot):
                    acc[t + 1] += c
            out = tuple(acc)
        if len(memo) < _MEMO_ENTRIES:
            memo[mask] = out
        return out

    limit = sys.getrecursionlimit()
    bumped = max(limit, 3 * n + 200)
    sys.setrecursionlimit(bumped)
    try:
        coeffs = solve((1 << n) - 1)
    finally:
        sys.setrecursionlimit(limit)
        # solve holds itself through its closure; breaking that cycle frees
        # the memo and the complement's rows now, not at the next collection
        del solve
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
    if smallest is None or largest is None:
        raise AssertionError("maximal_independent_sets yielded no set")
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
    (k, q, m), reading every condition off the maximal cliques.  No
    sampling.

    Every clique lies in some maximal clique C.  A (k+1)-clique S inside
    C lies in a second maximal clique iff some common neighbour of S is
    outside C, so condition 2 checks the common neighbourhood of each
    (k+1)-subset of each maximal clique.  The number of maximal cliques
    containing a k-clique is the number of times it occurs as a k-subset
    of one, so condition 3 counts those subsets.  Condition 1 reports the
    first wrong-sized maximal clique in enumeration order; conditions 2
    and 3 report the lexicographically smallest offending clique.
    """
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

    rows = g.rows
    witness: Optional[tuple[int, ...]] = None
    for cl in cliques:
        outside = -1
        for v in cl:
            outside ^= 1 << v
        # subsets come in lexicographic order: stop at the first offender,
        # or once past the smallest offender found so far
        for s in combinations(cl, k + 1):
            if witness is not None and s >= witness:
                break
            common = outside
            for v in s:
                common &= rows[v]
            if common:
                witness = s
                break
    if witness is not None:
        violations.append((2, witness))

    if m > 1:  # at m = 1 it holds: every clique lies in a maximal one
        counts = Counter(chain.from_iterable(combinations(cl, k) for cl in cliques))
        short = [s for s, c in counts.items() if c < m]
        if short:
            violations.append((3, min(short)))

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
