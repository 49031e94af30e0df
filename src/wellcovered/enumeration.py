"""Exact counting and enumeration: the independence polynomial,
maximal independent sets and cliques, well-coveredness, the clique
extension property, and the binomial-ratio chain check.

Everything here is exhaustive and exact; coefficients and counts are
arbitrary-precision integers and all comparisons of ratios cross-multiply
big integers instead of going through floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from numbers import Rational
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .function_graph import _validate_params
from .graph import Graph, _bits, complement
from .polynomial import Polynomial, _convolve

# -- maximal clique / independent set enumeration ----------------------


def _components(mask: int, rows) -> list[int]:
    """Connected components of the graph induced on mask, as bit masks,
    ordered by smallest contained vertex."""
    comps = []
    while mask:  # mask holds the vertices no component has reached yet
        comp = frontier = mask & -mask
        mask ^= frontier
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask
            mask ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def _max_degree(scan: int, t: int, rows) -> int:
    """The vertex of scan with the most neighbours in T, ties to the
    lowest index: the pivot of Bron-Kerbosch and of the pivot rule."""
    pivot = -1
    best = -1
    while scan:
        low = scan & -scan
        u = low.bit_length() - 1
        degree = (rows[u] & t).bit_count()
        if degree > best:
            best = degree
            pivot = u
        scan ^= low
    return pivot


def _bron_kerbosch(
    rows, p: int, x: int = 0, seed: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Pivoting Bron-Kerbosch on an explicit stack; yields, as sorted
    tuples, the maximal cliques that contain the clique ``seed`` and lie
    in seed | p, given that p | x is the common neighbourhood of seed.

    The pivot, the vertex of P|X maximizing |P & N(u)|, leaves only the
    candidates P - N(pivot) to branch on.  Each frame is [P, X, candidates
    left]; the clique of frame i is ``clique[:len(seed) + i]``.
    """
    clique = list(seed)
    stack: list[list[int]] = []
    while True:
        if p:
            pivot = _max_degree(p | x, p, rows)
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
        del clique[len(seed) + len(stack) - 1 :]
        clique.append(v)
        p &= rows[v]
        x &= rows[v]


def maximal_cliques(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every maximal clique exactly once, as sorted vertex tuples,
    in an order that nothing promises.

    Each clique is reached along its ascending order.  A node is a clique
    R, its common neighbourhood C and its forward candidates P, the
    vertices of C after R's last (Chiba and Nishizeki's forward
    neighbourhoods).  A child R + v with empty C is maximal; one with
    empty P is not, nor is any clique below it.  No clique below a child
    is maximal either when a vertex of its C - P is adjacent to all of
    its P.  Otherwise a child whose P is one vertex w gives the one
    maximal clique R + v + w, and one whose first vertex of P is adjacent
    to more than half of the rest has its P counted exactly: a clique P
    gives the one maximal clique R | P, and a P with more edges than
    non-edges goes to :func:`_bron_kerbosch` seeded with (R, P, C - P).
    Every other child is pushed.  Frames are pushed one level at a time,
    so the stack holds at most one per clique vertex.  The walk suits a
    sparse graph: a g with at least as many edges as non-edges goes to
    :func:`_bron_kerbosch` whole, and so does the graph on no vertices,
    whose one maximal clique is the empty one.
    """
    rows = g.rows
    full = (1 << g.n) - 1
    if 4 * g.edge_count() >= g.n * (g.n - 1):
        yield from _bron_kerbosch(rows, full)
        return
    stack = [[(), full, full]]
    while stack:
        frame = stack[-1]
        r, c, p = frame
        if not p:
            stack.pop()
            continue
        low = p & -p
        p ^= low
        frame[2] = p
        v = low.bit_length() - 1
        row = rows[v]
        child_c = c & row
        if not child_c:
            yield (*r, v)
            continue
        child_p = p & row
        if not child_p:
            continue
        # the vertices of C - P adjacent to all of P: any one extends
        # every clique below the child
        back = child_c ^ child_p
        scan = child_p
        while scan and back:
            low = scan & -scan
            scan ^= low
            back &= rows[low.bit_length() - 1]
        if back:
            continue
        size = child_p.bit_count()
        if size == 1:
            # one forward candidate w, and no vertex of C - P sees it
            yield (*r, v, child_p.bit_length() - 1)
            continue
        r = (*r, v)
        first = (child_p & -child_p).bit_length() - 1
        if 2 * (rows[first] & child_p).bit_count() > size - 1:
            degree_sum = 0
            scan = child_p
            while scan:
                low = scan & -scan
                scan ^= low
                degree_sum += (rows[low.bit_length() - 1] & child_p).bit_count()
            if degree_sum == size * (size - 1):
                yield (*r, *_bits(child_p))
                continue
            if 2 * degree_sum > size * (size - 1):
                yield from _bron_kerbosch(rows, child_p, child_c ^ child_p, r)
                continue
        stack.append([r, child_c, child_p])


def maximal_independent_sets(g: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every maximal independent set exactly once: the maximal
    cliques of the complement, in no promised order."""
    return maximal_cliques(complement(g))


def cliques_of_size(g: Graph, j: int) -> Iterator[tuple[int, ...]]:
    """All cliques of size exactly j in lexicographic order, as sorted
    tuples: the j-subsets of the maximal cliques, since every clique lies
    in a maximal one."""
    if j < 0:
        raise ValueError("clique size must be non-negative")
    yield from sorted({s for cl in maximal_cliques(g) for s in combinations(cl, j)})


# -- independence polynomial -------------------------------------------

# Masks one independence_polynomial call memoizes, components of products
# included.  Measured with no cap on one seeded relabelling each, the q = 2
# certificates need at most 145 and the function-grid complements, in
# built or random vertex order, at most 2,379; relabelled complements of
# (2,4,6), (3,5,3) and (4,6,2), with at most 864 vertices, would need
# 20,303 to 28,349 and reach the cap.  Past the cap a node is solved
# without being stored, so an input whose search does not finish takes
# time but not ever more memory.
_MEMO_ENTRIES = 1 << 14


def _forward_terms(t: int, rows, limit: int) -> tuple[list[int], int]:
    """The dense rule's terms ``later(v) - N(v)`` of T, v ascending, and
    the non-edges they count; stops once 4 * non-edges reaches limit."""
    terms = []
    non_edges = 0
    rest = t
    while rest and 4 * non_edges < limit:
        low = rest & -rest
        rest ^= low
        term = rest & ~rows[low.bit_length() - 1]
        terms.append(term)
        non_edges += term.bit_count()
    return terms, non_edges


def independence_polynomial(g: Graph) -> Polynomial:
    """Exact independence polynomial.

    One loop over one explicit stack; nothing recurses.  Every node T of
    at least three vertices follows one rule.  A memo hit adds the stored
    coefficients.  Otherwise a pass over T's vertices v, ascending, lists
    the dense rule's terms ``later(v) - N(v)``, where later(v) are the
    vertices after v, and stops once four times the non-edges they count
    reaches |T|(|T|-1).  Then T takes the first of three rules that
    applies:

    - dense (four times its non-edges below |T|(|T|-1)): the first-vertex
      expansion ``I(T) = 1 + x * sum_v I(T[later(v) - N(v)])``, which is
      exact whether or not T is connected, so a dense T is never split
      into components.  Each term is a small non-neighbourhood; on a join
      it lies inside the part of v, so joins split without being searched
      for, and on the complement of a sparse graph the terms list that
      graph's cliques along their forward neighbourhoods;
    - disconnected: the product of its components, the singleton
      components folded into one ``(1 + x)^s`` factor;
    - otherwise ``I(T) = I(T - v) + x * I(T - N[v])`` on the
      maximum-degree vertex v, ties to the lowest index, found by the
      pivot scan that Bron-Kerbosch uses too.

    Children of at most two vertices are counted inline, except a
    product's components.

    A product pushes each component of two vertices or more as an ordinary
    node into a plain list of its own; once they are filled, a finishing
    frame multiplies the lists.  A dict local to the call memoizes the
    coefficients of up to ``_MEMO_ENTRIES`` vertex masks, so each is found
    once per call.  Any other node with a memo slot left also collects
    into a list of its own, which its finishing frame memoizes and adds
    into its parent's; a node without a slot adds in place.  The only
    Polynomial a call builds is its result.

    Slower:

    - long paths, whose components are split again when their own node
      pops: P_600 and P_1600 take 1.27-1.36 times as long as when a
      product's components skipped that split (best of 15 to 21 CPU times
      on a shared two-core host, Python 3.11);
    - dense joins of sparse parts, each part being solved once per
      non-neighbourhood instead of once.  A join of two G(n, p) takes
      0.26 s (n = 50, p = 0.15), 1.2 s (60, 0.08) and 7.4 s (80, 0.05),
      against 0.13, 0.27 and 2.0 s for its two parts alone (best of 5).
    """
    rows = g.rows
    memo: dict[int, list[int]] = {}
    result = [0] * (g.n + 2)  # a zero always ends the coefficients
    # A node (T, d, acc, None) adds x^d * I(T) into the list acc.  A
    # finishing frame (T, d, acc, factors) runs once the frames above it are
    # done and does the same: factors are lists that T's children filled,
    # each ended by a zero, and I(T) is their product.
    stack: list[tuple] = []
    acc = result
    d = 0
    children: Iterable[int] = ((1 << g.n) - 1,)  # each at depth d
    while True:
        for t in children:
            upper = t & (t - 1)  # t without its first vertex
            if upper & (upper - 1):  # three vertices or more
                stack.append((t, d, acc, None))
            else:
                acc[d] += 1
                if t:
                    acc[d + 1] += 2 if upper else 1
                    if upper and not rows[upper.bit_length() - 1] & t:
                        acc[d + 2] += 1
        if not stack:
            return Polynomial(result[: result.index(0)])
        children = ()
        t, d, acc, factors = stack.pop()
        if factors is not None:
            for own in factors:
                del own[own.index(0) :]
            out = reduce(_convolve, factors)
            if len(memo) < _MEMO_ENTRIES:
                memo[t] = out
        else:
            out = memo.get(t)
        if out is None:
            size = t.bit_count()
            limit = size * (size - 1)
            terms, non_edges = _forward_terms(t, rows, limit)
            dense = 4 * non_edges < limit
            comps = [t] if dense else _components(t, rows)
            if len(comps) > 1:
                big = [c for c in comps if c & (c - 1)]
                singles = len(comps) - len(big)
                # (1 + x)^singles, ended by comb(singles, singles + 1) = 0
                factors = [[comb(singles, i) for i in range(singles + 2)]]
                stack.append((t, d, acc, factors))
                for c in big:
                    own = [0] * (c.bit_count() + 1)
                    factors.append(own)
                    stack.append((c, 0, own, None))
                continue
            if len(memo) < _MEMO_ENTRIES:
                own = [0] * (size + 1)
                stack.append((t, d, acc, [own]))
                acc = own
                d = 0
            if dense:
                acc[d] += 1
                children = reversed(terms)  # popped in ascending order
            else:
                # T is connected and sparse, so it has four vertices or more
                # and T - v three or more
                pivot = _max_degree(t, t, rows)
                stack.append((t & ~(1 << pivot), d, acc, None))
                children = (t & ~(rows[pivot] | 1 << pivot),)
            d += 1
            continue
        for i, c in enumerate(out, d):
            acc[i] += c


# -- well-coveredness ---------------------------------------------------


class WellCoveredReport(NamedTuple):
    """Outcome of the well-coveredness test.

    ``witness`` is None when the graph is well-covered.  Otherwise it is
    the lexicographically smallest maximal independent set of the smallest
    size and the lexicographically smallest one of the largest size, each a
    sorted tuple.  ``alpha`` is the independence number in either case.
    """

    is_well_covered: bool
    alpha: int
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def is_well_covered(g: Graph) -> WellCoveredReport:
    """Whether every maximal independent set of g has the same size.

    The maximal cliques of the complement are walked until one of a second
    size appears.  A well-covered graph walks once and keeps nothing.  Any
    other walks a second time for its witness pair, the lexicographic
    minima of the smallest and the largest size, which no enumeration
    order changes.
    """
    h = complement(g)
    walk = maximal_cliques(h)
    size = len(next(walk))
    if all(len(s) == size for s in walk):
        return WellCoveredReport(True, size, None)
    sets = maximal_cliques(h)
    smallest = largest = next(sets)
    for s in sets:
        size = len(s)
        if size < len(smallest) or size == len(smallest) and s < smallest:
            smallest = s
        if size > len(largest) or size == len(largest) and s < largest:
            largest = s
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


def _splits_into_blocks(x: int, rows, size: int, m: int) -> bool:
    """Whether the graph induced on x is a disjoint union of at least m
    cliques of exactly ``size`` vertices.  Block by block: the lowest
    vertex u left in x and its neighbours in x form a block of ``size``
    vertices, each vertex w of the block sees exactly the rest of it in
    x, and the block leaves x."""
    blocks = 0
    while x:
        low = x & -x
        block = rows[low.bit_length() - 1] & x | low
        if block.bit_count() != size:
            return False
        rest = block ^ low
        while rest:
            w = rest & -rest
            rest ^= w
            if rows[w.bit_length() - 1] & x | w != block:
                return False
        x ^= block
        blocks += 1
    return blocks >= m


def _extends_locally(g: Graph, k: int, q: int, m: int) -> bool:
    """The local rule of :func:`check_clique_extension`: every clique of
    fewer than k vertices has a common neighbour, and the common
    neighbourhood of every k-clique is a disjoint union of at least m
    cliques of q - k vertices.

    The cliques of fewer than k vertices are walked depth-first, each
    reached once along its ascending order through its forward
    neighbourhood, as :func:`maximal_cliques` does.  A frame [C, P]
    is one such clique's common neighbourhood and the forward candidates
    not yet taken; frame i holds a clique of i vertices, so the stack
    holds at most k frames.  A k-clique is checked where it is met and
    never pushed.
    """
    rows = g.rows
    full = (1 << g.n) - 1
    if k == 0:
        return _splits_into_blocks(full, rows, q, m)
    if not full:
        return False  # the empty clique is maximal
    stack = [[full, full]]
    while stack:
        frame = stack[-1]
        c, p = frame
        if not p:
            stack.pop()
            continue
        low = p & -p
        p ^= low
        frame[1] = p
        row = rows[low.bit_length() - 1]
        if len(stack) == k:
            if not _splits_into_blocks(c & row, rows, q - k, m):
                return False
        elif not c & row:
            return False  # a maximal clique of fewer than k vertices
        else:
            stack.append([c & row, p & row])
    return True


def check_clique_extension(g: Graph, k: int, q: int, m: int) -> CliqueExtensionReport:
    """Exactly verify the clique extension property with parameters
    (k, q, m).  No sampling.

    The property holds iff the local rule of :func:`_extends_locally`
    does: no clique of fewer than k vertices is maximal, and the common
    neighbourhood N(S) of every k-clique S (S empty when k = 0) is a
    disjoint union of at least m cliques of q - k vertices.  If the rule
    holds, the maximal cliques through S are S plus one block each, so a
    (k+1)-clique lies in exactly one of them, of q vertices, and S in at
    least m; no maximal clique has fewer than k vertices, nor exactly k
    since m >= 1.  If the property holds, the maximal cliques through S
    have q - k vertices in N(S) and each vertex of N(S) lies in exactly
    one, so they are its blocks, at least m, with no edge between two of
    them.  A holding input is therefore decided from the cliques of at
    most k vertices, and no maximal clique is enumerated.

    When the rule fails, the exhaustive pass builds the report and its
    witnesses from the maximal cliques.  Every clique lies in some
    maximal clique C.  A (k+1)-clique S inside C lies in a second maximal
    clique iff some common neighbour of S is outside C, so condition 2
    checks the common neighbourhood of each (k+1)-subset of each maximal
    clique.  The number of maximal cliques containing a k-clique is the
    number of times it occurs as a k-subset of one, so condition 3 counts
    those subsets.  Each condition reports the lexicographically smallest
    offending clique, which no enumeration order changes: for condition 1
    a maximal clique of the wrong size.

    That pass reads the maximal cliques of :func:`maximal_cliques` once
    and keeps none: each clique's k-subsets go straight into the count.
    """
    _validate_params(k, q, m)
    if _extends_locally(g, k, q, m):
        return CliqueExtensionReport(True, k, q, m, ())
    rows = g.rows
    violations: list[tuple[int, tuple[int, ...]]] = []

    def k_subsets() -> Iterator[tuple[int, ...]]:
        # conditions 1 and 2 on each maximal clique, then its k-subsets
        wrong_size = witness = None
        for cl in maximal_cliques(g):
            if len(cl) != q and (wrong_size is None or cl < wrong_size):
                wrong_size = cl
            outside = -1
            for v in cl:
                outside ^= 1 << v
            # subsets come in lexicographic order: stop at the first
            # offender, or once past the smallest offender found so far
            for s in combinations(cl, k + 1):
                if witness is not None and s >= witness:
                    break
                common = outside
                for v in s:
                    common &= rows[v]
                if common:
                    witness = s
                    break
            # at m = 1 condition 3 holds: every clique lies in a maximal one
            if m > 1:
                yield from combinations(cl, k)
        if wrong_size is not None:
            violations.append((1, wrong_size))
        if witness is not None:
            violations.append((2, witness))

    counts = Counter(k_subsets())
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
    cross-multiplied in integers; reports the smallest violating t."""
    for t in range(1, q):
        lo, hi = a(t), a(t + 1)
        if (lo.numerator * hi.denominator * comb(q, t + 1)
                > hi.numerator * lo.denominator * comb(q, t)):
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
