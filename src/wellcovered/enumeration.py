"""Exact counting and enumeration: the independence polynomial,
maximal independent sets and cliques, well-coveredness, the clique
extension property, and the binomial-ratio chain check.

Everything here is exhaustive and exact; coefficients and counts are
arbitrary-precision integers and all comparisons of ratios cross-multiply
big integers instead of going through floats.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, islice
from math import comb
from numbers import Rational
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .function_graph import _validate_params
from .graph import CoComponents, Graph, _bits, complement
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
    full = (1 << g.n) - 1
    return _forward_walk(g.rows, (), full, full)


def _forward_walk(rows, r: tuple[int, ...], c: int, p: int) -> Iterator[tuple[int, ...]]:
    """The walk of :func:`maximal_cliques` from the node (R, C, P): the
    maximal cliques whose first len(R) vertices are the clique R, given
    C = N(R) and P its vertices after R's last.  :func:`_bron_kerbosch`
    seeded with (R, P, C - P) lists them instead if C is empty, or if R
    is and the graph has at least as many edges as non-edges; past the
    root, testing density costs about what it saves."""
    n = len(rows)
    if not c or not r and 2 * sum(map(int.bit_count, rows)) >= n * (n - 1):
        yield from _bron_kerbosch(rows, p, c ^ p, r)
        return
    stack = [[r, c, p]]
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


def independence_polynomial(g: Graph | CoComponents) -> Polynomial:
    """Exact independence polynomial.

    Given as its co-components, g is a join: I(g) = 1 + sum (I(part) - 1),
    each distinct part solved once.

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
    if isinstance(g, CoComponents):
        out = [1]
        for part, places in g.parts:
            coeffs = independence_polynomial(part).coeffs
            out += [0] * (len(coeffs) - len(out))
            for i in range(1, len(coeffs)):
                out[i] += len(places) * coeffs[i]
        return Polynomial(out)
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


def is_well_covered(g: Graph | CoComponents) -> WellCoveredReport:
    """Whether every maximal independent set of g has the same size.

    The maximal cliques of the complement are walked until one of a second
    size appears.  A well-covered graph walks once and keeps nothing.  Any
    other walks a second time for its witness pair, the lexicographic
    minima of the smallest and the largest size, which no enumeration
    order changes.

    Given as its co-components, g is a join, whose maximal independent
    sets are its parts': it is well-covered iff they all are, with one
    alpha, and its witness pair is read off theirs.
    """
    if isinstance(g, CoComponents):
        reports = [is_well_covered(part) for part, _ in g.parts]
        alpha = max((r.alpha for r in reports), default=0)
        if all(r.is_well_covered and r.alpha == alpha for r in reports):
            return WellCoveredReport(True, alpha, None)
        smallest, largest = _extremes(
            tuple(vertices[v] for v in s)
            for (part, places), r in zip(g.parts, reports)
            for s in r.witness or _extremes(maximal_independent_sets(part))
            for vertices in places
        )
    else:
        h = complement(g)
        walk = maximal_cliques(h)
        size = len(next(walk))
        if all(len(s) == size for s in walk):
            return WellCoveredReport(True, size, None)
        smallest, largest = _extremes(maximal_cliques(h))
    return WellCoveredReport(False, len(largest), (smallest, largest))


def _extremes(sets: Iterator[tuple[int, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically smallest set of the smallest size and of the
    largest size among ``sets``, sorted tuples met in any order."""
    smallest = largest = next(sets)
    for s in sets:
        size = len(s)
        if size < len(smallest) or size == len(smallest) and s < smallest:
            smallest = s
        if size > len(largest) or size == len(largest) and s < largest:
            largest = s
    return smallest, largest


# -- clique extension property ------------------------------------------


class CliqueExtensionReport(NamedTuple):
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
            **self._asdict(),
            "violations": [{"condition": c, "witness": list(w)} for c, w in self.violations],
        }


def _count_blocks(x: int, rows, size: int) -> int:
    """How many cliques of ``size`` vertices (any size when it is 0) the
    graph induced on x is a disjoint union of, or -1 if it is not one.
    Block by block: the lowest vertex u left in x and its neighbours in x
    form a block, each vertex w of the block sees exactly the rest of it
    in x, and the block leaves x."""
    blocks = 0
    while x:
        low = x & -x
        block = rows[low.bit_length() - 1] & x | low
        if size and block.bit_count() != size:
            return -1
        rest = block ^ low
        while rest:
            w = rest & -rest
            rest ^= w
            if rows[w.bit_length() - 1] & x | w != block:
                return -1
        x ^= block
        blocks += 1
    return blocks


def check_clique_extension(g: Graph, k: int, q: int, m: int) -> CliqueExtensionReport:
    """Exactly verify the clique extension property with parameters
    (k, q, m).  No sampling.

    One depth-first walk visits the cliques of at most k vertices in
    lexicographic pre-order, each through its forward neighbourhood, so
    the first offender it meets for a condition is that condition's
    lexicographically smallest witness; it stops once every condition is
    settled.  A clique of fewer than k vertices with no common neighbour
    is a maximal clique of the wrong size.  At a k-clique S, the maximal
    cliques through S are S plus the maximal cliques of its common
    neighbourhood N(S) (S alone when N(S) is empty), and S passes when
    N(S) is a disjoint union of at least m cliques of q - k vertices.
    Otherwise, with P the part of N(S) after S's last vertex:

    - condition 1 fails on the smallest maximal clique of other than q
      vertices whose first k vertices are S, if there is one:
      :func:`_forward_walk` from (S, N(S), P) lists exactly those
      cliques;
    - condition 2 fails at S + w for the first w in P whose N(S + w) is
      not a clique;
    - condition 3 fails at S when G[N(S)] has fewer than m maximal
      cliques: one if N(S) is a clique, the empty one included, and else
      at least two, counted by :func:`_bron_kerbosch` when m > 2.
    """
    _validate_params(k, q, m)
    rows = g.rows
    full = (1 << g.n) - 1
    # settled conditions; at m = 1 condition 3 holds, as every clique lies
    # in a maximal one
    found: dict[int, Optional[tuple[int, ...]]] = {3: None} if m == 1 else {}

    def fail_at(s: tuple[int, ...], c: int, p: int) -> None:
        # s is a k-clique that fails the local rule, c = N(s), p = c after s
        if 1 not in found:
            wrong = min((cl for cl in _forward_walk(rows, s, c, p) if len(cl) != q), default=None)
            if wrong is not None:
                found[1] = wrong
        if 2 not in found:
            for w in _bits(p):
                x = c & rows[w]
                if _count_blocks(x, rows, x.bit_count()) < 0:  # not a clique
                    found[2] = (*s, w)
                    break
        if 3 not in found and (
            _count_blocks(c, rows, c.bit_count()) >= 0
            or m > 2 and sum(1 for _ in islice(_bron_kerbosch(rows, c), m)) < m
        ):
            found[3] = s

    # frame i is [C, P, R] for a clique R of i vertices: its common
    # neighbourhood and the forward candidates not yet taken
    stack = [[full, full, ()]] if k else []
    if not full:
        found[1] = ()  # the empty clique is maximal
    if k == 0 and _count_blocks(full, rows, q) < m:
        fail_at((), full, full)
    # the local rule, relaxed to any block size once condition 1 is
    # settled and to one block once condition 3 is
    size, need = q - k, m
    while stack:
        frame = stack[-1]
        c, p, r = frame
        if not p:
            stack.pop()
            continue
        low = p & -p
        p ^= low
        frame[1] = p
        v = low.bit_length() - 1
        row = rows[v]
        if len(stack) == k:
            if _count_blocks(c & row, rows, size) >= need:
                continue
            fail_at((*r, v), c & row, p & row)
        elif c & row:
            stack.append([c & row, p & row, (*r, v)])
            continue
        else:
            found.setdefault(1, (*r, v))  # a maximal clique of fewer than k vertices
        if len(found) == 3:
            break
        size = 0 if 1 in found else q - k
        need = 1 if 3 in found else m
    violations = tuple((i, w) for i, w in sorted(found.items()) if w is not None)
    return CliqueExtensionReport(not violations, k, q, m, violations)


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
