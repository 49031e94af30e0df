"""Deliberately dumb reference implementations used as test oracles.

Everything here enumerates subsets with itertools and checks pairwise
adjacency directly, independent of the bitset algorithms under test; the
graph6 codec here walks the bit string one bit and one sextet at a time,
the plan search tries every m in turn, and function-graph vertices are
located through the combinatorial number system rather than the
library's sorted colex index.  Keep these slow and obvious.

The exceptions are the order references: a recursive Bron-Kerbosch that
fixes the order in which maximal cliques are enumerated, and a clique
extension check that counts the maximal cliques containing each clique
with membership bitmasks.  The library routines must match them exactly,
witnesses included.
"""

from itertools import combinations, product
from math import comb
from random import Random

from wellcovered import Graph, Polynomial, b_decomposition, choose_m, plan_at_m
from wellcovered.enumeration import CliqueExtensionReport


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


def smallest_certified_m(target, eps, m_cap: int):
    """Smallest m <= m_cap whose plan is certified, scanning every m upward
    from ``choose_m``; None when there is none."""
    decomp = b_decomposition(target)
    for m in range(choose_m(target.q, eps), m_cap + 1):
        if plan_at_m(decomp, m, eps).certified:
            return m
    return None


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: vertices are the k-subsets of {1..n} in lexicographic
    order, edges join disjoint subsets."""
    if k < 1 or k > n:
        raise ValueError(f"kneser requires 1 <= k <= n, got n={n}, k={k}")
    verts = list(combinations(range(1, n + 1), k))
    edges = [
        (u, v)
        for u, v in combinations(range(len(verts)), 2)
        if not set(verts[u]) & set(verts[v])
    ]
    return Graph.from_edges(len(verts), edges)


# -- function graphs ----------------------------------------------------------


def colex_rank(subset, ground) -> int:
    """Rank of a k-subset among the k-subsets of ``ground`` (increasing) in
    colex order, by the combinatorial number system."""
    positions = sorted(ground.index(x) for x in subset)
    return sum(comb(p, i + 1) for i, p in enumerate(positions))


def assignment_vectors(length: int, m: int) -> list:
    """All vectors in {1..m}^length, position 0 varying fastest."""
    return [v[::-1] for v in product(range(1, m + 1), repeat=length)]


def vector_rank(values, m: int) -> int:
    """Assignment vector read as a little-endian base-m number."""
    return sum((v - 1) * m**p for p, v in enumerate(values))


def global_functions(k: int, q: int, m: int) -> list:
    """All global assignments: a value in 1..m for every k-subset of
    {1..q}, the subsets in colex order; there are m^C(q,k) of them."""
    return assignment_vectors(comb(q, k), m)


def clique_of(fn, k: int, q: int, m: int) -> tuple:
    """Indices, in ``build_function_graph(k, q, m)``, of the q restrictions
    (i, fn restricted to the k-subsets avoiding i) of a global assignment."""
    if k == 0:
        return tuple((fn[0] - 1) * q + pos for pos in range(q))
    full = list(range(1, q + 1))
    side = m ** comb(q - 1, k)
    out = []
    for i in full:
        ground = [x for x in full if x != i]
        restricted = sorted(combinations(ground, k), key=lambda s: colex_rank(s, ground))
        vec = [fn[colex_rank(s, full)] for s in restricted]
        out.append((i - 1) * side + vector_rank(vec, m))
    return tuple(out)


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


def _bron_kerbosch_recursive(rows, clique, p, x):
    """Pivoting Bron-Kerbosch by recursion, pivot maximizing |P & N(u)|
    over P|X with ties to the lowest index, candidates ascending."""
    if p == 0 and x == 0:
        yield tuple(clique)
        return
    pivot = max(
        (u for u in range(len(rows)) if (p | x) >> u & 1),
        key=lambda u: ((p & rows[u]).bit_count(), -u),
    )
    for v in range(len(rows)):
        if not (p & ~rows[pivot]) >> v & 1:
            continue
        clique.append(v)
        yield from _bron_kerbosch_recursive(rows, clique, p & rows[v], x & rows[v])
        clique.pop()
        p &= ~(1 << v)
        x |= 1 << v


def maximal_cliques_in_order(g: Graph) -> list:
    """Maximal cliques in the library's enumeration order: components by
    smallest vertex, each relabeled compactly and run through the
    recursive Bron-Kerbosch."""
    if g.n == 0:
        return [()]
    out = []
    seen = set()
    for start in range(g.n):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            u = frontier.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        verts = sorted(comp)
        local_rows = [
            sum(1 << i for i, w in enumerate(verts) if g.has_edge(v, w)) for v in verts
        ]
        for cl in _bron_kerbosch_recursive(local_rows, [], (1 << len(verts)) - 1, 0):
            out.append(tuple(sorted(verts[i] for i in cl)))
    return out


def check_clique_extension(g: Graph, k: int, q: int, m: int) -> CliqueExtensionReport:
    """Clique extension check by membership bitmasks: bit c of
    membership[v] is set iff maximal clique c contains v.  Walks the
    (k+1)- and k-cliques in lexicographic order and reports the first
    offender of each condition."""
    cliques = maximal_cliques_in_order(g)
    violations = []
    for cl in cliques:
        if len(cl) != q:
            violations.append((1, cl))
            break
    membership = [0] * g.n
    for ci, cl in enumerate(cliques):
        for v in cl:
            membership[v] |= 1 << ci

    def containing(cl) -> int:
        mask = (1 << len(cliques)) - 1
        for v in cl:
            mask &= membership[v]
        return mask.bit_count()

    for cl in sorted(cliques_of_size(g, k + 1)):
        if containing(cl) != 1:
            violations.append((2, cl))
            break
    if k == 0:
        if len(cliques) < m:
            violations.append((3, ()))
    else:
        for cl in sorted(cliques_of_size(g, k)):
            if containing(cl) < m:
                violations.append((3, cl))
                break
    return CliqueExtensionReport(not violations, k, q, m, tuple(violations))


def graph6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    assert n <= 258047, "oracle covers the 1- and 4-byte headers only"
    return bytes([126] + [(n >> s & 63) + 63 for s in (12, 6, 0)])


def to_graph6_bitwise(g: Graph) -> bytes:
    """graph6 of g, one sextet at a time."""
    n = g.n
    bits = "".join("1" if g.has_edge(u, v) else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return graph6_header(n) + body


def from_graph6_bitwise(data: bytes) -> Graph:
    """Decode one graph6 line (no prefix, 1- or 4-byte header), one bit at
    a time; raises ValueError where the format is violated."""
    data = data.strip()
    if data[:1] == b"~":
        if len(data) < 4 or data[1] == 126:
            raise ValueError("oracle covers the 1- and 4-byte headers only")
        header = data[1:4]
        n, body = 0, data[4:]
        for b in header:
            if not 63 <= b <= 126:
                raise ValueError(f"header byte {b} outside graph6 range")
            n = n << 6 | (b - 63)
    else:
        if not data or not 63 <= data[0] <= 126:
            raise ValueError("bad header")
        n, body = data[0] - 63, data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("wrong data length")
    bits = []
    for b in body:
        if not 63 <= b <= 126:
            raise ValueError(f"data byte {b} outside graph6 range")
        bits.append(format(b - 63, "06b"))
    bitstr = "".join(bits)
    if "1" in bitstr[nbits:]:
        raise ValueError("nonzero padding bits")
    rows = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bitstr[pos] == "1":
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pos += 1
    return Graph(n, rows)
