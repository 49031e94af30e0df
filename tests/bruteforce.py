"""Deliberately dumb reference implementations used as test oracles.

Everything here enumerates subsets with itertools and checks pairwise
adjacency directly, independent of the bitset algorithms under test; the
graph6 codec here walks the bit string one bit and one sextet at a time.
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
