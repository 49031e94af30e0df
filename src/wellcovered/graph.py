"""Immutable simple graphs with bitset adjacency, plus structural operations.

A graph is a vertex count ``n`` and a tuple of ``n`` integer bit rows:
bit ``u`` of ``rows[v]`` is set iff ``u ~ v``.  Rows keep neighborhood
intersection at one word op per 64 vertices, which is the hot operation
for every enumeration routine downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Instances are immutable.  The (rows) constructor trusts the caller to
    supply a symmetric relation; use :meth:`from_edges` for validated
    construction from an edge list.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = tuple(self.rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for v, row in enumerate(rows):
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row >> n:  # a bit at n or above, or a negative row
                raise ValueError(f"adjacency row {v} references vertices >= {n}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    # -- queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u},{v})")
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        for u in range(self.n):
            yield from ((u, v) for v in _bits(self.rows[u] >> (u + 1) << (u + 1)))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- constructions ----------------------------------------------------


def complete(q: int) -> Graph:
    """The complete graph on q >= 1 vertices."""
    if q < 1:
        raise ValueError("complete() needs q >= 1")
    full = (1 << q) - 1
    return Graph(q, [full ^ (1 << v) for v in range(q)])


def disjoint_copies(g: Graph, c: int) -> Graph:
    """c vertex-disjoint copies of g; copy i occupies indices [i*n, (i+1)*n)."""
    if c < 1:
        raise ValueError("need at least one copy")
    rows = []
    for copy in range(c):
        shift = copy * g.n
        rows.extend(r << shift for r in g.rows)
    return Graph(c * g.n, rows)


def complement(g: Graph) -> Graph:
    """Edge complement on the same vertex set."""
    full = (1 << g.n) - 1
    # r has no bit v and none past n: r ^ full sets every bit r lacks,
    # v among them, and the last xor clears v
    rows = [r ^ full ^ (1 << v) for v, r in enumerate(g.rows)]
    return Graph(g.n, rows)


def join(parts: Sequence[Graph]) -> Graph:
    """Disjoint union of parts plus every edge between distinct parts.

    Vertex order is concatenation order with stable per-part offsets.
    """
    if not parts:
        raise ValueError("join() of an empty list")
    n = sum(p.n for p in parts)
    all_mask = (1 << n) - 1
    rows = []
    offset = 0
    for p in parts:
        span = ((1 << p.n) - 1) << offset
        outside = all_mask ^ span
        rows.extend((r << offset) | outside for r in p.rows)
        offset += p.n
    return Graph(n, rows)


class CoComponents(NamedTuple):
    """A graph as the join of its co-components, the components of its
    complement.  ``parts`` pairs each distinct one, a Graph on 0..s-1, with
    the sorted vertex tuples of its copies, local vertex i being the i-th
    of each tuple."""

    n: int
    parts: tuple[tuple[Graph, tuple[tuple[int, ...], ...]], ...]


def co_components(n: int, non_edges: list[tuple[int, int]]) -> CoComponents:
    """The co-components of the graph on n vertices whose non-edges are the
    pairs u < v of ``non_edges``, by union-find over them: no row of the
    graph is formed, and each distinct part forms its own once."""
    parent = list(range(n))
    for u, v in non_edges:
        u = parent[u]
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]
        v = parent[v]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        # the root stays the smallest vertex of its tree
        if u < v:
            parent[v] = u
        else:
            parent[u] = v
    members: list = [None] * n  # a root's vertices, ascending
    local = [0] * n  # a vertex's index in its part
    for v in range(n):
        # parent[v] <= v, and every vertex below v already points at its root
        parent[v] = root = parent[parent[v]]
        if root == v:
            members[v] = [v]
        else:
            local[v] = len(members[root])
            members[root].append(v)
    holes = [0] * n  # a vertex's non-neighbours, as local bits
    for u, v in non_edges:
        holes[u] |= 1 << local[v]
        holes[v] |= 1 << local[u]
    parts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for vertices in members:
        if vertices is not None:
            vertices = tuple(vertices)
            parts.setdefault(tuple(map(holes.__getitem__, vertices)), []).append(vertices)
    out = []
    for h, places in parts.items():
        full = (1 << len(h)) - 1
        out.append((Graph(len(h), [r ^ full ^ (1 << i) for i, r in enumerate(h)]), tuple(places)))
    return CoComponents(n, tuple(out))
