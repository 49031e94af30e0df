"""Immutable simple graphs with bitset adjacency, plus structural operations.

A graph is a vertex count ``n`` and a tuple of ``n`` integer bit rows:
bit ``u`` of ``rows[v]`` is set iff ``u ~ v``.  Rows keep neighborhood
intersection at one word op per 64 vertices, which is the hot operation
for every enumeration routine downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


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
    rows = [full & ~r & ~(1 << v) for v, r in enumerate(g.rows)]
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

