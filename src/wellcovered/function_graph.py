"""Function graphs: vertices are assignments on k-subsets, maximal cliques
are restrictions of global assignments.

For parameters 0 <= k < q and m >= 1, the graph has one vertex per pair
(i, f) with i in {1..q} and f a function from the k-subsets of {1..q}\\{i}
into {1..m}; (i, f) ~ (j, g) iff i != j and f, g agree on every k-subset
avoiding both i and j.  For k = 0 the construction degenerates to m
disjoint complete graphs on q vertices.

Every maximal clique is the set of q restrictions of one global function
{1..q} choose k -> {1..m}, so these graphs make the clique extension
property (unique extension above size k, m-fold coverage at size k) hold
by construction, and their complements are well-covered with independence
number q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import BudgetExceededError
from .graph import Graph, complete, disjoint_copies

DEFAULT_VERTEX_BUDGET = 200_000


@dataclass(frozen=True)
class FunctionVertex:
    """Label of one vertex: the omitted coordinate i (1-based) and the
    assignment vector over the k-subsets of {1..q}\\{i} in colex order,
    values in 1..m."""

    i: int
    values: tuple[int, ...]


def _validate_params(k: int, q: int, m: int) -> None:
    if not 0 <= k < q:
        raise ValueError(f"need 0 <= k < q, got k={k}, q={q}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")


def vertex_count(k: int, q: int, m: int) -> int:
    """Number of vertices: q * m^C(q-1, k)."""
    _validate_params(k, q, m)
    return q * m ** comb(q - 1, k)


def _vectors(length: int, m: int) -> list[tuple[int, ...]]:
    """All assignment vectors in rank order (position 0 varies fastest)."""
    powers = [m**p for p in range(length)]
    return [
        tuple(r // powers[p] % m + 1 for p in range(length))
        for r in range(m**length)
    ]


def build_function_graph(
    k: int, q: int, m: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> Graph:
    """Construct the function graph for (k, q, m), with FunctionVertex labels.

    Vertices are ordered by i ascending, then by the assignment vector
    read as a base-m number, so repeated builds are identical and golden
    files stay stable.  Refuses (BudgetExceededError) when the vertex
    count q * m^C(q-1,k) exceeds ``vertex_budget``.
    """
    _validate_params(k, q, m)
    n = vertex_count(k, q, m)
    if n > vertex_budget:
        raise BudgetExceededError(
            f"function graph for (k={k}, q={q}, m={m}) needs "
            f"{q} * {m}^{comb(q - 1, k)} = {n} vertices, over budget {vertex_budget}"
        )
    if k == 0:
        # m disjoint q-cliques; copy c is the value class c+1
        base = disjoint_copies(complete(q), m)
        labels = tuple(
            FunctionVertex(pos + 1, (copy + 1,))
            for copy in range(m)
            for pos in range(q)
        )
        return Graph(base.n, base.rows, labels)

    length = comb(q - 1, k)
    side = m**length
    vecs = _vectors(length, m)
    ground = range(1, q + 1)
    # position of each k-subset of {1..q}\{i} in side i's colex order
    colex = {}
    for i in ground:
        side_subsets = combinations([x for x in ground if x != i], k)
        ordered = sorted(side_subsets, key=lambda s: s[::-1])
        colex[i] = {s: r for r, s in enumerate(ordered)}
    labels = [FunctionVertex(i, vec) for i in ground for vec in vecs]
    rows = [0] * n
    for i in ground:
        off_i = (i - 1) * side
        for j in range(i + 1, q + 1):
            off_j = (j - 1) * side
            shared = list(combinations([x for x in ground if x not in (i, j)], k))
            pos_i = [colex[i][a] for a in shared]
            pos_j = [colex[j][a] for a in shared]
            # group each side by its projection onto the shared domain;
            # adjacency is exactly projection equality
            buckets: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
            for r, vec in enumerate(vecs):
                key = tuple(vec[p] for p in pos_i)
                buckets.setdefault(key, ([], []))[0].append(off_i + r)
            for r, vec in enumerate(vecs):
                key = tuple(vec[p] for p in pos_j)
                entry = buckets.get(key)
                if entry is not None:
                    entry[1].append(off_j + r)
            for left, right in buckets.values():
                for u in left:
                    for v in right:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
    return Graph(n, rows, labels)


def clique_count_closed_form(k: int, q: int, m: int, j: int) -> int:
    """Exact number of j-cliques: C(q,j) * m^(C(q,k) - C(q-j, k-j)).

    For j >= k+1 the exponent collapses to C(q,k) (each j-clique extends
    to a unique maximal clique, of which there are m^C(q,k)); for j <= k
    the formula is validated against brute-force enumeration over the
    whole test grid before anything downstream relies on it.
    """
    _validate_params(k, q, m)
    if not 0 <= j <= q:
        raise ValueError(f"need 0 <= j <= q, got j={j}")

    def comb0(a: int, b: int) -> int:
        return comb(a, b) if 0 <= b <= a else 0

    return comb(q, j) * m ** (comb(q, k) - comb0(q - j, k - j))
