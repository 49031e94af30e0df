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


def function_vertices(k: int, q: int, m: int) -> tuple[FunctionVertex, ...]:
    """The label of each vertex of the (k, q, m) function graph, in vertex
    order: i ascending, then the assignment vector read as a base-m
    number; for k = 0, copy-major (copy c is the value class c+1)."""
    _validate_params(k, q, m)
    if k == 0:
        return tuple(
            FunctionVertex(i, (c,)) for c in range(1, m + 1) for i in range(1, q + 1)
        )
    vecs = _vectors(comb(q - 1, k), m)
    return tuple(FunctionVertex(i, vec) for i in range(1, q + 1) for vec in vecs)


def build_function_graph(
    k: int, q: int, m: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> Graph:
    """Construct the function graph for (k, q, m).

    Vertices are in the order of :func:`function_vertices`, so repeated
    builds are identical and golden files stay stable.  Refuses
    (BudgetExceededError) when the vertex count q * m^C(q-1,k) exceeds
    ``vertex_budget``.

    Adjacency is built per pair of sides i < j: (i, f) ~ (j, g) iff f and
    g project alike onto the k-subsets avoiding i and j, so each projection
    class is one complete bipartite block.  A class keeps one bit mask per
    side; each vertex's row takes the other side's mask of its class.
    """
    n = vertex_count(k, q, m)
    if n > vertex_budget:
        raise BudgetExceededError(
            f"function graph for (k={k}, q={q}, m={m}) needs "
            f"{q} * {m}^{comb(q - 1, k)} = {n} vertices, over budget {vertex_budget}"
        )
    if k == 0 or m == 1:  # with m = 1 all vertices agree: one K_q
        return disjoint_copies(complete(q), m)

    side = n // q
    vecs = _vectors(comb(q - 1, k), m)
    ground = range(1, q + 1)
    # each side's k-subsets in colex order, a single order on all k-subsets:
    # two sides list the subsets they share in the same relative order
    subsets = {
        a: sorted(combinations([x for x in ground if x != a], k), key=lambda s: s[::-1])
        for a in ground
    }
    rows = [0] * n
    for i, j in combinations(ground, 2):
        sides = []
        for a, b in ((i, j), (j, i)):
            positions = [p for p, s in enumerate(subsets[a]) if b not in s]
            keys = [tuple(vec[p] for p in positions) for vec in vecs]
            sides.append(((a - 1) * side, keys))
        classes: dict[tuple[int, ...], list[int]] = {}
        for which, (off, keys) in enumerate(sides):
            for r, key in enumerate(keys):
                classes.setdefault(key, [0, 0])[which] |= 1 << (off + r)
        for which, (off, keys) in enumerate(sides):
            for r, key in enumerate(keys):
                rows[off + r] |= classes[key][1 - which]
    return Graph(n, rows)


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
    return comb(q, j) * m ** (comb(q, k) - (comb(q - j, k - j) if j <= k else 0))
