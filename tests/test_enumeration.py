import gc
import sys
import threading
import tracemalloc
from itertools import combinations
from math import comb
from random import Random
from unittest import mock

import networkx as nx
import pytest

from wellcovered import enumeration
from wellcovered.enumeration import WellCoveredReport, _bron_kerbosch, _forward_walk
from wellcovered.graph import co_components
from wellcovered import (
    Graph,
    Plan,
    PlanComponent,
    Polynomial,
    binomial_ratio_check,
    build_function_graph,
    check_clique_extension,
    cliques_of_size,
    complement,
    complete,
    disjoint_copies,
    independence_polynomial,
    is_well_covered,
    join,
    materialize,
    maximal_cliques,
    maximal_independent_sets,
)

import bruteforce
from bruteforce import independence_polynomial_bruteforce, kneser


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# -- independence polynomial ---------------------------------------------


def test_polynomial_examples():
    assert independence_polynomial(complete(3)) == Polynomial([1, 3])
    assert independence_polynomial(Graph(3, [0, 0, 0])) == Polynomial([1, 3, 3, 1])
    assert independence_polynomial(Graph(0, [])) == Polynomial([1])
    h = build_function_graph(1, 3, 2)
    assert independence_polynomial(complement(h)) == Polynomial([1, 12, 24, 8])


def test_polynomial_matches_bruteforce_oracle():
    rng = Random(101)
    for _ in range(60):
        g = bruteforce.random_graph(rng, rng.randint(0, 12), p=rng.uniform(0.1, 0.9))
        fast = independence_polynomial(g)
        assert list(fast) == bruteforce.independence_counts(g)
        assert fast == independence_polynomial_bruteforce(g)


@pytest.mark.parametrize("cap", [0, 3])
def test_polynomial_past_memo_cap(monkeypatch, cap):
    # past the cap nodes are solved without being stored: same answers
    monkeypatch.setattr(enumeration, "_MEMO_ENTRIES", cap)
    rng = Random(202)
    for _ in range(30):
        g = bruteforce.random_graph(rng, rng.randint(0, 12), p=rng.uniform(0.1, 0.9))
        assert independence_polynomial(g) == independence_polynomial_bruteforce(g)


def test_dense_node_keeps_decompositions():
    # complement of K_40 with a pendant path 40..159 hanging off vertex 0:
    # its independent sets are the cliques of K_40 plus the path's
    # vertices and edges, over 2^40 sets, so the dense rule's terms must
    # keep splitting into components (the K_40 part into singletons, folded
    # into one factor) instead of walking them
    edges = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    edges.append((0, 40))
    edges.extend((i, i + 1) for i in range(40, 159))
    h = Graph.from_edges(160, edges)
    coeffs = [comb(40, t) for t in range(41)]
    coeffs[1] += 120
    coeffs[2] += 120
    assert independence_polynomial(complement(h)) == Polynomial(coeffs)


def test_independence_polynomial_builds_no_complement(monkeypatch):
    # a join splits inside the dense rule, so no complement is needed:
    # neither on a certificate of mixed k nor on a dense join of sparse parts
    plan = Plan(3, (PlanComponent(0, 1, 2), PlanComponent(1, 2, 1), PlanComponent(2, 3, 1)))
    certificate = materialize(plan)
    rng = Random(11)
    sparse_join = join([bruteforce.random_graph(rng, 9, 0.2) for _ in range(2)])
    expected = independence_polynomial_bruteforce(sparse_join)

    def refuse(g):
        raise AssertionError("independence_polynomial built a complement")

    monkeypatch.setattr(enumeration, "complement", refuse)
    assert tuple(independence_polynomial(certificate)) == (1, *plan.predicted)
    assert independence_polynomial(sparse_join) == expected


def test_dense_join_of_sparse_parts_adds():
    # I(A v B) = I(A) + I(B) - 1.  The join is dense, but its terms, the
    # non-neighbourhoods inside one part, are sparse and go to the sparse
    # rule; expanding them in place as dense nodes made this test about five
    # times slower
    rng = Random(60)
    a, b = (bruteforce.random_graph(rng, 60, 0.08) for _ in range(2))
    pa, pb = independence_polynomial(a), independence_polynomial(b)
    expected = [pa.coefficient(t) + pb.coefficient(t) for t in range(max(len(pa), len(pb)))]
    expected[0] -= 1
    assert independence_polynomial(join([a, b])) == Polynomial(expected)


def hub_over_clique(sparse_edges):
    # K_1 v (K_100 u H), H on the 40 vertices 100..139 with the given edges
    clique = [(u, v) for u in range(100) for v in range(u + 1, 100)]
    return join([complete(1), Graph.from_edges(140, clique + sparse_edges)])


MATCHING_20 = [(100 + 2 * i, 101 + 2 * i) for i in range(20)]


def test_hub_over_clique_and_sparse_part():
    # K_1 v (K_100 u E_40) and K_1 v (K_100 u M_20), M_20 a perfect matching
    # on 40 vertices: I = x + (1 + 100x)(1 + x)^40 and x + (1 + 100x)(1 + 2x)^20.
    # Every vertex of K_100 has the same sparse part as its term
    for sparse_edges, sparse_part in (
        ([], Polynomial([comb(40, t) for t in range(41)])),
        (MATCHING_20, Polynomial([comb(20, t) * 2**t for t in range(21)])),
    ):
        coeffs = list(Polynomial([1, 100]) * sparse_part)
        coeffs[1] += 1
        assert independence_polynomial(hub_over_clique(sparse_edges)) == Polynomial(coeffs)


def test_products_build_no_polynomial():
    # a product multiplies plain coefficient lists, so the one Polynomial a
    # call constructs is its result; both inputs have products
    built = []

    class Counting(Polynomial):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    graphs = [complement(build_function_graph(1, 5, 3)), hub_over_clique(MATCHING_20)]
    expected = [independence_polynomial(g).coeffs for g in graphs]
    with mock.patch.object(enumeration, "Polynomial", Counting):
        for g, coeffs in zip(graphs, expected):
            built.clear()
            result = independence_polynomial(g)
            assert len(built) == 1 and built[0] is result
            assert result.coeffs == coeffs


def path_counts(n):
    # i_k(P_n) = C(n + 1 - k, k)
    return [comb(n + 1 - k, k) for k in range((n + 1) // 2 + 1)]


def test_polynomial_of_long_path():
    # the pivot rule nests about n/2 component levels on a path; they live
    # on the solver's own stack, so no Python or C recursion limit applies
    # and the recursion limit is never raised
    with mock.patch.object(sys, "setrecursionlimit", side_effect=AssertionError("raised")):
        assert list(independence_polynomial(path(1600))) == path_counts(1600)


def test_concurrent_calls_leave_the_recursion_limit_alone():
    # a call that raised the process-wide recursion limit and restored it
    # on return cut the limit under a longer call in another thread, which
    # then raised RecursionError, and could leave the limit changed
    limit = sys.getrecursionlimit()
    results = {}

    def count(n):
        results[n] = list(independence_polynomial(path(n)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches per call
    try:
        threads = [threading.Thread(target=count, args=(n,)) for n in (300, 1000)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sys.getrecursionlimit() == limit
    assert results == {n: path_counts(n) for n in (300, 1000)}


def test_independence_polynomial_leaves_no_reference_cycle():
    # the memo is freed when the call returns, not at the next collection
    g = complement(build_function_graph(1, 3, 3))
    gc.collect()
    gc.disable()
    try:
        independence_polynomial(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bruteforce_oracle_bound():
    with pytest.raises(ValueError):
        independence_polynomial_bruteforce(Graph(21, [0] * 21))


def test_clique_polynomial():
    # the clique polynomial of g is the independence polynomial of its complement
    def cliques(g):
        return independence_polynomial(complement(g))

    assert cliques(complete(3)) == Polynomial([1, 3, 3, 1])
    assert cliques(disjoint_copies(complete(3), 2)) == Polynomial([1, 6, 6, 2])
    assert cliques(build_function_graph(1, 3, 2)) == Polynomial([1, 12, 24, 8])
    rng = Random(7)
    for _ in range(15):
        g = bruteforce.random_graph(rng, rng.randint(0, 10))
        counts = [len(bruteforce.cliques_of_size(g, j)) for j in range(g.n + 1)]
        assert cliques(g) == Polynomial(counts)


# -- maximal set enumeration ---------------------------------------------


def test_maximal_independent_sets_examples():
    assert sorted(maximal_independent_sets(complete(3))) == [(0,), (1,), (2,)]
    assert sorted(maximal_independent_sets(path(3))) == [(0, 2), (1,)]
    assert sorted(maximal_independent_sets(cycle(4))) == [(0, 2), (1, 3)]


def test_maximal_sets_match_subset_filter():
    rng = Random(55)
    for _ in range(40):
        g = bruteforce.random_graph(rng, rng.randint(0, 11), p=rng.uniform(0.1, 0.9))
        emitted = list(maximal_independent_sets(g))
        assert len(emitted) == len(set(emitted)), "duplicate emission"
        assert set(emitted) == bruteforce.maximal_independent_sets(g)
        assert set(maximal_cliques(g)) == bruteforce.maximal_cliques(g)
    # stretch toward the testable bound
    for n, p in ((14, 0.4), (16, 0.7)):
        g = bruteforce.random_graph(Random(n), n, p)
        assert set(maximal_independent_sets(g)) == bruteforce.maximal_independent_sets(g)


def test_seeded_walks_match_networkx():
    # on every graph of the atlas (up to 7 vertices) and at every clique S,
    # Bron-Kerbosch seeded with (S, P, N(S) - P), P the part of N(S) after
    # S's last vertex, and the forward walk from (S, N(S), P) both list the
    # maximal cliques whose first |S| vertices are S; the graph on no
    # vertices has the one maximal clique ()
    seeds = 0
    for h in nx.graph_atlas_g():
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        found = sorted(tuple(sorted(cl)) for cl in nx.find_cliques(h)) or [()]
        assert set(maximal_cliques(g)) == set(found)
        for s in {s for cl in found for j in range(len(cl) + 1) for s in combinations(cl, j)}:
            c = (1 << g.n) - 1
            for v in s:
                c &= g.rows[v]
            p = c >> (s[-1] + 1) << (s[-1] + 1) if s else c
            expected = [cl for cl in found if cl[: len(s)] == s]
            assert sorted(_bron_kerbosch(g.rows, p, c ^ p, s)) == expected, (sorted(h.edges()), s)
            assert sorted(_forward_walk(g.rows, s, c, p)) == expected, (sorted(h.edges()), s)
            seeds += 1
    assert seeds == 29_019


def test_enumeration_deterministic():
    g = bruteforce.random_graph(Random(3), 12)
    assert list(maximal_independent_sets(g)) == list(maximal_independent_sets(g))


def test_cliques_of_size():
    rng = Random(77)
    for _ in range(20):
        g = bruteforce.random_graph(rng, rng.randint(0, 9))
        for j in range(0, 5):
            assert set(cliques_of_size(g, j)) == bruteforce.cliques_of_size(g, j)
    with pytest.raises(ValueError, match="non-negative"):
        next(cliques_of_size(complete(3), -1))


# -- well-coveredness -----------------------------------------------------


def test_is_well_covered():
    report = is_well_covered(path(3))
    assert not report.is_well_covered
    assert report.alpha == 2
    assert sorted(len(w) for w in report.witness) == [1, 2]
    for w in report.witness:
        assert bruteforce.is_independent(path(3), w)

    report = is_well_covered(complement(build_function_graph(1, 3, 2)))
    assert report.is_well_covered and report.alpha == 3 and report.witness is None

    report = is_well_covered(cycle(4))
    assert report.is_well_covered and report.alpha == 2

    assert is_well_covered(Graph(0, [])).alpha == 0


def test_well_covered_json():
    data = is_well_covered(path(3))._asdict()
    assert data["is_well_covered"] is False
    assert data["alpha"] == 2
    assert len(data["witness"]) == 2


def test_is_well_covered_walks_each_component_once(no_maximal_clique_walk):
    # K_1 v (K_100 u M_20) has 100 * 2^20 + 1 maximal independent sets; its
    # parts K_1 and K_100 u M_20 have 1 + 21 components, each walked once
    g = hub_over_clique(MATCHING_20)
    expected = WellCoveredReport(False, 21, ((0,), (1, *range(101, 141, 2))))
    for form in (g, co_components(g.n, list(complement(g).edges()))):
        with mock.patch.object(enumeration, "_forward_walk", wraps=_forward_walk) as walk:
            assert is_well_covered(form) == expected
        assert walk.call_count == 22


def test_small_graphs_match_oracles():
    # every labelled graph on at most 5 vertices, whole and as its
    # co-components: 1,100 graphs
    graphs = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            split = co_components(n, list(complement(g).edges()))
            expected = bruteforce.well_covered_report(g)
            assert is_well_covered(g) == is_well_covered(split) == expected, (n, bits)
            polynomial = independence_polynomial_bruteforce(g)
            assert independence_polynomial(g) == independence_polynomial(split) == polynomial
            graphs += 1
    assert graphs == 1100


# -- clique extension property --------------------------------------------


HOLDING = [
    (build_function_graph(1, 3, 2), (1, 3, 2)),
    (build_function_graph(1, 3, 16), (1, 3, 16)),
    (build_function_graph(2, 4, 3), (2, 4, 3)),
    (kneser(8, 2), (2, 4, 3)),
    (complete(4), (1, 4, 1)),
    (build_function_graph(0, 3, 2), (0, 3, 2)),
]


@pytest.fixture
def no_maximal_clique_walk():
    """The whole-graph maximal clique and independent set walks raise:
    property-p reads every witness off the common neighbourhoods of
    k-cliques, and well-coveredness walks each component of each part."""
    refuse = AssertionError("maximal cliques enumerated")
    with mock.patch.object(enumeration, "maximal_cliques", side_effect=refuse), \
            mock.patch.object(enumeration, "maximal_independent_sets", side_effect=refuse):
        yield


def test_check_clique_extension_holds(no_maximal_clique_walk):
    # the verdict comes from the cliques of at most k vertices
    for g, params in HOLDING:
        assert check_clique_extension(g, *params).holds, params


def test_check_clique_extension_violations(no_maximal_clique_walk):
    # two triangles sharing an edge: the shared edge (2-clique) extends to
    # two maximal cliques, so uniqueness at k=1 fails
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    report = check_clique_extension(g, 1, 3, 1)
    assert not report.holds
    assert report.violations == ((2, (0, 1)),)

    # a lone edge among triangles breaks the size-q condition
    g2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    report2 = check_clique_extension(g2, 1, 3, 1)
    assert not report2.holds
    assert any(c == 1 for c, _ in report2.violations)

    # m too large: condition 3
    report3 = check_clique_extension(complete(3), 0, 3, 2)
    assert not report3.holds
    assert report3.violations == ((3, ()),)

    # the isolated vertex is a maximal clique of fewer than k vertices,
    # though every k-clique's common neighbourhood is one block
    g4 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    report4 = check_clique_extension(g4, 2, 3, 1)
    assert report4.violations == ((1, (3,)),)
    assert report4 == bruteforce.check_clique_extension(g4, 2, 3, 1)

    # the common neighbourhood of vertex 0 is the path 1-2-3, not a union
    # of cliques: (0, 2) lies in two maximal cliques, and 0 in two, not 3
    g6 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    report6 = check_clique_extension(g6, 1, 3, 3)
    assert report6.violations == ((2, (0, 2)), (3, (0,)))
    assert report6 == bruteforce.check_clique_extension(g6, 1, 3, 3)

    # the graph on no vertices: its one maximal clique is the empty one
    for k in (0, 1):
        report5 = check_clique_extension(Graph(0, []), k, 3, 1)
        assert report5.violations == ((1, ()),)
        assert report5 == bruteforce.check_clique_extension(Graph(0, []), k, 3, 1)


def test_condition_3_witness_is_lexicographically_smallest():
    # maximal cliques 014, 015, 034, 124, 234: the edges 05, 15, 03, 12,
    # 23 and 34 lie in one each; 03 is the smallest
    g = Graph.from_edges(
        6,
        [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)],
    )
    report = check_clique_extension(g, 2, 3, 2)
    assert report.violations == ((3, (0, 3)),)
    assert report == bruteforce.check_clique_extension(g, 2, 3, 2)


def test_condition_1_witness_is_lexicographically_smallest():
    # the edges 12, 14, 05 and 45 are maximal cliques of the wrong size;
    # 05 is the smallest
    g = Graph.from_edges(6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (4, 5)])
    report = check_clique_extension(g, 1, 3, 1)
    assert report.violations[0] == (1, (0, 5))
    assert report == bruteforce.check_clique_extension(g, 1, 3, 1)


def test_check_clique_extension_keeps_no_clique_list():
    # (1,3,16) has 4,096 maximal cliques on 768 vertices and (2,4,4) 4,096
    # on 256.  The walk's stack holds at most k frames, and a rejected
    # input reads its witnesses off the common neighbourhoods where the
    # local rule fails: the peaks are 1.3 to 3.4 kB.  Counting every
    # k-subset of every maximal clique peaked at 73 to 736 kB on the four
    # rejected inputs
    cases = [
        ((1, 3, 16), (1, 3, 16), ()),
        ((2, 4, 4), (2, 4, 4), ()),
        ((1, 3, 16), (1, 3, 17), ((3, (0,)),)),
        ((1, 3, 16), (1, 4, 16), ((1, (0, 256, 512)),)),
        ((2, 4, 4), (2, 4, 5), ((3, (0, 64)),)),
        ((2, 4, 4), (2, 5, 4), ((1, (0, 64, 128, 192)),)),
    ]
    for built, params, violations in cases:
        g = build_function_graph(*built)
        tracemalloc.start()
        try:
            report = check_clique_extension(g, *params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.violations == violations, params
        assert peak < 20_000, (params, peak)


def test_local_rule_keeps_at_most_k_frames():
    # one lazy frame per clique of fewer than k vertices on the path to
    # the current one; a k-clique is checked where it is met, not pushed
    code = enumeration.check_clique_extension.__code__
    previous = sys.gettrace()
    for g, params in HOLDING + [(build_function_graph(3, 5, 2), (3, 5, 2))]:
        deepest = 0

        def line(frame, event, arg):
            nonlocal deepest
            deepest = max(deepest, len(frame.f_locals.get("stack", ())))
            return line

        sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
        try:
            holds = check_clique_extension(g, *params).holds
        finally:
            sys.settrace(previous)
        assert holds and deepest == params[0], (params, deepest)


def _failure_routes(rows, c: int, size: int, m: int) -> set:
    """The ways the common neighbourhood c of a k-clique that fails the
    local rule falls short of it."""
    vertices = [v for v in range(c.bit_length()) if c >> v & 1]
    blocks = {rows[u] & c | 1 << u for u in vertices}
    if any(rows[w] & c | 1 << w != b for b in blocks for w in vertices if b >> w & 1):
        return {"not a union of cliques"}
    routes = {"too few blocks"} if max(len(blocks), 1) < m else set()
    if not blocks or any(b.bit_count() != size for b in blocks):
        routes.add("blocks of the wrong size")
    return routes


def test_check_clique_extension_failure_routes(no_maximal_clique_walk):
    # relabelled function graphs, as built, with one edge removed, and with
    # one edge removed and one added, each at its own parameters, m + 1,
    # q + 1 and k - 1 (k + 1 at k = 0): every report matches the oracle,
    # and the k-cliques that fail the local rule fall short of it in
    # every way
    fail_at = next(c for c in enumeration.check_clique_extension.__code__.co_consts
                   if getattr(c, "co_name", None) == "fail_at")
    rng = Random(30)
    routes = set()
    for k, q, m in ((1, 3, 2), (1, 3, 5), (2, 4, 2), (1, 4, 3), (0, 3, 3)):
        built = build_function_graph(k, q, m)
        sigma = list(range(built.n))
        rng.shuffle(sigma)
        edges = sorted(tuple(sorted((sigma[u], sigma[v]))) for u, v in built.edges())
        removed = rng.choice(edges)
        kept = [e for e in edges if e != removed]
        absent = sorted({(u, v) for v in range(built.n) for u in range(v)} - set(edges))
        for variant in (edges, kept, kept + [rng.choice(absent)]):
            g = Graph.from_edges(built.n, variant)
            for params in ((k, q, m), (k, q, m + 1), (k, q + 1, m), (k - 1 if k else 1, q, m)):
                met = []

                def call(frame, event, arg):
                    if frame.f_code is fail_at:
                        met.append(frame.f_locals["c"])

                previous = sys.gettrace()
                sys.settrace(call)
                try:
                    report = check_clique_extension(g, *params)
                finally:
                    sys.settrace(previous)
                assert report == bruteforce.check_clique_extension(g, *params), params
                for c in met:
                    routes |= _failure_routes(g.rows, c, params[1] - params[0], params[2])
    assert routes == {"not a union of cliques", "too few blocks", "blocks of the wrong size"}


def test_check_clique_extension_matches_oracle_on_small_graphs():
    # every labelled graph on at most 5 vertices at every k < q <= 4 and
    # m <= 3: 33,000 reports
    params = [(k, q, m) for q in range(1, 5) for k in range(q) for m in range(1, 4)]
    reports = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            for k, q, m in params:
                expected = bruteforce.check_clique_extension(g, k, q, m)
                assert check_clique_extension(g, k, q, m) == expected, (n, bits, k, q, m)
                reports += 1
    assert reports == 33_000


def test_check_clique_extension_param_validation():
    with pytest.raises(ValueError):
        check_clique_extension(complete(3), 3, 3, 1)
    with pytest.raises(ValueError):
        check_clique_extension(complete(3), -1, 3, 1)
    with pytest.raises(ValueError):
        check_clique_extension(complete(3), 1, 3, 0)


def test_clique_extension_json():
    data = check_clique_extension(complete(4), 1, 4, 1).to_json()
    assert data == {"holds": True, "k": 1, "q": 4, "m": 1, "violations": []}


# -- binomial-ratio chain ---------------------------------------------------


def test_binomial_ratio_check():
    assert binomial_ratio_check(complement(build_function_graph(1, 3, 2))).holds
    assert binomial_ratio_check(complete(3)).holds  # alpha = 1, empty chain
    assert binomial_ratio_check(cycle(4)).holds
    with pytest.raises(ValueError):
        binomial_ratio_check(path(3))


def test_binomial_ratio_check_random_well_covered():
    # complements of function graphs are well-covered by construction
    for (k, q, m) in [(0, 4, 3), (1, 4, 2), (2, 3, 3), (1, 2, 5)]:
        g = complement(build_function_graph(k, q, m))
        result = binomial_ratio_check(g)
        assert result.holds, (k, q, m, result)
