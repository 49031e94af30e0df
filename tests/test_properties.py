"""Property tests of the structural rules the enumerator relies on, on
random nested joins and disjoint unions of small graphs.  Such graphs keep
``independence_polynomial`` splitting at every depth: a union into its
components, a join through the dense rule, whose terms each lie inside
one part; the references are the subset-enumeration oracles.  Also
the graph6 round trip against the bit-at-a-time codec, the plan search
against a scan of every m and its proven floor against the plans below
it, predicted counts and deviations of large symbolic plans against the
closed form and Fraction arithmetic, the integer ratio-chain check, the
chain's increments, the certification floor and the certificate's verdict
against their Fraction definitions, materialized plans of mixed k and m
against their predicted counts and their graph6 lines against the ones
written straight from the plan, the CLI's JSON writer against
``json.dumps(indent=2)``, and the clique extension witnesses
against the recursive reference on random graphs.  The maximal clique
walk, well-coveredness and the clique extension check are also compared
with their references on joins and disjoint unions of two random graphs,
where a walk in reverse changes no report, and the independence
polynomial on nested, random and sparse graphs (paths, cycles, and joins
and unions of sparse random graphs) with no memo slot, three slots and
the default.  The whole clique extension report is compared with its
reference on relabelled function graphs with at most one pair toggled,
some beside a second function graph or a lone vertex, at their own
parameters and one step off them: random graphs almost never have the
property, these reach its accepting local rule and each way that rule
fails.
Relabelling a graph changes none of the answers read off it.  ``check``
answers near-complete joins from their co-components as the library
answers on the whole graph.  The well-covered witness is also checked on
graphs whose walk meets another maximal independent set of an extreme
size before the lexicographically smallest one."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from itertools import combinations
from math import comb, floor
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellcovered import (
    BudgetExceededError,
    EpsilonCertificate,
    Graph,
    Plan,
    PlanComponent,
    Polynomial,
    TargetSequence,
    binomial_ratio_check,
    build_function_graph,
    build_plan,
    check_clique_extension,
    complement,
    from_graph6,
    independence_polynomial,
    is_well_covered,
    join,
    materialize,
    maximal_cliques,
    maximal_independent_sets,
    plan_at_m,
    to_graph6,
    vertex_count,
)
from wellcovered import cli, enumeration
from wellcovered.graph import CoComponents
from wellcovered.graph6 import complement_graph6
from wellcovered.certificate import _certification_floor, plan_graph6
from wellcovered.enumeration import check_ratio_chain

import bruteforce
from bruteforce import (
    clique_count_closed_form,
    independence_polynomial_bruteforce,
    smallest_certified_m,
    to_graph6_bitwise,
)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.rows + tuple(r << g.n for r in h.rows))


@st.composite
def nested_graphs(draw, budget: int) -> Graph:
    """A random graph on at most ``budget`` vertices: a leaf of at most 5
    vertices, or a join or disjoint union of two nested graphs that share
    the budget.  Budgets above 5 always split."""
    if budget < 2 or (budget <= 5 and draw(st.booleans())):
        n = draw(st.integers(0, min(budget, 5)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])
    left = draw(st.integers(1, budget - 1))
    g = draw(nested_graphs(left))
    h = draw(nested_graphs(budget - left))
    return join([g, h]) if draw(st.booleans()) else disjoint_union(g, h)


@settings(max_examples=60, deadline=None)
@given(nested_graphs(7), nested_graphs(7))
def test_disjoint_union_multiplies(g, h):
    expected = independence_polynomial_bruteforce(g) * independence_polynomial_bruteforce(h)
    assert independence_polynomial(disjoint_union(g, h)) == expected


@settings(max_examples=60, deadline=None)
@given(nested_graphs(7), nested_graphs(7))
def test_join_adds_above_degree_zero(g, h):
    pg = independence_polynomial_bruteforce(g)
    ph = independence_polynomial_bruteforce(h)
    top = max(pg.degree, ph.degree)
    expected = [pg.coefficient(t) + ph.coefficient(t) for t in range(top + 1)]
    expected[0] -= 1
    assert independence_polynomial(join([g, h])) == Polynomial(expected)


@settings(max_examples=40, deadline=None)
@given(nested_graphs(14))
def test_clique_polynomial_counts_cliques(g):
    counts = [len(bruteforce.cliques_of_size(g, j)) for j in range(g.n + 1)]
    assert independence_polynomial(complement(g)) == Polynomial(counts)


@st.composite
def random_graphs(draw, max_n: int) -> Graph:
    """A random graph on at most ``max_n`` vertices with a drawn density."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.0, 0.002, 0.1, 0.5, 0.9, 0.998, 1.0]))
    return bruteforce.random_graph(Random(draw(st.integers(0, 2**32))), n, density)


@settings(max_examples=80, deadline=None)
@given(random_graphs(100))
def test_graph6_roundtrip(g):
    encoded = to_graph6(g)
    assert encoded == to_graph6_bitwise(g)
    assert from_graph6(encoded) == g


@st.composite
def walk_graphs(draw) -> Graph:
    """A random graph on at most 14 vertices, or a join or disjoint union of
    two on at most 7 each.  Unions of dense parts reach the clique emit and
    the Bron-Kerbosch hand-off of the maximal clique walk below a sparse
    root; joins and dense draws reach the dense root."""
    if draw(st.booleans()):
        return draw(random_graphs(14))
    g, h = draw(random_graphs(7)), draw(random_graphs(7))
    return join([g, h]) if draw(st.booleans()) else disjoint_union(g, h)


@settings(max_examples=200, deadline=None)
@given(walk_graphs())
def test_walk_yields_each_maximal_clique_once(g):
    walked = list(maximal_cliques(g))
    assert len(walked) == len(set(walked))
    assert set(walked) == set(bruteforce.maximal_cliques_by_recursion(g))


@st.composite
def hidden_witness_graphs(draw) -> Graph:
    """A graph on 10 to 14 vertices, highest degree first, each pair an
    edge with probability 0.2 to 0.4, so that :func:`maximal_cliques`
    mostly hands its complement to Bron-Kerbosch whole.  Only a draw whose
    walk meets another maximal independent set of the smallest or the
    largest size before the lexicographically smallest one of that size
    is kept, so a witness that kept the first set it met of a size is
    wrong on every draw."""
    n = draw(st.integers(10, 14))
    g = bruteforce.random_graph(
        Random(draw(st.integers(0, 2**32))), n, draw(st.sampled_from([0.2, 0.3, 0.4]))
    )
    order = sorted(range(n), key=lambda v: -g.degree(v))
    g = relabel(g, [order.index(v) for v in range(n)])
    walked = list(maximal_independent_sets(g))
    sizes = {len(s) for s in walked}
    assume(any(
        next(s for s in walked if len(s) == size) != min(s for s in walked if len(s) == size)
        for size in (min(sizes), max(sizes))
    ))
    return g


@settings(max_examples=150, deadline=None)
@given(st.one_of(walk_graphs(), hidden_witness_graphs()))
def test_is_well_covered_matches_subset_reference(g):
    assert is_well_covered(g) == bruteforce.well_covered_report(g)


@settings(max_examples=150, deadline=None)
@given(walk_graphs(), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))
def test_clique_extension_on_walk_graphs_matches_reference(g, k, dq, m):
    expected = bruteforce.check_clique_extension(g, k, k + dq, m)
    assert check_clique_extension(g, k, k + dq, m) == expected


# Every witness is a lexicographic minimum, so a walk that lists the same
# maximal cliques in reverse changes no report.
@settings(max_examples=150, deadline=None)
@given(walk_graphs(), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))
def test_reports_do_not_depend_on_walk_order(g, k, dq, m):
    def reports():
        return is_well_covered(g), check_clique_extension(g, k, k + dq, m)

    expected = reports()
    walk = enumeration.maximal_cliques
    with mock.patch.object(enumeration, "maximal_cliques", lambda h: reversed(list(walk(h)))):
        assert reports() == expected


# Most random graphs fail some condition, so the witnesses get compared.
@settings(max_examples=150, deadline=None)
@given(random_graphs(14), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3))
def test_clique_extension_matches_membership_reference(g, k, dq, m):
    expected = bruteforce.check_clique_extension(g, k, k + dq, m).to_json()
    assert check_clique_extension(g, k, k + dq, m).to_json() == expected


@settings(max_examples=150, deadline=None)
@given(random_graphs(14))
def test_independence_polynomial_matches_subset_count(g):
    assert independence_polynomial(g) == independence_polynomial_bruteforce(g)


@st.composite
def sparse_graphs(draw) -> Graph:
    """A path or cycle on 10 to 14 vertices in a drawn vertex order, or a
    join or disjoint union of G(n1, p) and G(n2, p) with p <= 0.2, n1 and
    n2 at least 4 and n1 + n2 <= 14.  Smaller graphs meet few memo hits
    or pivots."""
    kind = draw(st.sampled_from(["path", "cycle", "join", "union"]))
    if kind in ("path", "cycle"):
        order = draw(st.permutations(range(draw(st.integers(10, 14)))))
        if kind == "cycle":
            order.append(order[0])
        return Graph.from_edges(len(set(order)), list(zip(order, order[1:])))
    p = draw(st.sampled_from([0.05, 0.1, 0.15, 0.2]))
    n1 = draw(st.integers(4, 10))
    n2 = draw(st.integers(4, 14 - n1))
    g, h = (
        bruteforce.random_graph(Random(draw(st.integers(0, 2**32))), n, p)
        for n in (n1, n2)
    )
    return join([g, h]) if kind == "join" else disjoint_union(g, h)


# With no memo slot only products collect into lists of their own; with
# three, the first nodes do too; by default every node is memoized.
# Nested graphs reach products and joins at every depth, walk graphs the
# dense and sparse rules on random graphs, and sparse graphs the pivot
# rule, products of sparse components, memo hits and the density pass
# that stops early.
@pytest.mark.parametrize("cap", [0, 3, enumeration._MEMO_ENTRIES])
@settings(max_examples=100, deadline=None)
@given(st.one_of(nested_graphs(14), walk_graphs(), sparse_graphs()))
def test_independence_polynomial_under_memo_caps(cap, g):
    with mock.patch.object(enumeration, "_MEMO_ENTRIES", cap):
        assert independence_polynomial(g) == independence_polynomial_bruteforce(g)


def relabel(g: Graph, sigma) -> Graph:
    """g with each vertex v renamed sigma[v]."""
    return Graph.from_edges(g.n, [(sigma[u], sigma[v]) for u, v in g.edges()])


def assert_relabelling_changes_no_answer(g: Graph, sigma, sets=maximal_cliques):
    h = relabel(g, sigma)
    assert independence_polynomial(h) == independence_polynomial(g)
    before, after = is_well_covered(g), is_well_covered(h)
    assert (after.is_well_covered, after.alpha) == (before.is_well_covered, before.alpha)
    assert set(map(frozenset, sets(h))) == {frozenset(sigma[v] for v in s) for s in sets(g)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relabelling_changes_no_answer(data):
    g = data.draw(random_graphs(14))
    assert_relabelling_changes_no_answer(g, data.draw(st.permutations(range(g.n))))


def test_relabelled_function_graph_complement_changes_no_answer():
    # the complement of (2,4,4) has too many maximal cliques to list, so
    # its 4,096 maximal independent sets stand in for them
    g = complement(build_function_graph(2, 4, 4))
    sigma = list(range(g.n))
    Random(1).shuffle(sigma)
    assert_relabelling_changes_no_answer(g, sigma, maximal_independent_sets)


@st.composite
def near_complete_joins(draw) -> bytes:
    """The graph6 line of a join of copies of one to three parts of one to
    four vertices, topped up to at least 600 vertices with single vertices
    or with copies of the first part, relabelled at random and written
    through ``complement_graph6`` from its non-edges.  A part has at most
    3/2 non-edges a vertex, so at most 1.5n of the n(n-1)/12 data bytes
    differ from "~": under 4% from 451 vertices.  Parts of different alpha
    leave the join not well-covered; copies of one well-covered part do
    not."""
    shapes = draw(st.lists(
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(lambda bits, n=n: Graph.from_edges(
            n, [e for e, bit in zip(combinations(range(n), 2), bits) if bit]
        ))),
        min_size=1, max_size=3,
    ))
    parts = [shape for shape in shapes for _ in range(draw(st.integers(1, 100)))]
    filler = draw(st.sampled_from([Graph(1, (0,)), shapes[0]]))
    while sum(p.n for p in parts) < 600:
        parts.append(filler)
    g = join(parts)
    sigma = list(range(g.n))
    Random(draw(st.integers(0, 2**32))).shuffle(sigma)
    return complement_graph6(g.n, (
        (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in complement(g).edges()
    ))


def run_check(path, *argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path), *argv])
    return code, out.getvalue(), err.getvalue()


# check answers these joins from their co-components; the library answers
# on the whole graph, decoded into rows
@settings(max_examples=40, deadline=None)
@given(near_complete_joins())
def test_check_answers_a_join_from_its_parts(line):
    assert isinstance(from_graph6(line, split=True), CoComponents)
    g = from_graph6(line)
    expected = {
        "indpoly": independence_polynomial(g).to_json(),
        "wellcovered": is_well_covered(g)._asdict(),
    }
    try:
        expected["mt"] = binomial_ratio_check(g)._asdict()
    except ValueError as exc:
        refusal = f"error: {exc}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "join.g6"
        path.write_bytes(line + b"\n")
        for mode in ("indpoly", "wellcovered", "mt"):
            for fmt in ("json", "text"):
                got = run_check(path, "--mode", mode, "--format", fmt)
                if mode not in expected:
                    assert got == (3, "", refusal)
                    continue
                payload = expected[mode]
                text = cli._json_text(payload) if fmt == "json" else cli._render_text(payload)
                assert got == (0, text + "\n", ""), (mode, fmt)


# Function graphs on at most 32 vertices; unions of two with the same
# (k, q) stay within 40.
NEAR_GRID = [(0, 3, 2), (0, 3, 3), (1, 3, 2), (1, 3, 3), (2, 3, 2), (2, 3, 3),
             (1, 4, 2), (2, 4, 2), (3, 4, 2)]


@st.composite
def near_function_graphs(draw):
    """A function graph from NEAR_GRID in a drawn vertex order, with zero
    or one drawn pair toggled, optionally after a second function graph
    of the same (k, q) or a lone vertex; and parameters drawn from its
    own (k, q, m), m one off, k one off or q one more.  Random graphs
    almost never have the clique extension property; these often do, or
    miss it by one condition.  The lone vertex is a maximal clique of
    fewer than k vertices once k >= 2."""
    k, q, m = draw(st.sampled_from(NEAR_GRID))
    g = build_function_graph(k, q, m)
    sigma = draw(st.permutations(range(g.n)))
    g = relabel(g, sigma)
    if draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        g = Graph(g.n, tuple(rows))
    partners = [build_function_graph(*p) for p in NEAR_GRID
                if p[:2] == (k, q) and g.n + vertex_count(*p) <= 40]
    if draw(st.booleans()):
        g = disjoint_union(draw(st.sampled_from([Graph(1, (0,)), *partners])), g)
    candidates = [(k, q, m), (k, q, m - 1), (k, q, m + 1), (k - 1, q, m), (k + 1, q, m),
                  (k, q + 1, m)]
    params = draw(st.sampled_from([(a, b, c) for a, b, c in candidates if 0 <= a < b and c >= 1]))
    return g, params


@settings(max_examples=200, deadline=None)
@given(near_function_graphs())
def test_clique_extension_near_function_graphs_matches_reference(case):
    g, (k, q, m) = case
    assert check_clique_extension(g, k, q, m) == bruteforce.check_clique_extension(g, k, q, m)


@st.composite
def chain_targets(draw) -> TargetSequence:
    """a_t = C(q,t) * (b_1 + ... + b_t) for q <= 6 and b_j >= 0, some of
    them zero or fractional, not all zero: exactly the targets that satisfy
    the binomial-ratio chain."""
    q = draw(st.integers(1, 6))
    increment = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 40), st.integers(1, 6)),
    )
    b = draw(st.lists(increment, min_size=q, max_size=q).filter(any))
    return TargetSequence([comb(q, t) * sum(b[:t]) for t in range(1, q + 1)])


# With these ranges about three quarters of the drawn cases certify at
# the first probe, a fifth are refused before any probe and a few search
# past the first probe (test_build_plan_doubles_then_bisects pins one).
@settings(max_examples=100, deadline=None)
@given(
    chain_targets(),
    st.builds(Fraction, st.integers(1, 20), st.integers(1, 4)),
    st.integers(1, 400),
)
def test_build_plan_finds_the_smallest_certified_m(target, eps, m_cap):
    expected = smallest_certified_m(target, eps, m_cap)
    if expected is None:
        with pytest.raises(BudgetExceededError):
            build_plan(target, eps, m_cap=m_cap)
    else:
        cert = build_plan(target, eps, m_cap=m_cap)
        assert {c.m for c in cert.plan.components} == {expected} and cert.certified


@settings(max_examples=100, deadline=None)
@given(chain_targets(), st.builds(Fraction, st.integers(1, 20), st.integers(1, 4)))
def test_every_m_up_to_the_floor_is_uncertified(target, eps):
    floor = _certification_floor(target, eps)
    # a small floor is scanned in full, a large one at a few points
    checked = range(1, floor + 1) if floor <= 100 else (1, 2, floor // 2, floor - 1, floor)
    for m in checked:
        assert not plan_at_m(target, m, eps).certified, m


@settings(max_examples=100, deadline=None)
@given(
    chain_targets(),
    st.sampled_from((Fraction(1, 3), Fraction(1, 1000), Fraction(7, 2))),
    st.integers(-3, 40),
)
def test_integer_forms_match_their_fraction_definitions(target, eps, offset):
    # the increments, the floor and the verdict are integer expressions in
    # the library; here each is its Fraction definition, at m from just
    # below the floor (never certified) to past it
    q = target.q
    ratios = [a / comb(q, t) for t, a in enumerate(target.values, start=1)]
    assert target.b == tuple(hi - lo for lo, hi in zip([Fraction(0)] + ratios, ratios))
    floor_m = _certification_floor(target, eps)
    assert floor_m == max(
        (floor(comb(q, t) * target.b[t] / eps) for t in range(1, q)), default=0
    )
    cert = plan_at_m(target, max(1, floor_m + offset), eps)
    assert cert.certified == all(d < eps for d in cert.deviations)


@st.composite
def symbolic_plans(draw) -> Plan:
    """Joins of 1-4 components of any size, q <= 13, never materialized:
    each component's k and m drawn on their own, copies up to 10^40."""
    q = draw(st.integers(1, 13))
    component = st.builds(
        PlanComponent, st.integers(0, q - 1), st.integers(1, 40), st.integers(1, 10**40)
    )
    return Plan(q, tuple(draw(st.lists(component, min_size=1, max_size=4))))


@settings(max_examples=100, deadline=None)
@given(symbolic_plans())
def test_predicted_counts_are_sums_of_closed_forms(plan):
    assert plan.predicted == tuple(
        sum(c.copies * clique_count_closed_form(c.k, plan.q, c.m, t) for c in plan.components)
        for t in range(1, plan.q + 1)
    )


@settings(max_examples=100, deadline=None)
@given(symbolic_plans(), st.integers(1, 10**60), st.data())
def test_deviations_are_scaled_distances(plan, scale, data):
    # targets at, below or above count / scale: a factor in [0, 2] of the
    # plan's scaled counts, whose ratios never fall, plus the chain of some
    # non-negative increments, so every draw satisfies the chain
    q = plan.q
    factor = data.draw(st.one_of(
        st.just(Fraction(1)), st.fractions(min_value=0, max_value=2, max_denominator=10**6)
    ))
    increments = data.draw(st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
        ),
        min_size=q,
        max_size=q,
    ))
    target = TargetSequence([
        factor * Fraction(count, scale) + comb(q, t) * sum(increments[:t])
        for t, count in enumerate(plan.predicted, start=1)
    ])
    cert = EpsilonCertificate(plan, target, scale, Fraction(1, 3))
    assert cert.deviations == tuple(
        abs(Fraction(count, scale) - a) for count, a in zip(plan.predicted, target.values)
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.one_of(
        st.integers(0, 10**30),
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**9),
    ),
    min_size=1,
    max_size=12,
), st.booleans())
def test_integer_ratio_chain_matches_fractions(values, as_chain):
    q = len(values)
    if as_chain:  # read the draws as increments b_t, so the chain holds
        values = [comb(q, t) * sum(values[:t]) for t in range(1, q + 1)]
    ratios = [Fraction(v) / comb(q, t) for t, v in enumerate(values, start=1)]
    first = next((t for t in range(1, q) if ratios[t - 1] > ratios[t]), None)
    check = check_ratio_chain(q, lambda t: values[t - 1])
    assert (check.holds, check.first_violation) == (first is None, first)
    # the target refuses exactly what the check refuses, at the same index,
    # and an accepted target's increments rebuild it
    try:
        target = TargetSequence(values)
    except ValueError as exc:
        assert str(exc) == f"binomial-ratio chain violated at index {first}"
    else:
        assert first is None
        assert all(
            comb(q, t) * sum(target.b[:t]) == values[t - 1] for t in range(1, q + 1)
        )


@st.composite
def mixed_plans(draw, copies: int = 3, total: int = 60) -> Plan:
    """Joins of 1-3 components whose k and m may differ, q <= 4: each leaf
    has at most 24 vertices, each component at most ``copies`` copies, and
    the join at most ``total`` vertices."""
    q = draw(st.integers(1, 4))
    leaves = [(k, m) for k in range(q) for m in range(1, 25) if vertex_count(k, q, m) <= 24]
    component = st.builds(
        lambda leaf, copies: PlanComponent(*leaf, copies),
        st.sampled_from(leaves),
        st.integers(1, copies),
    )
    components = st.lists(component, min_size=1, max_size=3).map(tuple)
    return draw(components.map(lambda cs: Plan(q, cs)).filter(lambda p: p.vertex_total() <= total))


@settings(max_examples=100, deadline=None)
@given(mixed_plans())
def test_materialized_mixed_plan_matches_prediction(plan):
    g = materialize(plan)
    assert g.n == plan.vertex_total()
    assert tuple(independence_polynomial(g)) == (1, *plan.predicted)
    report = is_well_covered(g)
    assert report.is_well_covered and report.alpha == plan.q


# up to 30 copies a component and 400 vertices, past the one-byte graph6
# header at 62 vertices
@settings(max_examples=100, deadline=None)
@given(st.one_of(mixed_plans(), mixed_plans(copies=30, total=400)))
def test_plan_graph6_is_the_materialized_line(plan):
    line = plan_graph6(plan, vertex_budget=plan.vertex_total())
    assert line == to_graph6(materialize(plan))


# printable ASCII but for '"' and '\\', which a long string copies unescaped
PLAIN = "".join(chr(c) for c in range(32, 127) if chr(c) not in '"\\')


@st.composite
def long_strings(draw) -> str:
    """Strings about as long as the writer's cut-over, some with one
    character that needs escaping."""
    s = draw(st.text(st.sampled_from(PLAIN), min_size=cli._PLAIN_FROM - 2, max_size=300))
    odd = draw(st.sampled_from(["", '"', "\\", "\n", "\x00", "\x7f", "\u00e9", "\U0001f600"]))
    at = draw(st.integers(0, len(s)))
    return s[:at] + odd + s[at:]


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**400), 10**400),
        st.text(),
        long_strings(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), long_strings()), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_refuses_other_types():
    # json.dumps would write a float and an int key; the CLI prints neither
    for value in (1.5, {1: "a"}, [{"a": {1, 2}}]):
        with pytest.raises(TypeError):
            cli._json_text(value)
