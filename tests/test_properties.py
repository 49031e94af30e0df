"""Property tests of the structural rules the enumerator relies on, on
random nested joins and disjoint unions of small graphs.  Such graphs keep
``independence_polynomial`` splitting at every depth: a union into its
components, a join through the dense rule, whose terms each lie inside
one part; the references are the subset-enumeration oracles.  Also
the graph6 round trip against the bit-at-a-time codec, the plan search
against a scan of every m and its proven floor against the plans below
it, predicted counts and deviations of large symbolic plans against the
closed form and Fraction arithmetic, the integer ratio-chain check against
Fraction comparison, materialized plans of mixed k and m against their
predicted counts, and the enumeration order and clique extension
witnesses against the recursive references on random graphs."""

from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcovered import (
    BudgetExceededError,
    EpsilonCertificate,
    Graph,
    Plan,
    PlanComponent,
    Polynomial,
    TargetSequence,
    b_decomposition,
    build_plan,
    check_clique_extension,
    clique_count_closed_form,
    clique_polynomial,
    from_graph6,
    independence_polynomial,
    is_well_covered,
    join,
    materialize,
    maximal_cliques,
    plan_at_m,
    to_graph6,
    vertex_count,
)
from wellcovered.certificate import _certification_test
from wellcovered.enumeration import check_ratio_chain

import bruteforce
from bruteforce import (
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
    assert clique_polynomial(g) == Polynomial(counts)


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


@settings(max_examples=150, deadline=None)
@given(random_graphs(14))
def test_maximal_cliques_in_reference_order(g):
    assert list(maximal_cliques(g)) == bruteforce.maximal_cliques_in_order(g)


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
    return TargetSequence.of(q, [comb(q, t) * sum(b[:t]) for t in range(1, q + 1)])


# With these ranges about a third of the drawn cases search past the
# first m, a third stop at it and a third find no certified m <= cap.
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
    decomp = b_decomposition(target)
    _, floor = _certification_test(decomp, eps)
    # a small floor is scanned in full, a large one at a few points
    checked = range(1, floor + 1) if floor <= 100 else (1, 2, floor // 2, floor - 1, floor)
    for m in checked:
        assert not plan_at_m(decomp, m, eps).certified, m


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
    # targets at, near or far from count / scale, on either side
    offsets = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    values = [
        data.draw(st.one_of(
            st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
            offsets.map(lambda d, c=count: max(Fraction(c, scale) + d, Fraction(0))),
        ))
        for count in plan.predicted
    ]
    target = TargetSequence.of(plan.q, values)
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


@st.composite
def mixed_plans(draw) -> Plan:
    """Joins of 1-3 components whose k and m may differ, q <= 4: each leaf
    has at most 24 vertices, each component at most 3 copies, and the
    join at most 60 vertices."""
    q = draw(st.integers(1, 4))
    leaves = [(k, m) for k in range(q) for m in range(1, 25) if vertex_count(k, q, m) <= 24]
    component = st.builds(
        lambda leaf, copies: PlanComponent(*leaf, copies),
        st.sampled_from(leaves),
        st.integers(1, 3),
    )
    components = st.lists(component, min_size=1, max_size=3).map(tuple)
    return draw(components.map(lambda cs: Plan(q, cs)).filter(lambda p: p.vertex_total() <= 60))


@settings(max_examples=100, deadline=None)
@given(mixed_plans())
def test_materialized_mixed_plan_matches_prediction(plan):
    g = materialize(plan)
    assert g.n == plan.vertex_total()
    assert tuple(independence_polynomial(g)) == (1, *plan.predicted)
    report = is_well_covered(g)
    assert report.is_well_covered and report.alpha == plan.q
