from fractions import Fraction
from math import comb
from random import Random

import pytest

from wellcovered import (
    BudgetExceededError,
    EpsilonCertificate,
    Plan,
    PlanComponent,
    TargetSequence,
    build_plan,
    independence_polynomial,
    is_well_covered,
    materialize,
    plan_at_m,
)
from wellcovered.certificate import _certification_floor
from wellcovered.enumeration import check_ratio_chain

from bruteforce import clique_count_closed_form

THIRD = Fraction(1, 3)


# -- chain check -----------------------------------------------------------


def test_check_binomial_chain():
    def chain(values):
        return check_ratio_chain(len(values), lambda t: values[t - 1])

    assert chain([3, 10, 11]).holds
    assert chain([3, 3, 1]).holds  # equalities allowed
    result = chain([2, 0])
    assert not result.holds and result.first_violation == 1


def test_target_sequence_validation():
    with pytest.raises(ValueError, match="non-negative"):
        TargetSequence([-1, 1])
    with pytest.raises(ValueError):
        TargetSequence([])
    t = TargetSequence([1, "3/2"])
    assert t.q == 2 and t.values == (Fraction(1), Fraction(3, 2))


# -- b-decomposition ---------------------------------------------------------


def test_b_decomposition_examples():
    assert TargetSequence([3, 11, 10]).b == (Fraction(1), Fraction(8, 3), Fraction(19, 3))
    assert TargetSequence([3, 3, 1]).b == (Fraction(1), Fraction(0), Fraction(0))
    for tgt in (TargetSequence([3, 11, 10]), TargetSequence([3, 3, 1])):
        for t in range(1, 4):
            assert comb(3, t) * sum(tgt.b[:t], Fraction(0)) == tgt.values[t - 1]


def test_target_sequence_rejects_bad_chain():
    with pytest.raises(ValueError, match="chain violated at index 1"):
        TargetSequence([2, 0])


def test_b_decomposition_random_roundtrip():
    # any non-negative increments give a valid chain; reconstruction is exact
    rng = Random(13)
    for _ in range(30):
        q = rng.randint(1, 7)
        b = [Fraction(rng.randint(0, 20), rng.randint(1, 9)) for _ in range(q)]
        a = [comb(q, t) * sum(b[:t], Fraction(0)) for t in range(1, q + 1)]
        assert TargetSequence(a).b == tuple(b)


# -- plan construction --------------------------------------------------------


def test_build_plan_q3_swap_rederived():
    # independent re-derivation: T = 3 m^3, copies (3m^2, 8, 19), and the
    # deviations (8/m + 19/m^2, 19/m, 0) first all beat 1/3 at m = 58
    cert = build_plan(TargetSequence([3, 11, 10]), THIRD)
    (m,) = {c.m for c in cert.plan.components}
    assert m == 58
    assert cert.scale == 3 * m**3
    assert [(c.k, c.copies) for c in cert.plan.components] == [
        (0, 3 * m**2),
        (1, 8),
        (2, 19),
    ]
    assert cert.deviations == (
        Fraction(8, m) + Fraction(19, m**2),
        Fraction(19, m),
        Fraction(0),
    )
    assert max(cert.deviations) == Fraction(19, 58)
    assert cert.certified


def test_build_plan_q3_identity():
    cert = build_plan(TargetSequence([3, 10, 11]), THIRD)
    assert [(c.k, c.m, c.copies) for c in cert.plan.components] == [
        (0, 70, 3 * 70**2),
        (1, 70, 7),
        (2, 70, 23),
    ]
    assert max(cert.deviations) == Fraction(23, 70)


def test_build_plan_exact_fit():
    # the scaled q-clique profile needs one component and has zero error
    # at every m, so the smallest, m = 1, fits under a cap of 1
    cert = build_plan(TargetSequence([3, 3, 1]), THIRD, m_cap=1)
    assert [(c.k, c.m, c.copies) for c in cert.plan.components] == [(0, 1, 1)]
    assert cert.scale == 1
    assert cert.deviations == (Fraction(0), Fraction(0), Fraction(0))


def test_plan_predicted_counts_are_component_sums():
    plan = build_plan(TargetSequence([3, 11, 10]), THIRD).plan
    for t in range(1, 4):
        expected = sum(
            c.copies * clique_count_closed_form(c.k, 3, c.m, t)
            for c in plan.components
        )
        assert plan.predicted[t - 1] == expected


def test_per_copy_exactness_split():
    # within one component: scaled counts are exactly C(q,t) at t > k and
    # at most C(q,t)/m at t <= k
    for k, q, m in [(0, 3, 4), (1, 3, 2), (2, 4, 3), (3, 5, 2), (1, 2, 7)]:
        scale = m ** comb(q, k)
        for t in range(1, q + 1):
            count = clique_count_closed_form(k, q, m, t)
            if t >= k + 1:
                assert count == scale * comb(q, t)
            else:
                assert count * m <= scale * comb(q, t)


def test_monotone_retry_deviations():
    for values in ([3, 11, 10], [3, 10, 11], [4, 20, 18, 19]):
        q = len(values)
        tgt = TargetSequence(values)
        for m in (3, 10, 41):
            small = plan_at_m(tgt, m, THIRD)
            large = plan_at_m(tgt, 2 * m, THIRD)
            for d2, d1 in zip(large.deviations, small.deviations):
                assert d2 <= d1


def test_build_plan_errors():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        build_plan(TargetSequence([2, 5]), 0)
    with pytest.raises(ValueError, match="need m >= 1"):
        plan_at_m(TargetSequence([2, 5]), 0, THIRD)
    with pytest.raises(ValueError):
        build_plan(TargetSequence([0, 0]), THIRD)  # identically zero
    with pytest.raises(BudgetExceededError):
        build_plan(TargetSequence([3, 11, 10]), THIRD, m_cap=40)


def test_certification_floor_q3_swap():
    # w = (3, 8, 19) with L = 3: index 1 fails every m <= 3 * 3 * 8 / 3 = 24
    # and index 2 every m <= 3 * 3 * 19 / 3 = 57, the deviation 19/m >= 1/3
    tgt = TargetSequence([3, 11, 10])
    assert _certification_floor(tgt, THIRD) == 57
    assert not plan_at_m(tgt, 57, THIRD).certified
    assert plan_at_m(tgt, 58, THIRD).certified


def test_build_plan_refuses_a_cap_under_the_floor_before_probing(probes):
    tgt = TargetSequence([3, 11, 10])
    with pytest.raises(BudgetExceededError) as err:
        build_plan(tgt, THIRD, m_cap=57)
    assert "every m <= 57" in str(err.value)
    assert "cap 57" in str(err.value)
    assert probes == []
    assert {c.m for c in build_plan(tgt, THIRD, m_cap=58).plan.components} == {58}
    assert probes == [58]
    # a floor of 0 leaves every m to the search, and m = 1 is its first probe
    probes.clear()
    assert {c.m for c in build_plan(TargetSequence([3, 3, 1]), THIRD, m_cap=1).plan.components} == {1}
    assert probes == [1]


def test_build_plan_doubles_then_bisects(probes):
    # b = (0, 0, 0, 0, 2, 5): every m <= 90 is proven to fail, and the
    # second term of dev_4(m) = 15 * (2/m + 5/m^2) fails 91 and 92 as well,
    # so the search doubles to 182 and bisects back to 93.  Its last probe,
    # 92, fails; the certificate returned is the one probed at 93.
    cert = build_plan(TargetSequence([0, 0, 0, 0, 12, 7]), THIRD)
    assert probes == [91, 182, 137, 114, 103, 97, 94, 93, 92]
    assert {c.m for c in cert.plan.components} == {93} and cert.certified


# -- epsilon certificates ----------------------------------------------------------

# one complement of the (1, 3, 2) function graph: counts (12, 24, 8)
SMALL_PLAN = Plan(3, (PlanComponent(1, 2, 1),))


def test_plan_refuses_copies_below_one():
    # -1 copies would predict (18, 42, 14) for a join of 24 vertices whose
    # counts are (24, 48, 16); 0 copies would leave materialize nothing
    with pytest.raises(ValueError, match="need copies >= 1, got copies=-1"):
        Plan(3, (PlanComponent(1, 2, 2), PlanComponent(0, 2, -1)))
    with pytest.raises(ValueError, match="need copies >= 1, got copies=0"):
        Plan(3, (PlanComponent(1, 2, 0),))


def test_epsilon_certificate_exact():
    assert SMALL_PLAN.predicted == (12, 24, 8)
    tgt = TargetSequence([Fraction(3, 2), 3, 1])
    cert = EpsilonCertificate(SMALL_PLAN, tgt, 8, Fraction(1, 100))
    assert cert.certified
    assert cert.deviations == (Fraction(0), Fraction(0), Fraction(0))
    # deviations are absolute: a target above the counts is missed too
    above = EpsilonCertificate(SMALL_PLAN, TargetSequence([2, 3, 1]), 8, Fraction(1, 100))
    assert above.deviations == (Fraction(1, 2), Fraction(0), Fraction(0))
    assert not above.certified


def test_epsilon_certificate_sensitivity():
    cert = build_plan(TargetSequence([3, 11, 10]), THIRD)
    assert EpsilonCertificate(cert.plan, cert.target, cert.scale, THIRD).certified
    quarter = EpsilonCertificate(cert.plan, cert.target, cert.scale, Fraction(1, 4))
    assert not quarter.certified
    # fails exactly at index 2: 19/58 > 1/4 while the index-1 deviation passes
    assert quarter.deviations[0] < Fraction(1, 4) < quarter.deviations[1]


def test_epsilon_certificate_validation():
    tgt = TargetSequence([1, 2, 3])
    with pytest.raises(ValueError):
        EpsilonCertificate(SMALL_PLAN, TargetSequence([1, 2]), 1, THIRD)
    with pytest.raises(ValueError):
        EpsilonCertificate(SMALL_PLAN, tgt, 0, THIRD)
    with pytest.raises(ValueError):
        EpsilonCertificate(SMALL_PLAN, tgt, 1, 0)


# -- materialization -------------------------------------------------------------


def test_materialize_trivial_plan():
    # with m forced to 1 the single component is the complement of one
    # complete graph: the empty graph on q vertices, an exact certificate
    plan = plan_at_m(TargetSequence([3, 3, 1]), 1, THIRD).plan
    g = materialize(plan)
    assert g.n == 3 and g.edge_count() == 0
    assert list(independence_polynomial(g)) == [1, 3, 3, 1]


def test_materialized_counts_match_predictions():
    cases = [
        (TargetSequence([6, 5]), 3),
        (TargetSequence([5, 6]), 4),
        (TargetSequence([3, 11, 10]), 2),
        (TargetSequence([3, 11, 10]), 3),
    ]
    for tgt, m in cases:
        plan = plan_at_m(tgt, m, THIRD).plan
        g = materialize(plan)
        assert g.n == plan.vertex_total()
        poly = independence_polynomial(g)
        assert tuple(poly)[1:] == plan.predicted
        report = is_well_covered(g)
        assert report.is_well_covered and report.alpha == tgt.q


def test_materialize_budget():
    plan = build_plan(TargetSequence([6, 5]), THIRD).plan
    assert plan.vertex_total() == 1066
    with pytest.raises(BudgetExceededError) as err:
        materialize(plan, vertex_budget=100)
    assert "1066" in str(err.value)


def test_plan_json_schema():
    cert = build_plan(TargetSequence([3, 11, 10]), THIRD)
    data = cert.to_json()
    assert list(data) == [
        "q", "epsilon", "components", "T", "predicted", "deviations", "low_order_counts"
    ]
    assert data["q"] == 3
    assert data["epsilon"] == "1/3"
    assert data["T"] == str(3 * 58**3)
    assert data["components"][0] == {"k": 0, "m": 58, "copies": str(3 * 58**2)}
    assert data["predicted"] == [str(p) for p in cert.plan.predicted]
    assert data["deviations"][1] == "19/58"
