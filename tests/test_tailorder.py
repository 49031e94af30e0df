from fractions import Fraction
from itertools import permutations
from math import comb
from random import Random

import pytest

from wellcovered import (
    BudgetExceededError,
    EpsilonCertificate,
    build_plan,
    TailPermutation,
    build_function_graph,
    complement,
    independence_polynomial,
    realize,
    tail_indices,
    target_from_permutation,
)
from wellcovered.certificate import _certification_floor
from wellcovered.tailorder import TAIL_EPSILON

from bruteforce import verify_on_graph

def perm(q, *images):
    return TailPermutation.from_image_list(q, images)


# -- permutation type ---------------------------------------------------------


def test_tail_indices():
    assert tuple(tail_indices(1)) == (1,)
    assert tuple(tail_indices(2)) == (1, 2)
    assert tuple(tail_indices(3)) == (2, 3)
    assert tuple(tail_indices(6)) == (3, 4, 5, 6)
    assert len(tail_indices(10**14)) == 5 * 10**13 + 1
    with pytest.raises(ValueError, match="q must be at least 1"):
        tail_indices(0)


def test_permutation_construction():
    p = perm(3, 3, 2)
    assert p.pi(2) == 3 and p.pi(3) == 2
    for outside in (1, 4):
        with pytest.raises(ValueError):
            p.pi(outside)
    assert p.images == (3, 2) and p.by_rank() == (3, 2)
    assert TailPermutation.parse(3, " 3 , 2 ") == p
    assert TailPermutation.parse(3, '{"2": 3, "3": 2}') == p
    assert TailPermutation.parse(3, "[3, 2]") == p


def test_permutation_validation():
    with pytest.raises(ValueError):
        perm(3, 2, 2)  # not a bijection
    with pytest.raises(ValueError):
        perm(3, 2)  # wrong length
    with pytest.raises(ValueError):
        perm(3, 1, 2)  # images outside the tail set
    with pytest.raises(ValueError):
        TailPermutation.parse(3, '{"1": 2, "2": 3}')  # wrong domain
    # ranks are ints or numeral strings: floats and booleans are refused,
    # not truncated
    for images in ([1.5, 2], [True, 2], [1.0, 2]):
        with pytest.raises(ValueError):
            TailPermutation.from_image_list(2, images)
    for text in ("[1.5, 2]", "[true, 2]", '{"1": 2.9, "2": 1}', '{"1": 2, "2": false}'):
        with pytest.raises(ValueError):
            TailPermutation.parse(2, text)
    assert TailPermutation.from_image_list(2, ["2", "1"]) == perm(2, 2, 1)


# -- targets and epsilon ---------------------------------------------------------


def test_target_from_permutation():
    assert target_from_permutation(perm(3, 2, 3)).values == (3, 10, 11)
    assert target_from_permutation(perm(3, 3, 2)).values == (3, 11, 10)
    p4 = TailPermutation.parse(4, '{"2": 4, "3": 2, "4": 3}')
    assert target_from_permutation(p4).values == (4, 20, 18, 19)


def test_generated_targets_satisfy_chain_with_margin():
    # tail ratios shrink by at most 1 + 2/q per step, while consecutive
    # binomials above q/2 shrink by at least that much; check both exactly,
    # for every permutation with q <= 6 and for the identity, the reversal
    # and one shuffle with q up to 60 (building a target needs no plan, and
    # target_from_permutation raises AssertionError on a broken chain)
    cases = [(q, p) for q in range(1, 7) for p in permutations(tail_indices(q))]
    for q in range(1, 61):
        s = list(tail_indices(q))
        shuffled = s[:]
        Random(q).shuffle(shuffled)
        cases += [(q, s), (q, s[::-1]), (q, shuffled)]
    for q, images in cases:
        tgt = target_from_permutation(TailPermutation.from_image_list(q, images))
        bound = 1 + Fraction(2, q)
        for t in tgt_tail_pairs(q):
            assert tgt.values[t - 1] <= bound * tgt.values[t]
            assert bound * comb(q, t + 1) <= comb(q, t)


def tgt_tail_pairs(q):
    s = tail_indices(q)
    return [t for t in s if t + 1 in s]


# -- pipeline -----------------------------------------------------------------


def test_realize_q3_swap():
    report = realize(perm(3, 3, 2), vertex_budget=1)
    assert report.ordering_verified
    assert {c.m for c in report.plan.components} == {58}
    assert report.certificate.epsilon == Fraction(1, 3)
    assert report.permutation == perm(3, 3, 2)
    assert report.plan.predicted[1:] == (6630444, 5853360)
    assert not report.materialized
    data = report.to_json()
    assert data["ordering"] == [3, 2]
    assert data["counts"] == ["5853360", "6630444"]
    assert data["materialized"] is False
    assert "graph6" not in data


def test_realize_q2_materialized():
    for images, expected_n in [((2, 1), 1066), ((1, 2), 5148)]:
        p = perm(2, *images)
        report = realize(p)
        assert report.ordering_verified
        assert report.materialized and report.graph.n == expected_n
        poly = independence_polynomial(report.graph)
        assert tuple(poly)[1:] == report.plan.predicted
        assert verify_on_graph(report.graph, p).ok
        assert "graph6" in report.to_json()


# (smallest, largest) plan m over all tail permutations of each q
PLAN_M_RANGE = {
    2: (13, 22),
    3: (58, 70),
    4: (157, 187),
    5: (415, 451),
    6: (997, 1060),
    7: (2368, 2440),
}


def test_realize_all_small_tails_symbolic():
    for q in (1, 2, 3, 4, 5, 6, 7):
        ms = []
        for images in permutations(tail_indices(q)):
            p = TailPermutation.from_image_list(q, images)
            report = realize(p, vertex_budget=1)
            assert report.ordering_verified, (q, images)
            ms.extend(c.m for c in report.plan.components)
            # deviations stayed under a third of the minimal gap, so the
            # exact counts must repeat the target order; spot-check the
            # implication by re-verifying the certificate
            cert = report.certificate
            assert EpsilonCertificate(cert.plan, cert.target, cert.scale, cert.epsilon).certified
        if q in PLAN_M_RANGE:
            assert (min(ms), max(ms)) == PLAN_M_RANGE[q], q


def test_tail_plans_certify_at_the_first_probe(probes):
    # for tail targets the proven floor is tight: the search makes one
    # probe, one past the floor, and that probe certifies
    cases = [(q, p) for q in range(1, 8) for p in permutations(tail_indices(q))]
    for q in range(8, 14):
        s = tuple(tail_indices(q))
        cases += [(q, s), (q, s[::-1]), (q, s[1:] + s[:1])]
    for q, images in cases:
        tgt = target_from_permutation(TailPermutation.from_image_list(q, images))
        first = _certification_floor(tgt, TAIL_EPSILON) + 1
        probes.clear()
        plan = build_plan(tgt, TAIL_EPSILON).plan
        assert probes == [first], (q, images)
        assert {c.m for c in plan.components} == {first}, (q, images)
    # at q = 15 the floor is past the default cap: refused, nothing probed
    probes.clear()
    identity = TailPermutation.from_image_list(15, tail_indices(15))
    with pytest.raises(BudgetExceededError, match=r"every m <= 1376889 "):
        build_plan(target_from_permutation(identity), TAIL_EPSILON)
    assert probes == []


def test_ordering_semantics_match_rank_reading():
    # pi(t) is the rank of the count at index t
    report = realize(perm(4, 4, 2, 3), vertex_budget=1)
    counts = {t: report.plan.predicted[t - 1] for t in (2, 3, 4)}
    assert counts[3] < counts[4] < counts[2]


def test_tail_order_check():
    p = perm(5, 5, 3, 4)  # pi(3) = 5, pi(4) = 3, pi(5) = 4
    assert p.by_rank() == (4, 5, 3)
    assert p.misordered({3: 30, 4: 10, 5: 20}.get) is None
    assert p.misordered({3: 30, 4: 20, 5: 20}.get) == (4, 5)  # a tie is out of order
    assert p.misordered({3: 10, 4: 10, 5: 20}.get) == (5, 3)


# -- verify_on_graph ---------------------------------------------------------


def test_verify_on_graph_examples():
    g = complement(build_function_graph(1, 3, 2))  # counts (12, 24, 8)
    assert verify_on_graph(g, perm(3, 3, 2)).ok
    check = verify_on_graph(g, perm(3, 2, 3))
    assert not check.ok
    assert check.reason == "ordering violated: i_2 = 24 !< i_3 = 8"

    from wellcovered import Graph

    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    check = verify_on_graph(path3, perm(2, 1, 2))
    assert not check.ok and "well-covered" in check.reason

    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    check = verify_on_graph(c4, perm(3, 2, 3))
    assert not check.ok and "independence number" in check.reason
