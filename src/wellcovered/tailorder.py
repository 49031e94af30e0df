"""Realizing prescribed orderings of the independence-sequence tail.

Given q and a permutation pi of the tail index set S = {ceil(q/2), ..., q},
the pipeline builds a target sequence whose tail values 2^q + pi(t) encode
the prescribed ranks, certifies it with a plan whose deviations stay below
a third of the minimal tail gap, and then checks the strict ordering on
the plan's exact predicted counts directly (which is stronger than the
epsilon argument it rides on).  pi(t) is the desired rank of the count at
index t: the realized graph satisfies i_s < i_t exactly when pi(s) < pi(t)
for s, t in S.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Optional

from .certificate import (
    DEFAULT_M_CAP,
    CertificatePlan,
    TargetSequence,
    build_plan,
    check_binomial_chain,
    materialize,
)
from .enumeration import independence_polynomial, is_well_covered
from .function_graph import DEFAULT_VERTEX_BUDGET
from .graph import Graph
from .graph6 import to_graph6
from .polynomial import exact_str


def tail_indices(q: int) -> tuple[int, ...]:
    """The index set S = {ceil(q/2), ..., q}."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return tuple(range((q + 1) // 2, q + 1))


@dataclass(frozen=True)
class TailPermutation:
    """A bijection pi of the tail index set S onto itself, stored as
    (t, pi(t)) pairs sorted by t."""

    q: int
    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self):
        s = tail_indices(self.q)
        domain = tuple(t for t, _ in self.mapping)
        images = sorted(v for _, v in self.mapping)
        if domain != s or images != list(s):
            raise ValueError(
                f"not a bijection of the tail set {list(s)}: {dict(self.mapping)}"
            )

    @classmethod
    def from_mapping(cls, q: int, mapping: Mapping[int, int]) -> "TailPermutation":
        return cls(q, tuple(sorted((int(t), int(v)) for t, v in mapping.items())))

    @classmethod
    def from_image_list(cls, q: int, images: Iterable[int]) -> "TailPermutation":
        """Images of S in increasing domain order, e.g. (3, 2) for the
        swap on {2, 3}."""
        s = tail_indices(q)
        images = tuple(int(v) for v in images)
        if len(images) != len(s):
            raise ValueError(
                f"expected {len(s)} images for the tail set {list(s)}, got {len(images)}"
            )
        return cls(q, tuple(zip(s, images)))

    @classmethod
    def from_json(cls, q: int, text: str) -> "TailPermutation":
        """Parse either a JSON map like {"2": 3, "3": 2} or an image list."""
        data = json.loads(text)
        if isinstance(data, dict):
            return cls.from_mapping(q, {int(t): v for t, v in data.items()})
        return cls.from_image_list(q, data)

    @property
    def domain(self) -> tuple[int, ...]:
        return tail_indices(self.q)

    def pi(self, t: int) -> int:
        i = t - self.mapping[0][0]
        if not 0 <= i < len(self.mapping):
            raise ValueError(f"index {t} not in the tail set")
        return self.mapping[i][1]


def target_from_permutation(p: TailPermutation) -> TargetSequence:
    """Targets a_t = C(q,t) below the tail and 2^q + pi(t) on it.

    The result always satisfies the binomial-ratio chain: the tail ratios
    exceed 1 while consecutive tail values shrink by at most a factor
    1 + 2/q, which consecutive binomials above q/2 also dominate.
    """
    q = p.q
    head = [Fraction(comb(q, t)) for t in range(1, (q + 1) // 2)]
    tail = [Fraction((1 << q) + p.pi(t)) for t in p.domain]
    target = TargetSequence(q, tuple(head + tail))
    check = check_binomial_chain(target)
    if not check.holds:
        raise AssertionError(
            f"generated target violates the chain at {check.first_violation}"
        )
    return target


def epsilon_from_target(target: TargetSequence, indices: Iterable[int]) -> Fraction:
    """One third of the smallest gap between target values on ``indices``.

    Deviations below this bound preserve every strict inequality among
    the chosen indices.  Raises ValueError when two values tie; with
    fewer than two indices any positive epsilon works and 1/3 is returned.
    """
    values = sorted(target.a(t) for t in set(indices))
    gaps = [b - a for a, b in zip(values, values[1:])]
    if 0 in gaps:
        raise ValueError("tail target values must be pairwise distinct")
    if not gaps:
        return Fraction(1, 3)
    return min(gaps) / 3


@dataclass(frozen=True)
class GraphCheck:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the full pipeline for one tail permutation.

    ``chain`` lists (index, exact predicted count) pairs sorted by
    prescribed rank; ``ordering_verified`` says those counts strictly
    increase.  It must be True for every valid permutation; False would
    signal an internal failure, not a user error.
    """

    plan: CertificatePlan
    target: TargetSequence
    epsilon: Fraction
    chain: tuple[tuple[int, int], ...]
    ordering_verified: bool
    graph: Optional[Graph] = None

    @property
    def materialized(self) -> bool:
        return self.graph is not None

    def to_json(self) -> dict:
        out = {
            "plan": self.plan.to_json(),
            "target": self.target.to_json(),
            "epsilon": exact_str(self.epsilon),
            "ordering_verified": self.ordering_verified,
            "ordering": [t for t, _ in self.chain],
            "counts": [exact_str(c) for _, c in self.chain],
            "materialized": self.materialized,
        }
        if self.graph is not None:
            out["graph6"] = to_graph6(self.graph).decode("ascii")
        return out


def realize(
    p: TailPermutation,
    *,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    m_cap: int = DEFAULT_M_CAP,
) -> RealizationReport:
    """Target, epsilon, certified plan, and the exact ordering check.

    Materialization is attempted only when the plan fits ``vertex_budget``;
    otherwise the report ships the symbolic plan alone.
    """
    target = target_from_permutation(p)
    eps = epsilon_from_target(target, p.domain)
    plan = build_plan(target, eps, m_cap=m_cap)
    by_rank = sorted(p.domain, key=p.pi)
    chain = tuple((t, plan.predicted[t - 1]) for t in by_rank)
    ordering_verified = all(
        chain[i][1] < chain[i + 1][1] for i in range(len(chain) - 1)
    )
    graph = None
    if plan.vertex_total() <= vertex_budget:
        graph = materialize(plan, vertex_budget=vertex_budget)
    return RealizationReport(plan, target, eps, chain, ordering_verified, graph)


def verify_on_graph(g: Graph, p: TailPermutation) -> GraphCheck:
    """Check, on a real graph, everything the pipeline promises: well-
    covered, independence number q, and the prescribed strict tail order
    of the true independence counts."""
    report = is_well_covered(g)
    if not report.is_well_covered:
        sizes = sorted(len(w) for w in report.witness)
        return GraphCheck(False, f"not well-covered: maximal set sizes {sizes}")
    if report.alpha != p.q:
        return GraphCheck(
            False, f"independence number {report.alpha} != q = {p.q}"
        )
    poly = independence_polynomial(g)
    by_rank = sorted(p.domain, key=p.pi)
    for s, t in zip(by_rank, by_rank[1:]):
        if not poly.coefficient(s) < poly.coefficient(t):
            return GraphCheck(
                False,
                f"ordering violated: i_{s} = {poly.coefficient(s)} "
                f"!< i_{t} = {poly.coefficient(t)}",
            )
    return GraphCheck(True, None)
