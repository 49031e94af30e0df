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
from typing import Callable, Iterable, Optional

from .certificate import (
    DEFAULT_M_CAP,
    EpsilonCertificate,
    Plan,
    TargetSequence,
    build_plan,
    materialize,
)
from .enumeration import check_ratio_chain, independence_polynomial, is_well_covered
from .function_graph import DEFAULT_VERTEX_BUDGET
from .graph import Graph
from .graph6 import to_graph6
from .polynomial import exact_str


def _as_int(value) -> int:
    # int() alone would truncate 1.5 and take true as 1
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _tail_range(q: int) -> range:
    # a range, so its length and ends cost nothing however large q is
    if q < 1:
        raise ValueError("q must be at least 1")
    return range((q + 1) // 2, q + 1)


def tail_indices(q: int) -> tuple[int, ...]:
    """The index set S = {ceil(q/2), ..., q}."""
    return tuple(_tail_range(q))


@dataclass(frozen=True)
class TailPermutation:
    """A bijection pi of the tail index set S onto itself, stored as its
    images pi(t) for t in S ascending."""

    q: int
    images: tuple[int, ...]

    def __post_init__(self):
        s = _tail_range(self.q)
        if len(self.images) != len(s):
            raise ValueError(
                f"expected {len(s)} images for the tail set "
                f"{{{s.start}, ..., {self.q}}}, got {len(self.images)}"
            )
        if sorted(self.images) != list(s):
            raise ValueError(
                f"not a bijection of the tail set {list(s)}: {dict(zip(s, self.images))}"
            )

    @classmethod
    def from_image_list(cls, q: int, images: Iterable[int]) -> "TailPermutation":
        """Images of S in increasing domain order, e.g. (3, 2) for the
        swap on {2, 3}."""
        return cls(q, tuple(_as_int(v) for v in images))

    @classmethod
    def parse(cls, q: int, text: str) -> "TailPermutation":
        """Read ``--pi`` text: an image list ``3,2``, a JSON list ``[3, 2]``
        or a JSON map ``{"2": 3, "3": 2}`` from t to pi(t)."""
        text = text.strip()
        if not text.startswith(("{", "[")):
            return cls.from_image_list(q, text.split(","))
        # a map arrives as its (key, value) pairs, so a repeated key shows
        data = json.loads(text, object_pairs_hook=tuple)
        if isinstance(data, tuple):
            pairs = sorted(((_as_int(t), v) for t, v in data), key=lambda pair: pair[0])
            keys = [t for t, _ in pairs]
            s = _tail_range(q)
            # too few keys is a wrong image count, reported without listing S
            if len(keys) >= len(s) and keys != list(s):
                raise ValueError(f"map keys {keys} are not the tail set {list(s)}")
            data = [v for _, v in pairs]
        return cls.from_image_list(q, data)

    @property
    def domain(self) -> tuple[int, ...]:
        return tail_indices(self.q)

    def pi(self, t: int) -> int:
        i = t - (self.q + 1) // 2
        if not 0 <= i < len(self.images):
            raise ValueError(f"index {t} not in the tail set")
        return self.images[i]

    def by_rank(self) -> tuple[int, ...]:
        """S in prescribed rank order, lowest rank first."""
        return tuple(sorted(self.domain, key=self.pi))

    def misordered(self, count: Callable[[int], int]) -> Optional[tuple[int, int]]:
        """The first rank-adjacent pair (s, t) with count(s) >= count(t), or None."""
        ranked = self.by_rank()
        pairs = zip(ranked, ranked[1:])
        return next(((s, t) for s, t in pairs if count(s) >= count(t)), None)


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
    check = check_ratio_chain(q, target.a)
    if not check.holds:
        raise AssertionError(
            f"generated target violates the chain at {check.first_violation}"
        )
    return target


# The tail targets 2^q + pi(t) are consecutive integers, so no two differ
# by less than 1; deviations below a third of that keep every strict order.
TAIL_EPSILON = Fraction(1, 3)


@dataclass(frozen=True)
class GraphCheck:
    ok: bool
    reason: Optional[str] = None


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the full pipeline for one tail permutation.

    ``chain`` lists (index, exact predicted count) pairs sorted by
    prescribed rank; ``ordering_verified`` says those counts strictly
    increase.  It must be True for every valid permutation; False would
    signal an internal failure, not a user error.
    """

    certificate: EpsilonCertificate
    chain: tuple[tuple[int, int], ...]
    ordering_verified: bool
    graph: Optional[Graph] = None

    @property
    def plan(self) -> Plan:
        return self.certificate.plan

    @property
    def materialized(self) -> bool:
        return self.graph is not None

    def to_json(self) -> dict:
        plan = self.certificate.to_json()
        out = {
            "plan": plan,
            "target": self.certificate.target.to_json(),
            "epsilon": exact_str(self.certificate.epsilon),
            "ordering_verified": self.ordering_verified,
            "ordering": [t for t, _ in self.chain],
            # the chain's counts are the plan's, already in decimal
            "counts": [plan["predicted"][t - 1] for t, _ in self.chain],
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
    certificate = build_plan(target, TAIL_EPSILON, m_cap=m_cap)
    plan = certificate.plan
    chain = tuple((t, plan.predicted[t - 1]) for t in p.by_rank())
    ordering_verified = p.misordered(lambda t: plan.predicted[t - 1]) is None
    graph = None
    if plan.vertex_total() <= vertex_budget:
        graph = materialize(plan, vertex_budget=vertex_budget)
    return RealizationReport(certificate, chain, ordering_verified, graph)


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
    bad = p.misordered(poly.coefficient)
    if bad is not None:
        s, t = bad
        return GraphCheck(
            False,
            f"ordering violated: i_{s} = {poly.coefficient(s)} "
            f"!< i_{t} = {poly.coefficient(t)}",
        )
    return GraphCheck(True, None)
