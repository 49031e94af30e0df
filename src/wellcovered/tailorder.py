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
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
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
    plan_graph6,
)
from .function_graph import DEFAULT_VERTEX_BUDGET
from .graph import Graph
# unused here (the certificate's line comes from plan_graph6), but
# perfbench/spans.py wraps tailorder.to_graph6 by name
from .graph6 import to_graph6  # noqa: F401
from .polynomial import exact_str


def _as_int(value) -> int:
    # int() alone would truncate 1.5 and take true as 1; reprlib shortens
    # a deeply nested list, whose full repr would recurse once per level
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {reprlib.repr(value)}")
    return int(value)


def tail_indices(q: int) -> range:
    """The index set S = {ceil(q/2), ..., q}, as a range, so its length
    and ends cost nothing however large q is."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return range((q + 1) // 2, q + 1)


@dataclass(frozen=True)
class TailPermutation:
    """A bijection pi of the tail index set S onto itself, stored as its
    images pi(t) for t in S ascending, together with its inverse: S in
    prescribed rank order."""

    q: int
    images: tuple[int, ...]
    _ranked: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = tail_indices(self.q)
        if len(self.images) != len(s):
            raise ValueError(
                f"expected {len(s)} images for the tail set "
                f"{{{s.start}, ..., {self.q}}}, got {len(self.images)}"
            )
        if sorted(self.images) != list(s):
            raise ValueError(
                f"not a bijection of the tail set {list(s)}: {dict(zip(s, self.images))}"
            )
        ranked = [0] * len(s)
        for t, image in zip(s, self.images):
            ranked[image - s.start] = t
        object.__setattr__(self, "_ranked", tuple(ranked))

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
        try:
            data = json.loads(text, object_pairs_hook=tuple)
        except RecursionError:  # the decoder recurses once per level of nesting
            raise ValueError("JSON nested too deeply") from None
        if isinstance(data, tuple):
            pairs = sorted(((_as_int(t), v) for t, v in data), key=lambda pair: pair[0])
            keys = [t for t, _ in pairs]
            s = tail_indices(q)
            # too few keys is a wrong image count, reported without listing S
            if len(keys) >= len(s) and keys != list(s):
                raise ValueError(f"map keys {keys} are not the tail set {list(s)}")
            data = [v for _, v in pairs]
        return cls.from_image_list(q, data)

    def pi(self, t: int) -> int:
        s = tail_indices(self.q)
        if t not in s:
            raise ValueError(f"index {t} not in the tail set")
        return self.images[t - s.start]

    def by_rank(self) -> tuple[int, ...]:
        """S in prescribed rank order, lowest rank first."""
        return self._ranked

    def misordered(self, count: Callable[[int], int]) -> Optional[tuple[int, int]]:
        """The first rank-adjacent pair (s, t) with count(s) >= count(t), or None."""
        ranked = self.by_rank()
        pairs = zip(ranked, ranked[1:])
        return next(((s, t) for s, t in pairs if count(s) >= count(t)), None)


def target_from_permutation(p: TailPermutation) -> TargetSequence:
    """Targets a_t = C(q,t) below the tail and 2^q + pi(t) on it.

    The result always satisfies the binomial-ratio chain: the tail ratios
    exceed 1 while consecutive tail values shrink by at most a factor
    1 + 2/q, which consecutive binomials above q/2 also dominate.  A
    refusal of the chain is an internal failure, not a user error.
    """
    q = p.q
    head = [comb(q, t) for t in range(1, tail_indices(q).start)]
    tail = [(1 << q) + image for image in p.images]
    try:
        return TargetSequence(head + tail)
    except ValueError as exc:
        raise AssertionError(f"generated target: {exc}") from None


# The tail targets 2^q + pi(t) are consecutive integers, so no two differ
# by less than 1; deviations below a third of that keep every strict order.
TAIL_EPSILON = Fraction(1, 3)


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the full pipeline for one tail permutation.

    Everything it reports about the order is read off the plan's exact
    predicted counts: ``ordering_verified`` says they strictly increase in
    prescribed rank order.  It must be True for every valid permutation;
    False would signal an internal failure, not a user error.
    ``materialized`` says the plan fits the vertex budget ``realize`` was
    given; the JSON then embeds the certificate's graph6 line, written
    from the plan, and ``graph`` builds the certificate on first use.
    """

    permutation: TailPermutation
    certificate: EpsilonCertificate
    materialized: bool

    @property
    def plan(self) -> Plan:
        return self.certificate.plan

    @cached_property
    def graph(self) -> Optional[Graph]:
        """The certificate graph, or None when the plan is over budget."""
        if not self.materialized:
            return None
        return materialize(self.plan, vertex_budget=self.plan.vertex_total())

    def graph6(self) -> Optional[bytes]:
        """The certificate's graph6 line, written from the plan, or None
        when the plan is over budget."""
        if not self.materialized:
            return None
        return plan_graph6(self.plan, vertex_budget=self.plan.vertex_total())

    @property
    def ordering_verified(self) -> bool:
        predicted = self.plan.predicted
        return self.permutation.misordered(lambda t: predicted[t - 1]) is None

    def to_json(self, graph6: Optional[bytes] = None) -> dict:
        """The report as JSON; the CLI takes its exit code from
        ``ordering_verified`` here, so the order is checked once.
        ``graph6`` is the line of :meth:`graph6`, if the caller has it."""
        plan = self.certificate.to_json()
        ranked = self.permutation.by_rank()
        out = {
            "plan": plan,
            "target": self.certificate.target.to_json(),
            "epsilon": exact_str(self.certificate.epsilon),
            "ordering_verified": self.ordering_verified,
            "ordering": list(ranked),
            # the plan's counts, already in decimal
            "counts": [plan["predicted"][t - 1] for t in ranked],
            "materialized": self.materialized,
        }
        if self.materialized:
            out["graph6"] = (graph6 or self.graph6()).decode("ascii")
        return out


def realize(
    p: TailPermutation,
    *,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    m_cap: int = DEFAULT_M_CAP,
) -> RealizationReport:
    """Target, epsilon, certified plan, and the exact ordering check.

    Nothing is materialized here: the report is marked materialized when
    the plan fits ``vertex_budget``, and otherwise ships the symbolic plan
    alone.
    """
    target = target_from_permutation(p)
    certificate = build_plan(target, TAIL_EPSILON, m_cap=m_cap)
    fits = certificate.plan.vertex_total() <= vertex_budget
    return RealizationReport(p, certificate, fits)
