"""Certificate plans: joins of function-graph complements whose scaled
independence counts approximate a prescribed coefficient sequence.

A target (a_1, ..., a_q) satisfying the binomial-ratio chain decomposes
as a_t = C(q,t) * sum_{s<=t} b_s with b_s >= 0.  Each nonzero b_j buys
copies of the complement of the (j-1, q, m) function graph, whose scaled
counts are exactly C(q,t) for t >= j and at most C(q,t)/m below.  Copy
counts and the scale T are cleared to exact integers, the per-index
deviations are exact rationals, and m is grown until every deviation is
below the requested epsilon.  A ``Plan`` is the join and its exact
counts; an ``EpsilonCertificate`` measures a plan against a target.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Union

from .enumeration import check_ratio_chain
from .errors import BudgetExceededError
from .function_graph import (
    DEFAULT_VERTEX_BUDGET,
    build_function_graph,
    clique_count_closed_form,
    vertex_count,
)
from .graph import Graph, complement, join
from .polynomial import exact_str

DEFAULT_M_CAP = 1 << 20

RationalLike = Union[Fraction, int, str]


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class TargetSequence:
    """Coefficients a_1, ..., a_q to be approximated (a_0 is implicitly 1
    and excluded from certification).  values[t-1] holds a_t."""

    q: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if len(self.values) != self.q:
            raise ValueError(f"expected {self.q} values, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise ValueError("target coefficients must be non-negative")

    @classmethod
    def of(cls, q: int, values: Iterable[RationalLike]) -> "TargetSequence":
        return cls(q, tuple(_as_fraction(v) for v in values))

    def a(self, t: int) -> Fraction:
        if not 1 <= t <= self.q:
            raise ValueError(f"index {t} out of range 1..{self.q}")
        return self.values[t - 1]

    def to_json(self) -> list[str]:
        return [exact_str(v) for v in self.values]


@dataclass(frozen=True)
class BDecomposition:
    """The increments b_t of the target's ratio chain: b_1 = a_1/C(q,1)
    and b_t = a_t/C(q,t) - a_{t-1}/C(q,t-1); all non-negative when the
    chain holds, and a_t = C(q,t) * sum_{s<=t} b_s exactly."""

    target: TargetSequence
    b: tuple[Fraction, ...]


def b_decomposition(target: TargetSequence) -> BDecomposition:
    check = check_ratio_chain(target.q, target.a)
    if not check.holds:
        raise ValueError(
            f"binomial-ratio chain violated at index {check.first_violation}"
        )
    q = target.q
    ratios = [target.a(t) / comb(q, t) for t in range(1, q + 1)]
    b = [ratios[0]]
    b.extend(ratios[t] - ratios[t - 1] for t in range(1, q))
    return BDecomposition(target, tuple(b))


def choose_m(q: int, epsilon: RationalLike) -> int:
    """Smallest positive integer m with 2^q / m < epsilon."""
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    # need m > 2^q / eps, strictly
    return (1 << q) * eps.denominator // eps.numerator + 1


@dataclass(frozen=True)
class PlanComponent:
    """copies disjoint copies of the complement of the (k, q, m) function
    graph, all joined into the certificate graph."""

    k: int
    m: int
    copies: int


@dataclass(frozen=True)
class Plan:
    """A join of components, each ``copies`` disjoint copies of the
    complement of a (k, q, m) function graph; components may differ in k
    and m.  ``predicted[t-1]`` is the join's exact independence count i_t
    for t = 1..q: a join adds counts above degree 0, and the complement's
    independent sets are the function graph's cliques, counted by the
    grid-validated closed form.
    """

    q: int
    components: tuple[PlanComponent, ...]
    predicted: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "predicted", tuple(
            sum(
                c.copies * clique_count_closed_form(c.k, self.q, c.m, t)
                for c in self.components
            )
            for t in range(1, self.q + 1)
        ))

    def vertex_total(self) -> int:
        return sum(
            c.copies * vertex_count(c.k, self.q, c.m) for c in self.components
        )


@dataclass(frozen=True)
class EpsilonCertificate:
    """The epsilon argument for a plan: the exact deviations
    |predicted_t / scale - a_t| for t = 1..q, and whether all beat epsilon.

    Low-order predicted counts (t <= k within a component) never exceed
    the m-fold coverage bound scale_j * C(q,t) / m, so the check errs on
    neither side.
    """

    plan: Plan
    target: TargetSequence
    scale: int
    epsilon: Fraction
    deviations: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.plan.q != self.target.q:
            raise ValueError(
                f"plan has q = {self.plan.q}, target has q = {self.target.q}"
            )
        object.__setattr__(self, "deviations", tuple(
            abs(Fraction(count, self.scale) - a)
            for count, a in zip(self.plan.predicted, self.target.values)
        ))

    @property
    def certified(self) -> bool:
        return all(d < self.epsilon for d in self.deviations)

    def to_json(self) -> dict:
        return {
            "q": self.plan.q,
            "epsilon": exact_str(self.epsilon),
            "components": [
                {"k": c.k, "m": c.m, "copies": exact_str(c.copies)}
                for c in self.plan.components
            ],
            "T": exact_str(self.scale),
            "predicted": [exact_str(p) for p in self.plan.predicted],
            "deviations": [exact_str(d) for d in self.deviations],
            "low_order_counts": "closed-form, grid-validated; at or below the m-fold coverage bound",
        }


def plan_at_m(
    decomp: BDecomposition, m: int, epsilon: Fraction
) -> EpsilonCertificate:
    """Build the symbolic plan for the decomposed target at a fixed m and
    its epsilon certificate, without enforcing that the deviations beat
    epsilon (build_plan finds the m).

    One component per nonzero b_j: the complement of the (j-1, q, m)
    function graph carries scale_j = m^C(q,j-1), and clearing denominators
    with T = L * m^E (L the lcm of the b denominators, E the largest
    needed exponent) makes every copy count n_j = b_j * T / scale_j an
    exact non-negative integer.
    """
    if m < 1:
        raise ValueError("m must be positive")
    target = decomp.target
    q = target.q
    selected = [(j, bj) for j, bj in enumerate(decomp.b, start=1) if bj > 0]
    if not selected:
        raise ValueError(
            "target sequence is identically zero; no join of well-covered "
            "components realizes it"
        )
    exponent = max(comb(q, j - 1) for j, _ in selected)
    denom_lcm = lcm(*(bj.denominator for _, bj in selected))
    scale = denom_lcm * m**exponent
    components = []
    for j, bj in selected:
        copies = bj * denom_lcm * m ** (exponent - comb(q, j - 1))
        if copies.denominator != 1:
            raise AssertionError(f"copy count {copies} for j={j} is not an integer")
        components.append(PlanComponent(j - 1, m, int(copies)))
    return EpsilonCertificate(Plan(q, tuple(components)), target, scale, epsilon)


def _certification_test(
    decomp: BDecomposition, eps: Fraction
) -> Callable[[int], bool]:
    """``m -> plan_at_m(decomp, m, eps).certified``, in integers only.

    With the integer weights w_j = b_j * L (L the lcm of the nonzero b_j's
    denominators), e_j = C(q-t, j-1-t) and e = max e_j over the nonzero
    b_j with j > t, the test dev_t(m) < eps of ``build_plan`` reads

        C(q,t) * eps.den * sum_{j>t} w_j * m^(e - e_j) < eps.num * L * m^e.

    An index with no nonzero b_j above it has dev_t = 0 and imposes
    nothing.
    """
    q = decomp.target.q
    selected = [(j, bj) for j, bj in enumerate(decomp.b, start=1) if bj > 0]
    denom_lcm = lcm(*(bj.denominator for _, bj in selected))
    rhs = eps.numerator * denom_lcm
    rows = []  # (C(q,t) * eps.den, [(w_j, e - e_j), ...], e) per constrained t
    for t in range(1, q + 1):
        terms = [
            (bj.numerator * (denom_lcm // bj.denominator), comb(q - t, j - 1 - t))
            for j, bj in selected
            if j > t
        ]
        if terms:
            top = max(e for _, e in terms)
            rows.append(
                (comb(q, t) * eps.denominator, [(w, top - e) for w, e in terms], top)
            )
    exponents = {top for *_, top in rows}
    exponents.update(d for _, terms, _ in rows for _, d in terms)

    def certified(m: int) -> bool:
        power = {d: m**d for d in exponents}
        return all(
            lhs * sum(w * power[d] for w, d in terms) < rhs * power[top]
            for lhs, terms, top in rows
        )

    return certified


def build_plan(
    target: TargetSequence,
    epsilon: RationalLike,
    *,
    m_cap: int = DEFAULT_M_CAP,
) -> EpsilonCertificate:
    """Certified plan at the smallest workable m.

    Starts from the smallest m with 2^q/m < epsilon, doubles m (the
    last step probes ``m_cap`` itself) until the plan is certified, then
    bisects back to the smallest certified m.  Each probe is an integer
    inequality per index: the deviation at index t is

        dev_t(m) = C(q,t) * sum_{j>t} b_j / m^C(q-t, j-1-t),

    a sum of non-negative terms b_j / m^e with e >= 1, so it never
    increases as m grows (and strictly falls while some b_j > 0 sits
    above t), which is what the bisection needs.  ``plan_at_m`` runs once,
    at the m found; the reported deviations come from the plan's exact
    predicted counts, and a certificate they do not certify is an
    internal invariant failure (AssertionError).  Raises
    BudgetExceededError when no m <= ``m_cap`` is certified.
    """
    eps = _as_fraction(epsilon)
    m = choose_m(target.q, eps)  # refuses epsilon <= 0 before any other check
    decomp = b_decomposition(target)
    certified = _certification_test(decomp, eps)
    if m > m_cap:
        raise BudgetExceededError(f"initial m={m} already exceeds cap {m_cap}")
    low, high = m - 1, m  # low: the largest m known to fail
    while not certified(high):
        if high == m_cap:
            raise BudgetExceededError(
                f"no certified plan with m <= cap {m_cap} (epsilon {exact_str(eps)})"
            )
        low, high = high, min(2 * high, m_cap)
    # range(high)[i] == i, so this is the smallest certified m in (low, high]
    m = bisect_left(range(high), True, lo=low + 1, key=certified)
    certificate = plan_at_m(decomp, m, eps)
    if not certificate.certified:
        raise AssertionError(
            f"integer probe certified m={m} but the plan's deviations do not "
            f"beat epsilon {exact_str(eps)}"
        )
    return certificate


def materialize(
    plan: Plan, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> Graph:
    """Join of all planned copies, in plan order.

    The result is well-covered with independence number q by construction
    (a join of well-covered graphs of equal independence number), and its
    independence counts equal ``plan.predicted`` exactly.
    """
    total = plan.vertex_total()
    if total > vertex_budget:
        raise BudgetExceededError(
            f"materialized plan needs {total} vertices, over budget {vertex_budget}"
        )
    parts: list[Graph] = []
    for c in plan.components:
        g = complement(
            build_function_graph(c.k, plan.q, c.m, vertex_budget=vertex_budget)
        )
        parts.extend([g] * c.copies)
    return join(parts)
