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
    _validate_params,
    build_function_graph,
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
        q = self.q
        # scaled[t-1] * C(q,t) is the join's count at t.  In a component the
        # exponent of m in the t-clique count starts at C(q-1,k), rises by
        # C(q-t-1,k-t) from t to t+1 while t <= k, and stays at C(q,k) above
        # k, so copies * m^C(q,k) is formed once and serves every t > k.
        scaled = [0] * q
        for c in self.components:
            _validate_params(c.k, q, c.m)
            value = c.copies * c.m ** comb(q - 1, c.k)
            for t in range(1, q + 1):
                scaled[t - 1] += value
                if t <= c.k:
                    value *= c.m ** comb(q - t - 1, c.k - t)
        object.__setattr__(self, "predicted", tuple(
            comb(q, t) * s for t, s in enumerate(scaled, start=1)
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
        scale = self.scale
        # |count / T - a| as one fraction, reduced once
        object.__setattr__(self, "deviations", tuple(
            Fraction(abs(count * a.denominator - a.numerator * scale), scale * a.denominator)
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


def _weights(decomp: BDecomposition) -> tuple[int, list[tuple[int, int]]]:
    """L, the lcm of the nonzero b_j's denominators, and the pairs
    (j, w_j = b_j * L), each w_j an exact positive integer."""
    selected = [(j, bj) for j, bj in enumerate(decomp.b, start=1) if bj > 0]
    if not selected:
        raise ValueError(
            "target sequence is identically zero; no join of well-covered "
            "components realizes it"
        )
    denom_lcm = lcm(*(bj.denominator for _, bj in selected))
    weights = []
    for j, bj in selected:
        w = bj * denom_lcm
        if w.denominator != 1:
            raise AssertionError(f"weight {w} for j={j} is not an integer")
        weights.append((j, w.numerator))
    return denom_lcm, weights


def plan_at_m(
    decomp: BDecomposition, m: int, epsilon: Fraction
) -> EpsilonCertificate:
    """Build the symbolic plan for the decomposed target at a fixed m and
    its epsilon certificate, without enforcing that the deviations beat
    epsilon (build_plan finds the m).

    One component per nonzero b_j: the complement of the (j-1, q, m)
    function graph carries scale_j = m^C(q,j-1), and clearing denominators
    with T = L * m^E (L the lcm of the b denominators, E the largest
    needed exponent) makes every copy count n_j = w_j * m^(E - C(q,j-1))
    an exact non-negative integer, with w_j = b_j * L.
    """
    if m < 1:
        raise ValueError("m must be positive")
    q = decomp.target.q
    denom_lcm, weights = _weights(decomp)
    exponent = max(comb(q, j - 1) for j, _ in weights)
    components = tuple(
        PlanComponent(j - 1, m, w * m ** (exponent - comb(q, j - 1)))
        for j, w in weights
    )
    return EpsilonCertificate(
        Plan(q, components), decomp.target, denom_lcm * m**exponent, epsilon
    )


def _certification_test(
    decomp: BDecomposition, eps: Fraction
) -> tuple[Callable[[int], bool], int]:
    """``m -> plan_at_m(decomp, m, eps).certified``, in integers only, and
    a floor: every m <= floor fails it.

    With the integer weights w_j = b_j * L (L the lcm of the nonzero b_j's
    denominators), e_j = C(q-t, j-1-t) and e = max e_j over the nonzero
    b_j with j > t, the test dev_t(m) < eps of ``build_plan`` reads

        C(q,t) * eps.den * sum_{j>t} w_j * m^(e - e_j) < eps.num * L * m^e.

    An index with no nonzero b_j above it has dev_t = 0 and imposes
    nothing.  The floor comes from the terms with e_j = 1 alone: with S1_t
    the sum of their w_j, the left side is at least
    C(q,t) * eps.den * S1_t * m^(e-1), which reaches the right side for
    every m <= C(q,t) * eps.den * S1_t / (eps.num * L).  So index t fails
    every m up to the floor of that quotient, and the floor returned is
    the largest of these over t.
    """
    q = decomp.target.q
    denom_lcm, weights = _weights(decomp)
    rhs = eps.numerator * denom_lcm
    rows = []  # (C(q,t) * eps.den, [(w_j, e - e_j), ...], e) per constrained t
    floor = 0
    for t in range(1, q + 1):
        terms = [(w, comb(q - t, j - 1 - t)) for j, w in weights if j > t]
        if terms:
            lhs = comb(q, t) * eps.denominator
            top = max(e for _, e in terms)
            rows.append((lhs, [(w, top - e) for w, e in terms], top))
            floor = max(floor, lhs * sum(w for w, e in terms if e == 1) // rhs)
    exponents = {top for *_, top in rows}
    exponents.update(d for _, terms, _ in rows for _, d in terms)

    def certified(m: int) -> bool:
        power = {d: m**d for d in exponents}
        return all(
            lhs * sum(w * power[d] for w, d in terms) < rhs * power[top]
            for lhs, terms, top in rows
        )

    return certified, floor


def build_plan(
    target: TargetSequence,
    epsilon: RationalLike,
    *,
    m_cap: int = DEFAULT_M_CAP,
) -> EpsilonCertificate:
    """Certified plan at the smallest workable m.

    Starts from the larger of the smallest m with 2^q/m < epsilon and
    one past the floor of ``_certification_test``, below which every m is
    proven to fail; doubles m (the last step probes ``m_cap`` itself)
    until the plan is certified, then bisects back to the smallest
    certified m.  Each probe is an integer inequality per index: the
    deviation at index t is

        dev_t(m) = C(q,t) * sum_{j>t} b_j / m^C(q-t, j-1-t),

    a sum of non-negative terms b_j / m^e with e >= 1, so it never
    increases as m grows (and strictly falls while some b_j > 0 sits
    above t), which is what the bisection needs.  The term j = t+1 has
    e = 1, so dev_t(m) >= C(q,t) * b_{t+1} / m, which is at least epsilon
    for every m up to the floor.  ``plan_at_m`` runs once, at the m
    found; the reported deviations come from the plan's exact predicted
    counts, and a certificate they do not certify is an internal
    invariant failure (AssertionError).  Raises BudgetExceededError when
    no m <= ``m_cap`` is certified, before any probe when the floor is at
    least ``m_cap`` or the first m is above it.
    """
    eps = _as_fraction(epsilon)
    m = choose_m(target.q, eps)  # refuses epsilon <= 0 before any other check
    decomp = b_decomposition(target)
    certified, floor = _certification_test(decomp, eps)
    if floor >= m_cap:
        raise BudgetExceededError(
            f"every m <= {floor} leaves a deviation of at least epsilon "
            f"{exact_str(eps)}, so no plan with m <= cap {m_cap} is certified"
        )
    if m > m_cap:
        raise BudgetExceededError(f"initial m={m} already exceeds cap {m_cap}")
    m = max(m, floor + 1)
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
