"""Certificate plans: joins of function-graph complements whose scaled
independence counts approximate a prescribed coefficient sequence.

A target (a_1, ..., a_q) satisfying the binomial-ratio chain decomposes
as a_t = C(q,t) * sum_{s<=t} b_s with b_s >= 0.  Each nonzero b_j buys
copies of the complement of the (j-1, q, m) function graph, whose scaled
counts are exactly C(q,t) for t >= j and at most C(q,t)/m below.  Copy
counts and the scale T are cleared to exact integers, the per-index
deviations are exact rationals, and m is grown from a proven floor until
every deviation is below the requested epsilon.  A ``Plan`` is the join
and its exact counts; an ``EpsilonCertificate`` measures a plan against
a target.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, lcm

from .enumeration import check_ratio_chain
from .errors import BudgetExceededError, size_str
from .function_graph import (
    DEFAULT_VERTEX_BUDGET,
    _validate_params,
    build_function_graph,
    vertex_count,
)
from .graph import Graph, complement, join
from .polynomial import exact_str

DEFAULT_M_CAP = 1 << 20

@dataclass(frozen=True)
class TargetSequence:
    """Coefficients a_1, ..., a_q to be approximated (a_0 is implicitly 1
    and excluded from certification), each read with ``Fraction``, so 3 or
    "3/2" will do.  values[t-1] holds a_t.

    The target must satisfy the binomial-ratio chain a_t/C(q,t) <=
    a_{t+1}/C(q,t+1).  ``b`` holds the chain's increments: b_1 = a_1/C(q,1)
    and b_t = a_t/C(q,t) - a_{t-1}/C(q,t-1), all non-negative, with
    a_t = C(q,t) * sum_{s<=t} b_s exactly.
    """

    values: tuple[Fraction, ...]
    b: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self):
        values = tuple(map(Fraction, self.values))
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("q must be at least 1")
        if any(v < 0 for v in values):
            raise ValueError("target coefficients must be non-negative")
        q = len(values)
        check = check_ratio_chain(q, lambda t: values[t - 1])
        if not check.holds:
            raise ValueError(
                f"binomial-ratio chain violated at index {check.first_violation}"
            )
        # b_t = n/d - pn/pd with n/d = a_t/C(q,t) and pn/pd the ratio at
        # t-1, both unreduced, so each b_t is reduced once
        b = []
        pn, pd = 0, 1
        for t, a in enumerate(values, start=1):
            n, d = a.numerator, a.denominator * comb(q, t)
            b.append(Fraction(n * pd - pn * d, d * pd))
            pn, pd = n, d
        object.__setattr__(self, "b", tuple(b))

    @property
    def q(self) -> int:
        return len(self.values)

    def to_json(self) -> list[str]:
        return [exact_str(v) for v in self.values]


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
    independent sets are the function graph's cliques.  A (k, q, m)
    function graph has C(q,t) * m^(C(q,k) - C(q-t,k-t)) cliques of size t
    (the second binomial is 0 for t > k).  This is the library's only copy
    of that closed form; the tests check it against enumerated clique
    counts on the function-graph grid and on graphs of up to 2,048
    vertices.
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
        # Components share most powers of m (60 distinct of 118 at q = 17),
        # so each is formed once per plan.
        scaled = [0] * q
        power = cache(pow)
        for c in self.components:
            _validate_params(c.k, q, c.m)
            if c.copies < 1:
                raise ValueError(f"need copies >= 1, got copies={c.copies}")
            value = c.copies * power(c.m, comb(q - 1, c.k))
            for t in range(1, q + 1):
                scaled[t - 1] += value
                if t <= c.k:
                    value *= power(c.m, comb(q - t - 1, c.k - t))
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
    neither side.  ``certified`` compares each deviation with epsilon by
    cross-multiplying its unreduced numerator and denominator; only
    ``deviations``, which are printed, pay for reducing them.
    """

    plan: Plan
    target: TargetSequence
    scale: int
    epsilon: Fraction

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.plan.q != self.target.q:
            raise ValueError(
                f"plan has q = {self.plan.q}, target has q = {self.target.q}"
            )

    def _unreduced_deviations(self):
        """Each |count / T - a| as a numerator and denominator pair."""
        scale = self.scale
        for count, a in zip(self.plan.predicted, self.target.values):
            yield abs(count * a.denominator - a.numerator * scale), scale * a.denominator

    @property
    def deviations(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self._unreduced_deviations())

    @property
    def certified(self) -> bool:
        eps = self.epsilon
        return all(
            n * eps.denominator < eps.numerator * d for n, d in self._unreduced_deviations()
        )

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
    target: TargetSequence, m: int, epsilon: Fraction
) -> EpsilonCertificate:
    """Build the symbolic plan for the target at a fixed m and its epsilon
    certificate, without enforcing that the deviations beat epsilon
    (build_plan finds the m).

    One component per nonzero b_j: the complement of the (j-1, q, m)
    function graph carries scale_j = m^C(q,j-1), and clearing denominators
    with T = L * m^E (L the lcm of the nonzero b_j's denominators, E the
    largest needed exponent) makes every copy count n_j = w_j * m^(E -
    C(q,j-1)) an exact positive integer, with w_j = b_j * L.
    """
    q = target.q
    selected = [(j, bj) for j, bj in enumerate(target.b, start=1) if bj]
    if not selected:
        raise ValueError(
            "target sequence is identically zero; no join of well-covered "
            "components realizes it"
        )
    denom_lcm = lcm(*(bj.denominator for _, bj in selected))
    exponent = max(comb(q, j - 1) for j, _ in selected)
    components = []
    for j, bj in selected:
        share, rest = divmod(denom_lcm, bj.denominator)
        if rest:
            raise AssertionError(f"weight {bj * denom_lcm} for j={j} is not an integer")
        components.append(
            PlanComponent(j - 1, m, bj.numerator * share * m ** (exponent - comb(q, j - 1)))
        )
    return EpsilonCertificate(
        Plan(q, tuple(components)), target, denom_lcm * m**exponent, epsilon
    )


def _certification_floor(target: TargetSequence, eps: Fraction) -> int:
    """The largest m proven uncertified, or 0 when none is: every m up to
    it leaves a deviation of at least eps.

    The term j = t+1 of dev_t(m) (see ``build_plan``) has exponent 1, so
    dev_t(m) >= C(q,t) * b_{t+1} / m, which is at least eps for every
    m <= C(q,t) * b_{t+1} / eps.  An index with b_{t+1} = 0, such as the
    only index at q = 1, proves nothing.
    """
    q, b = target.q, target.b
    return max((
        comb(q, t) * b[t].numerator * eps.denominator // (b[t].denominator * eps.numerator)
        for t in range(1, q)
    ), default=0)


def build_plan(
    target: TargetSequence,
    epsilon: Fraction,
    *,
    m_cap: int = DEFAULT_M_CAP,
) -> EpsilonCertificate:
    """Certified plan at the smallest certified m.

    Starts one past the floor of ``_certification_floor``, below which
    every m is proven to fail; doubles m (the last step probes ``m_cap``
    itself) until the plan is certified, then bisects back to the smallest
    certified m.  Each probe is ``plan_at_m``'s certificate at that m, and
    the one returned is the probe at the m found.  The deviation at index
    t is

        dev_t(m) = C(q,t) * sum_{j>t} b_j / m^C(q-t, j-1-t),

    a sum of non-negative terms b_j / m^e with e >= 1, so it never
    increases as m grows (and strictly falls while some b_j > 0 sits
    above t), which is what the bisection needs.  Raises
    BudgetExceededError when no m <= ``m_cap`` is certified, before any
    probe when the floor is at least ``m_cap``.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    floor = _certification_floor(target, eps)
    if floor >= m_cap:
        raise BudgetExceededError(
            f"every m <= {floor} leaves a deviation of at least epsilon "
            f"{exact_str(eps)}, so no plan with m <= cap {m_cap} is certified"
        )
    found = None  # the certificate of the smallest certified m probed

    def certified(m: int) -> bool:
        nonlocal found
        certificate = plan_at_m(target, m, eps)
        verdict = certificate.certified
        if verdict:
            # the doubling stops at its first certified m, and the
            # bisection only probes below a certified m
            found = certificate
        return verdict

    low, high = floor, floor + 1  # low: the largest m known to fail
    while not certified(high):
        if high == m_cap:
            raise BudgetExceededError(
                f"no certified plan with m <= cap {m_cap} (epsilon {exact_str(eps)})"
            )
        low, high = high, min(2 * high, m_cap)
    # range(high)[i] == i, so this probes m in (low, high) down to the
    # smallest certified one, and leaves its certificate in found
    bisect_left(range(high), True, lo=low + 1, key=certified)
    return found


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
            f"materialized plan needs {size_str(total)} vertices, "
            f"over budget {vertex_budget}"
        )
    parts: list[Graph] = []
    for c in plan.components:
        g = complement(
            build_function_graph(c.k, plan.q, c.m, vertex_budget=vertex_budget)
        )
        parts.extend([g] * c.copies)
    return join(parts)
