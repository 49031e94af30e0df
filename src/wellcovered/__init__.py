"""Exact tools for well-covered graphs: constructions whose complements
are well-covered by design, big-integer independence counting, certificate
plans for prescribed coefficient sequences, and realization of arbitrary
independence-sequence tail orderings."""

from .certificate import (
    EpsilonCertificate,
    Plan,
    PlanComponent,
    TargetSequence,
    b_decomposition,
    build_plan,
    choose_m,
    materialize,
    plan_at_m,
)
from .enumeration import (
    binomial_ratio_check,
    check_clique_extension,
    clique_polynomial,
    cliques_of_size,
    independence_polynomial,
    is_well_covered,
    maximal_cliques,
    maximal_independent_sets,
)
from .errors import BudgetExceededError
from .function_graph import (
    FunctionVertex,
    build_function_graph,
    clique_count_closed_form,
    function_vertices,
    vertex_count,
)
from .graph import Graph, complement, complete, disjoint_copies, join
from .graph6 import Graph6Error, from_graph6, to_graph6
from .polynomial import Polynomial
from .tailorder import (
    TailPermutation,
    realize,
    tail_indices,
    target_from_permutation,
    verify_on_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "EpsilonCertificate",
    "FunctionVertex",
    "Graph",
    "Graph6Error",
    "Plan",
    "PlanComponent",
    "Polynomial",
    "TailPermutation",
    "TargetSequence",
    "b_decomposition",
    "binomial_ratio_check",
    "build_function_graph",
    "build_plan",
    "check_clique_extension",
    "choose_m",
    "clique_count_closed_form",
    "clique_polynomial",
    "cliques_of_size",
    "complement",
    "complete",
    "disjoint_copies",
    "from_graph6",
    "function_vertices",
    "independence_polynomial",
    "is_well_covered",
    "join",
    "materialize",
    "maximal_cliques",
    "maximal_independent_sets",
    "plan_at_m",
    "realize",
    "tail_indices",
    "target_from_permutation",
    "to_graph6",
    "verify_on_graph",
    "vertex_count",
]
