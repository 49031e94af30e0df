"""Exact tools for well-covered graphs: constructions whose complements
are well-covered by design, big-integer independence counting, certificate
plans for prescribed coefficient sequences, and realization of arbitrary
independence-sequence tail orderings."""

from .certificate import (
    EpsilonCertificate,
    Plan,
    PlanComponent,
    TargetSequence,
    build_plan,
    materialize,
    plan_at_m,
)
from .enumeration import (
    binomial_ratio_check,
    check_clique_extension,
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
    "binomial_ratio_check",
    "build_function_graph",
    "build_plan",
    "check_clique_extension",
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
    "vertex_count",
]
