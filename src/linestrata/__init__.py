"""Exact combinatorics for compactified moduli of marked vertical lines.

The package computes with the stratification of these moduli spaces:
stable trees and tree pairs index the strata, integer lattice models
describe neighborhoods of the deepest strata, gluing charts move between
strata, and virtual Poincare polynomials are assembled either by a fiber
recursion or stratum by stratum.

``linestrata.vpp`` is the function :func:`~linestrata.vpp.vpp`, which
shadows the submodule of the same name, so ``import linestrata.vpp as m``
binds the function.  ``from linestrata.vpp import name`` still reads the
submodule, and the module itself is ``sys.modules["linestrata.vpp"]``.
"""

from .exact_poly import (
    MultiPoly,
    UniPoly,
    config_poly,
    monomial_content_split,
    multi_eval,
    quotient_config_poly,
)
from .trees import (
    StableTree,
    enumerate_stable_trees,
    glue_tree,
    poset_leq_tree,
    top_tree,
    tree_dimension,
)
from .tree_pairs import (
    Component,
    Mark,
    Seam,
    TreePair,
    enumerate_tree_pairs,
    enumerate_two_bracketings_bruteforce,
    f_vector,
    poset_leq_tree_pair,
    stratum_dimension,
    top_tree_pair,
    tree_pair_to_two_bracketing,
    two_bracketing_to_tree_pair,
    validate_tree_pair,
)
from .local_models import (
    DiffConstraintSystem,
    LatticeModel,
    SolveResult,
    canonical_generators,
    coherence_generators,
    glue_tree_pair,
    lattice_is_saturated,
    lattice_span_equal,
    local_poset_elements,
    model_defining_relations,
    monoid_saturation_witness,
    solve_difference_constraints,
)
from .charts import (
    INFINITY,
    StableCurve,
    default_slices,
    evaluate_chart,
    extract_q_factor,
    gluing_polynomial,
    invert_chart,
    normalize_to_slice,
    pinned_curve,
    transition_check,
)
from .vpp import stratum_counts, stratum_vpp, vpp, vpp_by_strata, vpp_seam, vpp_table

__version__ = "0.1.0"

__all__ = [
    "UniPoly",
    "MultiPoly",
    "config_poly",
    "quotient_config_poly",
    "multi_eval",
    "monomial_content_split",
    "StableTree",
    "top_tree",
    "enumerate_stable_trees",
    "poset_leq_tree",
    "tree_dimension",
    "glue_tree",
    "Mark",
    "Seam",
    "Component",
    "TreePair",
    "validate_tree_pair",
    "stratum_dimension",
    "top_tree_pair",
    "enumerate_tree_pairs",
    "f_vector",
    "tree_pair_to_two_bracketing",
    "two_bracketing_to_tree_pair",
    "enumerate_two_bracketings_bruteforce",
    "poset_leq_tree_pair",
    "local_poset_elements",
    "glue_tree_pair",
    "LatticeModel",
    "canonical_generators",
    "coherence_generators",
    "lattice_span_equal",
    "lattice_is_saturated",
    "model_defining_relations",
    "DiffConstraintSystem",
    "SolveResult",
    "solve_difference_constraints",
    "monoid_saturation_witness",
    "INFINITY",
    "StableCurve",
    "pinned_curve",
    "default_slices",
    "gluing_polynomial",
    "extract_q_factor",
    "evaluate_chart",
    "normalize_to_slice",
    "invert_chart",
    "transition_check",
    "vpp",
    "vpp_seam",
    "vpp_table",
    "stratum_counts",
    "stratum_vpp",
    "vpp_by_strata",
    "__version__",
]
