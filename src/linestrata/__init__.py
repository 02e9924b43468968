"""Exact combinatorics for compactified moduli of marked vertical lines.

The package computes with the stratification of these moduli spaces:
stable trees and tree pairs index the strata, integer lattice models
describe neighborhoods of the deepest strata, gluing charts move between
strata, and virtual Poincare polynomials are assembled either by a fiber
recursion or stratum by stratum.

Every submodule is registered in ``sys.modules`` on import and runs on
first attribute access, so a command runs only the modules it uses.  The
re-exported names of ``_EXPORTS`` resolve the same way.

``linestrata.vpp`` is the function :func:`~linestrata.vpp.vpp`, which
shadows the submodule of the same name, so ``import linestrata.vpp as m``
binds the function.  ``from linestrata.vpp import name`` still reads the
submodule, and the module itself is ``sys.modules["linestrata.vpp"]``.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "_combi": (),
    "exact_poly": (
        "UniPoly", "MultiPoly", "config_poly", "quotient_config_poly", "multi_eval",
        "monomial_content_split",
    ),
    "trees": (
        "StableTree", "top_tree", "enumerate_stable_trees", "poset_leq_tree",
        "tree_dimension", "glue_tree",
    ),
    "tree_pairs": (
        "Mark", "Seam", "Component", "TreePair", "validate_tree_pair",
        "stratum_dimension", "top_tree_pair", "enumerate_tree_pairs", "f_vector",
        "tree_pair_to_two_bracketing", "two_bracketing_to_tree_pair",
        "enumerate_two_bracketings_bruteforce", "poset_leq_tree_pair",
    ),
    "local_models": (
        "local_poset_elements", "glue_tree_pair", "LatticeModel",
        "canonical_generators", "coherence_generators", "lattice_span_equal",
        "lattice_is_saturated", "model_defining_relations", "DiffConstraintSystem",
        "SolveResult", "solve_difference_constraints", "monoid_saturation_witness",
    ),
    "charts": (
        "StableCurve", "pinned_curve", "default_slices",
        "gluing_polynomial", "extract_q_factor", "evaluate_chart", "normalize_to_slice",
        "invert_chart", "transition_check",
    ),
    "vpp": (
        "vpp", "vpp_seam", "vpp_fiber_product", "vpp_table", "stratum_counts",
        "stratum_vpp", "vpp_by_strata",
    ),
}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def _register(name: str):
    """Put submodule `name` into sys.modules unexecuted; its code runs on
    the first attribute access."""
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_MODULES = {module: _register(module) for module in _EXPORTS}
# exported name -> the submodule that defines it
_HOME = {name: _MODULES[module] for module, names in _EXPORTS.items() for name in names}
# the package binds its submodules, as an eager import would, except where
# an exported name shadows one (the function vpp)
globals().update((name, m) for name, m in _MODULES.items() if name not in _HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_HOME[name], name)


def __dir__():
    return sorted({*globals(), *__all__})
