"""Exact chain representations of submodular set functions on finite ground sets.

The library works entirely in rational arithmetic: set functions on
bitmask-encoded subsets, maximal chains as permutations, the telescoped
(greedy) measures they induce, the four-way equivalence between
submodularity and chain/core representations, Choquet integration with
its coherent risk normalization, the chain-supremum recursion with exact
fixed-point detection, and the law-invariant (distribution-determined)
family with quantile, product, and spectral decompositions.

Importing the package loads no submodule: every exported name is imported
from its submodule on first use. ``chainrep.choquet`` names the function,
although the first import of the ``chainrep.choquet`` submodule binds the
package attribute of that name to the module: the package's class reads
the name as a property whose setter drops that binding.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# The submodule that defines each exported name.
_HOME = {
    **dict.fromkeys((
        "Chain", "DiscreteMeasure", "extremal_measure", "insert_into_chain",
        "insert_nested_pair", "subset_sums",
    ), "chains"),
    **dict.fromkeys((
        "LayerDecomposition", "SimpleFunction", "choquet", "choquet_sup_representation",
        "layer_decompose", "monotone_approximation", "risk_measure",
    ), "choquet"),
    **dict.fromkeys((
        "AlphaOutOfRange", "BetaOutOfRange", "ChainConditionError", "ChainrepError",
        "DocumentError", "GroundSetTooLarge", "InternalConsistencyError", "NegativeValues",
        "NonMonotoneAlongChain", "NotComonotone", "NotMonotone", "NotNested",
        "NotSubmodular", "ProfileNotMonotone", "SearchTooLarge", "TiedDensities",
        "ZeroTotalMass",
    ), "errors"),
    **dict.fromkeys((
        "DominationReport", "SpectralDecompositionReport", "SpectralMeasure",
        "StepDistribution", "WeightedSpace", "choquet_product_formula",
        "comonotone_attainment", "comonotone_check", "cvar_component",
        "distribution_of_density", "distribution_of_function", "domination_report",
        "kusuoka_measure", "quantile", "rearrangement_sup", "spectral_decomposition_check",
        "v_mu", "v_mu_integral", "v_mu_set_function", "v_mu_via_quantile",
    ), "lawinv"),
    **dict.fromkeys((
        "CardinalityProfile", "RecursionTrace", "iterate_to_fixed_point",
        "recursion_step", "symmetric_step",
    ), "recursion"),
    **dict.fromkeys((
        "SWEEP_LIMIT", "EquivalenceReport", "LocalCoreReport", "in_lower_core",
        "in_upper_core", "inf_over_chains", "local_core_attainment", "local_core_sup",
        "sup_over_chains", "verify_submodular_equivalence",
        "verify_supermodular_equivalence",
    ), "represent"),
    **dict.fromkeys((
        "ExchangeWitness", "GroundSet", "MonotoneWitness", "Scalar", "SetFunction",
        "as_scalar", "dual_transform", "is_monotone", "is_null_set", "is_submodular",
        "is_supermodular",
    ), "setfn"),
}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import an exported name from its submodule on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(_ModuleType):
    """The package's module type: ``choquet`` stays the function."""

    @property
    def choquet(self):
        return _import_module(".choquet", __name__).choquet

    @choquet.setter
    def choquet(self, value):
        # The import system binds the submodule here; any other value is refused.
        if value is not _sys.modules.get(f"{__name__}.choquet"):
            raise AttributeError(f"cannot rebind {__name__}.choquet")


_sys.modules[__name__].__class__ = _Package
