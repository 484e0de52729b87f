"""Exact chain representations of submodular set functions on finite ground sets.

The library works entirely in rational arithmetic: set functions on
bitmask-encoded subsets, maximal chains as permutations, the telescoped
(greedy) measures they induce, the four-way equivalence between
submodularity and chain/core representations, Choquet integration with
its coherent risk normalization, the chain-supremum recursion with exact
fixed-point detection, and the law-invariant (distribution-determined)
family with quantile, product, and spectral decompositions.
"""

from .chains import (
    Chain,
    DiscreteMeasure,
    SWEEP_LIMIT,
    all_chains,
    extremal_measure,
    insert_into_chain,
    insert_nested_pair,
    subset_sums,
)
from .choquet import (
    LayerDecomposition,
    SimpleFunction,
    choquet,
    choquet_sup_representation,
    layer_decompose,
    monotone_approximation,
    risk_measure,
)
from .errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    ChainConditionError,
    ChainrepError,
    DocumentError,
    GroundSetTooLarge,
    InternalConsistencyError,
    MaxStepsExceeded,
    NegativeValues,
    NonMonotoneAlongChain,
    NotComonotone,
    NotMonotone,
    NotNested,
    NotSubmodular,
    ProfileNotMonotone,
    TiedDensities,
    ZeroTotalMass,
)
from .lawinv import (
    DominationReport,
    SpectralDecompositionReport,
    SpectralMeasure,
    StepDistribution,
    WeightedSpace,
    choquet_product_formula,
    comonotone_attainment,
    comonotone_check,
    cvar_component,
    distribution_of_density,
    distribution_of_function,
    domination_report,
    equal_distribution_densities,
    kusuoka_measure,
    quantile,
    rearrangement_sup,
    spectral_decomposition_check,
    v_mu,
    v_mu_integral,
    v_mu_set_function,
    v_mu_via_quantile,
)
from .recursion import (
    CardinalityProfile,
    RecursionTrace,
    iterate_to_fixed_point,
    recursion_step,
    symmetric_step,
)
from .represent import (
    EquivalenceReport,
    LocalCoreReport,
    in_lower_core,
    in_upper_core,
    inf_over_chains,
    local_core_attainment,
    local_core_sup,
    sup_over_chains,
    verify_submodular_equivalence,
    verify_supermodular_equivalence,
)
from .setfn import (
    ExchangeWitness,
    GroundSet,
    MonotoneWitness,
    Scalar,
    SetFunction,
    as_scalar,
    dual_transform,
    is_monotone,
    is_null_set,
    is_submodular,
    is_supermodular,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
