"""Malformed arguments are refused with ValueError, never answered."""

from fractions import Fraction

import pytest

from chainrep import (
    Chain,
    DiscreteMeasure,
    GroundSet,
    SetFunction,
    SimpleFunction,
    StepDistribution,
    WeightedSpace,
    distribution_of_function,
    inf_over_chains,
    insert_into_chain,
    insert_nested_pair,
    is_null_set,
    iterate_to_fixed_point,
    local_core_attainment,
    sup_over_chains,
    v_mu,
    v_mu_via_quantile,
)

M = 3
GROUND = GroundSet.of_size(M)
V = SetFunction.from_callable(GROUND, lambda mask: min(bin(mask).count("1"), 2))
SPACE = WeightedSpace.counting(GROUND, (Fraction(1), Fraction(2), Fraction(3)))
NU = DiscreteMeasure(GROUND, (1, 2, 3))
CHAIN = Chain.identity(GROUND)

# Each takes one subset mask of the m = 3 ground set.
MASK_TAKERS = {
    "SetFunction.__call__": lambda mask: V(mask),
    "DiscreteMeasure.mass": lambda mask: NU.mass(mask),
    "sup_over_chains": lambda mask: sup_over_chains(V, mask),
    "inf_over_chains": lambda mask: inf_over_chains(V, mask),
    "local_core_attainment A": lambda mask: local_core_attainment(V, mask, 0),
    "local_core_attainment B": lambda mask: local_core_attainment(V, GROUND.full_mask, mask),
    "is_null_set": lambda mask: is_null_set(V, mask),
    "v_mu": lambda mask: v_mu(SPACE, mask),
    "v_mu_via_quantile": lambda mask: v_mu_via_quantile(SPACE, mask),
    "SimpleFunction.indicator": lambda mask: SimpleFunction.indicator(GROUND, mask),
    "insert_into_chain": lambda mask: insert_into_chain(CHAIN, mask),
    "insert_nested_pair A": lambda mask: insert_nested_pair(CHAIN, mask, 0),
    "insert_nested_pair B": lambda mask: insert_nested_pair(CHAIN, GROUND.full_mask, mask),
    "GroundSet.labels_of": lambda mask: GROUND.labels_of(mask),
    "GroundSet.subset_key": lambda mask: GROUND.subset_key(mask),
}


@pytest.mark.parametrize("mask", [-1, 1 << M])
@pytest.mark.parametrize("name", sorted(MASK_TAKERS))
def test_masks_outside_the_ground_set_are_refused(name, mask):
    with pytest.raises(ValueError, match=rf"subset mask {mask} is outside 0\.\.7 .*m = 3"):
        MASK_TAKERS[name](mask)


@pytest.mark.parametrize("n", [M - 1, M + 1])
def test_distribution_of_function_needs_one_value_per_element(n):
    with pytest.raises(ValueError, match=rf"got {n} for m = 3"):
        distribution_of_function(NU, [Fraction(1)] * n)


def test_iterate_refuses_a_negative_step_cap():
    with pytest.raises(ValueError, match="max_steps must be nonnegative, got -2"):
        iterate_to_fixed_point(V, max_steps=-2)


def test_step_distribution_refuses_a_negative_level():
    # Else value_at(0) would be -1 and the survival 3 above a total mass of 2.
    with pytest.raises(ValueError, match="^levels must be nonnegative$"):
        StepDistribution((0, 1), (-1, 2))
