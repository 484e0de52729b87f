"""Malformed arguments are refused with a typed error, never answered."""

import json
import re
from fractions import Fraction

import pytest

from chainrep import (
    CardinalityProfile,
    Chain,
    DiscreteMeasure,
    GroundSet,
    NegativeValues,
    SetFunction,
    SimpleFunction,
    SpectralMeasure,
    StepDistribution,
    WeightedSpace,
    comonotone_attainment,
    comonotone_check,
    cvar_component,
    distribution_of_function,
    domination_report,
    extremal_measure,
    in_lower_core,
    inf_over_chains,
    insert_into_chain,
    insert_nested_pair,
    is_null_set,
    iterate_to_fixed_point,
    local_core_attainment,
    monotone_approximation,
    rearrangement_sup,
    sup_over_chains,
    v_mu,
    v_mu_via_quantile,
)
from chainrep.chains import chain_opt
from chainrep.cli import EXIT_INPUT, main

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


OTHER = GroundSet.of_size(2)
F = SimpleFunction(GROUND, (1, 2, 3))
F_OTHER = SimpleFunction(OTHER, (1, 1))
NEGATIVE_F = SimpleFunction(GROUND, (1, -1, 0))
HALF = Fraction(1, 2)

# Each row: the call, the exact exception type and a fragment of its message.
REFUSALS = {
    "DiscreteMeasure weight count": (
        lambda: DiscreteMeasure(GROUND, (1, 2)),
        ValueError, "one weight per ground element required"),
    "extremal_measure foreign chain": (
        lambda: extremal_measure(V, Chain.identity(OTHER)),
        ValueError, "set function and chain live on different ground sets"),
    "chain_opt weight count": (
        lambda: chain_opt(V, [1, 2]),
        ValueError, "one weight per ground element required"),
    "SimpleFunction value count": (
        lambda: SimpleFunction(GROUND, (1, 2)),
        ValueError, "one value per ground element required"),
    "SimpleFunction sum across ground sets": (
        lambda: F + F_OTHER, ValueError, "ground sets differ"),
    "monotone_approximation k < 1": (
        lambda: monotone_approximation(F, 0),
        ValueError, "resolution index k must be a positive integer"),
    "WeightedSpace foreign nu": (
        lambda: WeightedSpace(GROUND, DiscreteMeasure(OTHER, (1, 1)), (1, 2, 3)),
        ValueError, "reference measure lives on a different ground set"),
    "WeightedSpace density count": (
        lambda: WeightedSpace(GROUND, NU, (1, 2)),
        ValueError, "one density value per ground element required"),
    "WeightedSpace zero total nu": (
        lambda: WeightedSpace(GROUND, DiscreteMeasure(GROUND, (0, 0, 0)), (1, 2, 3)),
        ValueError, "reference measure must have positive total mass"),
    "WeightedSpace negative density": (
        lambda: WeightedSpace(GROUND, NU, (1, -2, 3)),
        ValueError, "density values must be nonnegative"),
    "StepDistribution length mismatch": (
        lambda: StepDistribution((0, 1), (1,)),
        ValueError, "need matching nonempty breakpoints and levels"),
    "StepDistribution negative breakpoint": (
        lambda: StepDistribution((-1, 1), (1, 2)),
        ValueError, "breakpoints must be nonnegative"),
    "StepDistribution repeated breakpoint": (
        lambda: StepDistribution((1, 1), (1, 2)),
        ValueError, "breakpoints must be strictly increasing"),
    "StepDistribution decreasing levels": (
        lambda: StepDistribution((0, 1), (2, 1)),
        ValueError, "levels must be non-decreasing"),
    "StepDistribution zero total": (
        lambda: StepDistribution((0, 1), (0, 0)),
        ValueError, "total mass must be positive"),
    "comonotone_check across ground sets": (
        lambda: comonotone_check(F, F_OTHER), ValueError, "ground sets differ"),
    "rearrangement_sup foreign integrand": (
        lambda: rearrangement_sup(SPACE, F_OTHER),
        ValueError, "integrand lives on a different ground set"),
    "comonotone_attainment foreign integrand": (
        lambda: comonotone_attainment(SPACE, F_OTHER),
        ValueError, "integrand lives on a different ground set"),
    "comonotone_attainment negative f": (
        lambda: comonotone_attainment(SPACE, NEGATIVE_F),
        NegativeValues, "attainment requires f >= 0"),
    "domination_report negative f": (
        lambda: domination_report(SPACE, NEGATIVE_F),
        NegativeValues, "domination report requires f >= 0"),
    "cvar_component negative f": (
        lambda: cvar_component(SPACE, NEGATIVE_F, 1),
        NegativeValues, "tail component requires f >= 0"),
    "SpectralMeasure level 0": (
        lambda: SpectralMeasure(((0, 1),)),
        ValueError, "atom levels must lie in (0, 1]"),
    "SpectralMeasure zero mass": (
        lambda: SpectralMeasure(((1, 1), (HALF, 0))),
        ValueError, "atom masses must be positive"),
    "SpectralMeasure repeated level": (
        lambda: SpectralMeasure(((1, HALF), (1, HALF))),
        ValueError, "atom levels must be distinct"),
    "SpectralMeasure mass below one": (
        lambda: SpectralMeasure(((1, HALF),)),
        ValueError, "atom masses must sum to one"),
    "CardinalityProfile too short": (
        lambda: CardinalityProfile((0,)),
        ValueError, "profile needs at least g(0) and g(1)"),
    "CardinalityProfile ground size": (
        lambda: CardinalityProfile((0, 1, 2)).to_set_function(GROUND),
        ValueError, "ground set size does not match the profile"),
    "GroundSet empty label": (
        lambda: GroundSet(("",)),
        ValueError, "label '' must be nonempty and comma-free"),
    "in_lower_core foreign measure": (
        lambda: in_lower_core(V, DiscreteMeasure(OTHER, (1, 1))),
        ValueError, "set function and measure live on different ground sets"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_malformed_arguments_are_refused(name):
    call, kind, fragment = REFUSALS[name]
    with pytest.raises(kind, match=re.escape(fragment)) as info:
        call()
    assert info.type is kind


# Each row: the command with its options, the document (JSON text where it
# repeats a key, which a dict cannot) and a fragment of the message.
DOCUMENT_REFUSALS = {
    "ground_set not a list": (
        ["check"], {"ground_set": "12", "values": {}},
        "ground_set must be a list of strings"),
    "label with a comma": (
        ["check"], {"ground_set": ["a,b"], "values": {"": "0"}},
        "label 'a,b' must be nonempty and comma-free"),
    "repeated label in ground_set": (
        ["check"], {"ground_set": ["a", "a"], "values": {"": "0"}},
        "ground set labels must be unique"),
    "values missing": (
        ["check"], {"ground_set": ["1"]},
        "document needs 'ground_set' and 'values'"),
    "values not an object": (
        ["check"], {"ground_set": ["1"], "values": ["0"]},
        "values must be an object"),
    "repeated label in a key": (
        ["check"], {"ground_set": ["1", "2"], "values": {"": "0", "1,1": "1"}},
        "values['1,1']: repeated label in key"),
    "unknown label in a key": (
        ["check"], {"ground_set": ["1"], "values": {"": "0", "z": "1"}},
        "values['z']: unknown element label 'z'"),
    "weighted space without nu": (
        ["spectral", "--f", "1"], {"ground_set": ["1"], "density": ["1"]},
        "weighted-space document needs 'nu'"),
    "choquet --witness without --sup": (
        ["choquet", "--f=1,2", "--witness"],
        {"ground_set": ["1", "2"], "values": {"": "0", "1": "1", "2": "1", "1,2": "2"}},
        "input error: --witness needs --sup"),
    "repeated key in values": (
        ["check"], '{"ground_set": ["1", "2"], '
                   '"values": {"": "0", "1": "1", "2": "1", "1,2": "3/2", "1,2": "5"}}',
        "invalid JSON: repeated key '1,2'"),
    "repeated ground_set": (
        ["check"], '{"ground_set": ["1"], "ground_set": ["1", "2"], '
                   '"values": {"": "0", "1": "1"}}',
        "invalid JSON: repeated key 'ground_set'"),
    "repeated key in a weighted space": (
        ["spectral", "--f", "1"], '{"ground_set": ["1"], "nu": ["1"], "nu": ["2"], "density": ["1"]}',
        "invalid JSON: repeated key 'nu'"),
}


@pytest.mark.parametrize("name", sorted(DOCUMENT_REFUSALS))
def test_malformed_documents_exit_two(name, tmp_path, capsys):
    argv, doc, fragment = DOCUMENT_REFUSALS[name]
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main([argv[0], str(path), *argv[1:], "--no-persist"])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("input error: ") and fragment in err
    assert "Traceback" not in err

