"""Predicates, witnesses, and the complement transform."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chainrep import (
    ChainrepError,
    GroundSet,
    NotMonotone,
    SetFunction,
    dual_transform,
    is_monotone,
    is_null_set,
    is_submodular,
    is_supermodular,
)
from chainrep.counterexample import GROUND, V0, V1_EXPECTED, V2_EXPECTED

import support


def g(m):
    return GroundSet.of_size(m)


def sf(m, values):
    return SetFunction(g(m), tuple(Fraction(x) for x in values))


class TestGroundSet:
    def test_masks_and_labels(self):
        ground = GroundSet(("a", "b", "c"))
        assert ground.mask_of(["a", "c"]) == 0b101
        assert ground.labels_of(0b101) == ("a", "c")
        assert ground.subset_key(0) == ""
        assert ground.subset_key(0b110) == "b,c"

    def test_size_limits(self):
        with pytest.raises(ValueError):
            GroundSet(())
        with pytest.raises(ValueError):
            GroundSet(tuple(str(i) for i in range(17)))
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))
        GroundSet.of_size(1)
        GroundSet.of_size(16)

    def test_cardinality_order(self):
        order = GROUND.subsets_by_cardinality()
        keys = [GROUND.subset_key(m) for m in order]
        assert keys[:5] == ["", "1", "2", "3", "4"]
        assert keys[5:11] == ["1,2", "1,3", "1,4", "2,3", "2,4", "3,4"]
        assert keys[-1] == "1,2,3,4"


class TestSetFunction:
    def test_empty_set_must_vanish(self):
        with pytest.raises(ValueError):
            sf(1, [1, 2])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SetFunction(g(1), (0, 0.5))

    def test_value_by_labels(self):
        assert V0.value_by_labels(["1", "4"]) == 30


class TestMonotone:
    def test_table_function_is_monotone(self):
        assert is_monotone(V0) == (True, None)

    def test_witness_is_first_in_bitmask_order(self):
        v = sf(2, [0, -1, 0, 0])
        ok, wit = is_monotone(v)
        assert not ok
        assert (wit.small, wit.large) == (0, 1)

    def test_zero_function(self):
        for m in (1, 2, 4):
            assert is_monotone(sf(m, [0] * (1 << m)))[0]

    def test_agrees_with_quadratic_oracle(self):
        rng = random.Random(7)
        ground = g(4)
        for _ in range(80):
            values = [Fraction(0)] + [
                Fraction(rng.randint(-3, 9)) for _ in range(15)
            ]
            v = SetFunction(ground, tuple(values))
            assert is_monotone(v)[0] == support.brute_monotone(v)

    def test_require_monotone_names_the_caller_and_witness(self):
        from chainrep.setfn import require_monotone
        require_monotone(V0, "the check")
        with pytest.raises(NotMonotone, match=r"the check .* from \{\} to \{1\}"):
            require_monotone(sf(2, [0, -1, 0, 0]), "the check")
        assert issubclass(NotMonotone, ChainrepError)
        assert issubclass(NotMonotone, ValueError)


class TestSubmodular:
    def test_table_first_iterate_fails_with_known_witness(self):
        ok, wit = is_submodular(V1_EXPECTED)
        assert not ok
        # Exchange over base {1} with elements 2 and 3: 17 + 24 < 31 + 11.
        assert wit.base == GROUND.mask_of(["1"])
        assert (wit.i, wit.j) == (1, 2)
        x, y = wit.pair_masks()
        assert GROUND.labels_of(x) == ("1", "2")
        assert GROUND.labels_of(y) == ("1", "3")

    def test_table_second_iterate_is_submodular(self):
        assert is_submodular(V2_EXPECTED) == (True, None)

    def test_measures_are_modular(self):
        rng = random.Random(1)
        for m in (1, 2, 3, 5):
            v = support.random_modular(rng, g(m))
            assert is_submodular(v)[0]
            assert is_supermodular(v)[0]

    def test_capped_cardinality(self):
        v = SetFunction.from_callable(
            g(4), lambda s: min(2, bin(s).count("1"))
        )
        assert is_submodular(v)[0]

    def test_local_test_agrees_with_quadratic_oracle(self):
        rng = random.Random(11)
        for m in (2, 3, 4, 5):
            for _ in range(30):
                values = [Fraction(0)] + [
                    Fraction(rng.randint(0, 12)) for _ in range((1 << m) - 1)
                ]
                v = SetFunction(g(m), tuple(values))
                assert is_submodular(v)[0] == support.brute_submodular(v)
                assert is_supermodular(v)[0] == support.brute_supermodular(v)


class TestSupermodular:
    def test_squared_cardinality(self):
        v = SetFunction.from_callable(g(3), lambda s: bin(s).count("1") ** 2)
        assert is_supermodular(v)[0]

    def test_dual_of_non_submodular_is_non_supermodular(self):
        assert is_supermodular(dual_transform(V1_EXPECTED))[0] is False


class TestDualTransform:
    def test_table_values(self):
        dual = dual_transform(V0)
        assert dual.value_by_labels(["1"]) == 44 - 43  # 44 - v0({2,3,4})
        assert dual.value_by_labels(["2", "3", "4"]) == 44 - 7
        assert dual.values[0] == 0
        assert dual.values[GROUND.full_mask] == 44

    def test_zero_function(self):
        v = sf(3, [0] * 8)
        assert dual_transform(v).values == v.values

    def test_measure_is_self_dual(self):
        rng = random.Random(3)
        v = support.random_modular(rng, g(4))
        assert dual_transform(v).values == v.values

    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=(1 << m) - 1,
                    max_size=(1 << m) - 1,
                ),
            )
        )
    )
    def test_involution(self, m_and_tail):
        m, tail = m_and_tail
        v = SetFunction(g(m), tuple([Fraction(0)] + tail))
        assert dual_transform(dual_transform(v)).values == v.values

    def test_swaps_modularity_sides(self):
        rng = random.Random(5)
        for _ in range(40):
            v = support.random_monotone(rng, g(4))
            assert is_submodular(v)[0] == is_supermodular(dual_transform(v))[0]
            assert is_supermodular(v)[0] == is_submodular(dual_transform(v))[0]


class TestNullSet:
    def test_empty_is_always_null(self):
        rng = random.Random(9)
        v = support.random_monotone(rng, g(3))
        assert is_null_set(v, 0)

    def test_strictly_increasing_has_no_nonempty_null_set(self):
        v = SetFunction.from_callable(g(2), lambda s: bin(s).count("1"))
        for n in range(1, 4):
            assert not is_null_set(v, n)

    def test_ignored_element_is_null(self):
        ground = g(3)
        v = SetFunction.from_callable(
            ground, lambda s: bin(s & 0b011).count("1")
        )
        assert is_null_set(v, ground.mask_of(["3"]))
        assert not is_null_set(v, ground.mask_of(["1"]))
