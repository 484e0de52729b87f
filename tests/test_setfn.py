"""Predicates, witnesses, and the complement transform."""

import itertools
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
from chainrep.setfn import (_avoiding_masks, _CoreLanes, _doubling_masks, _Lanes, _top_mask,
                            int_image)

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

    def test_label_lookup_and_refusals(self):
        ground = GroundSet(("10", "2", "b", "a", "1", "B", "x", "03"))
        for i, lab in enumerate(ground.elements):
            assert ground.index(lab) == i
        assert ground.mask_of(["a", "10", "a"]) == 0b1001
        assert ground == GroundSet(tuple(ground.elements))
        assert hash(ground) == hash(GroundSet(tuple(ground.elements)))
        for bad in ("z", "A", "", 3, ["a"]):
            for lookup in (ground.index, lambda lab: ground.mask_of(["a", lab])):
                with pytest.raises(KeyError) as info:
                    lookup(bad)
                assert info.value.args == (f"unknown element label {bad!r}",)

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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_keyed_order_matches_the_label_tuple_sort(self, m):
        # String order of these labels differs from their index order.
        ground = GroundSet(("10", "2", "b", "a", "1", "B", "x", "03")[:m])
        want = sorted(ground.subsets(),
                      key=lambda s: (bin(s).count("1"), ground.labels_of(s)))
        order, keys = ground.keyed_subsets()
        assert order == want == ground.subsets_by_cardinality()
        assert keys == [ground.subset_key(s) for s in want]


class TestSetFunction:
    def test_empty_set_must_vanish(self):
        with pytest.raises(ValueError):
            sf(1, [1, 2])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SetFunction(g(1), (0, 0.5))

    def test_value_by_labels(self):
        assert V0.value_by_labels(["1", "4"]) == 30


class TestImage:
    """The stored canonical image: what ``from_image`` accepts and refuses,
    and that no public path can change it."""

    FRACS = (0, Fraction(3, 4), Fraction(-5, 6), 2, Fraction(7, 12), 0, Fraction(1, 3), -1)

    def test_scaled_images_build_the_same_function(self):
        v = sf(3, self.FRACS)
        ints, den = int_image(v.values)
        assert v.image == (tuple(ints), den)
        for k in (1, 2, 7, 10**30, 3**40):
            w = SetFunction.from_image(g(3), [k * x for x in ints], k * den)
            assert w == v and hash(w) == hash(v)
            assert w.image == v.image
            assert w.values == tuple(Fraction(x) for x in self.FRACS)
            assert [w(s) for s in range(8)] == list(v.values)

    def test_zero_function_has_unit_denominator(self):
        v = SetFunction.from_image(g(2), [0, 0, 0, 0], 12)
        assert v.image == ((0, 0, 0, 0), 1)
        assert v == sf(2, [0, 0, 0, 0])

    def test_values_read_back_equal_the_inputs(self):
        rng = random.Random(41)
        for m in (1, 3, 6):
            v = support.random_monotone(rng, g(m), rational=True)
            w = SetFunction.from_image(v.ground, *int_image(v.values))
            assert w.values == v.values
            assert repr(w) == repr(v)

    def test_refusals_match_the_scalar_constructor(self):
        for make in (lambda: sf(2, [0, 1, 2]), lambda: SetFunction.from_image(g(2), [0, 1, 2], 1)):
            with pytest.raises(ValueError):
                make()
        for make in (lambda: sf(1, [1, 2]), lambda: SetFunction.from_image(g(1), [1, 2], 1)):
            with pytest.raises(ValueError):
                make()
        for den in (0, -1, -6):
            with pytest.raises(ValueError):
                SetFunction.from_image(g(1), [0, 2], den)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            SetFunction(g(1), (0, 0.5))
        with pytest.raises(TypeError):
            SetFunction.from_image(g(1), [0, 0.5], 1)
        with pytest.raises(TypeError):
            SetFunction.from_image(g(1), [0, 1], 2.0)

    def test_attributes_cannot_be_set(self):
        v = sf(2, [0, 1, 2, 3])
        for name, value in (("values", (0, 0, 0, 0)), ("image", ((0, 0, 0, 0), 1)),
                            ("ground", g(2)), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
            with pytest.raises(AttributeError):
                delattr(v, name)

    def test_image_cannot_be_mutated(self):
        ints = [0, 2, 4, 6]
        v = SetFunction.from_image(g(2), ints, 4)
        before = v.image
        ints[1] = 99  # the caller's list is not the stored image
        assert v.image == before == ((0, 1, 2, 3), 2)
        stored, den = v.image
        assert isinstance(stored, tuple) and isinstance(v.values, tuple)
        with pytest.raises(TypeError):
            stored[1] = 5
        w = dual_transform(v)
        assert v.image == before and w.image == ((0, 1, 2, 3), 2)


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


class TestWitnessesOnTheIntegerImage:
    """The predicates scan the common-denominator integer image; their
    witnesses equal those of the literal Fraction scans."""

    DENOMINATORS = (1, 3, 10**30 + 7, 3**40, 2**61 - 1, 97 * 10**12)

    def perturbed(self, rng, v):
        """Scale by a large-denominator rational, then nudge a few subsets by
        amounts far below the scale, so ties break at tiny differences."""
        scale = Fraction(rng.randint(1, 9), rng.choice(self.DENOMINATORS))
        values = [x * scale for x in v.values]
        for s in rng.sample(range(1, len(values)), min(3, len(values) - 1)):
            values[s] += Fraction(rng.choice((-1, 1)), rng.choice(self.DENOMINATORS) * 10**40)
        return SetFunction(v.ground, tuple(values))

    def test_mixed_large_denominators(self):
        rng = random.Random(29)
        seen = set()
        for m in (1, 2, 3, 4, 5, 6):
            for _ in range(40):
                v = self.perturbed(rng, support.random_submodular(rng, g(m)))
                for got, want in (
                    (is_monotone(v), support.brute_monotone_witness(v)),
                    (is_submodular(v), support.brute_exchange_witness(v, True)),
                    (is_supermodular(v), support.brute_exchange_witness(v, False)),
                ):
                    assert got == (want is None, want)
                    seen.add(want is None)
        assert seen == {True, False}


class TestLaneWidthEdges:
    """The packed-lane predicates at the edges of the lane-width bound: the
    zero function, spans at the byte boundaries of a lane, negative and
    non-monotone values and images of thousands of digits, against the
    literal Fraction scans, witnesses included."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_predicates_match_literal_scans(self, m):
        seen = set()
        for v in support.lane_edge_inputs(random.Random(900 + m), m):
            for got, want in (
                (is_monotone(v), support.brute_monotone_witness(v)),
                (is_submodular(v), support.brute_exchange_witness(v, True)),
                (is_supermodular(v), support.brute_exchange_witness(v, False)),
            ):
                assert got == (want is None, want)
                seen.add(want is None)
        assert seen == {True, False}

    def test_edge_images_are_large(self):
        # The last two inputs carry integer images of 4000 digits or more.
        for v in list(support.lane_edge_inputs(random.Random(1), 1))[-2:]:
            ints, _ = int_image(v.values)
            assert max(map(abs, ints)) >= 10 ** 4000


# Spans where lanes grow from 64 to 72 bits: the last width packed through
# array("Q") and the first packed one value at a time.
WIDE_LANE_SPANS = ((1 << 62) - 1, 1 << 62)


class TestLanePacking:
    """The lanes and masks of the sign tests, bit for bit against a literal
    packing of one ``to_bytes`` per value, on both sides of the 64-bit lane
    edge."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_packing_matches_literal_bytes(self, m):
        rng = random.Random(500 + m)
        n, widths = 1 << m, set()
        for v in itertools.chain(support.lane_edge_inputs(rng, m),
                                 support.span_edge_inputs(rng, m, WIDE_LANE_SPANS)):
            ints = list(v.image[0])
            neg = [-x for x in ints]
            lanes = _Lanes(ints)
            widths.add(lanes.width)
            for got, want in ((lanes, ints), (lanes.negated(), neg)):
                assert (got.packed, got.lo, got.width) == support.literal_lanes(want)
            width, size = lanes.width, lanes.width // 8
            top = 1 << width - 1
            assert lanes.top == support.pack_lanes([top] * n, size)
            assert lanes.avoiding == tuple(
                support.pack_lanes([0 if k >> i & 1 else top for k in range(n)], size)
                for i in range(m))
            # Caps against weights of either sign: the total is v(full) or -v(full).
            for caps, total in ((ints, ints[-1]), (neg, -ints[-1])):
                core = _CoreLanes(caps, total)
                packed, _, width = support.literal_lanes(caps, total)
                size = width // 8
                assert core.packed == packed
                assert core.bound == packed + support.pack_lanes([1 << width - 1] * n, size)
                assert core.doubling == tuple(
                    (support.pack_lanes([1] * (1 << i), size), width << i) for i in range(m))
        assert {8, 16, 24, 64, 72} <= widths

    def test_wide_lane_masks_are_not_kept(self):
        # Masks of lanes wider than 64 bits grow with the values, so they
        # are built per call and dropped.
        builders = (_top_mask, _avoiding_masks, _doubling_masks)
        small, wide = list(range(8)), [0] + [k * 10 ** 4000 for k in range(1, 8)]

        def run(ints):
            is_submodular(sf(3, ints))
            _CoreLanes(ints, ints[-1])

        run(small)
        before = [b.cache_info() for b in builders]
        run(wide)
        assert [b.cache_info() for b in builders] == before
        run(small)
        assert all(b.cache_info().hits > old.hits for b, old in zip(builders, before))


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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_fraction_oracle(self, m):
        # The zero function, negative values and 4000-digit numerators over
        # denominators up to 3^40, among others.
        for v in support.lane_edge_inputs(random.Random(950 + m), m):
            got, want = dual_transform(v), support.brute_dual_transform(v)
            assert got == want and got.image == want.image
            assert got.values == want.values

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
