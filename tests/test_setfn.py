"""Predicates, witnesses, and the complement transform."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from chainrep import (
    Chain,
    ChainrepError,
    ExchangeWitness,
    GroundSet,
    NotMonotone,
    SetFunction,
    dual_transform,
    is_monotone,
    is_null_set,
    is_submodular,
    is_supermodular,
    iterate_to_fixed_point,
    verify_submodular_equivalence,
    verify_supermodular_equivalence,
)
from chainrep import represent, setfn
from chainrep.cli import parse_set_function_document, serialize_set_function
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
        order, keys = ground.keyed_subsets()
        assert (order, keys) == support.brute_keyed_subsets(ground)
        assert order == ground.subsets_by_cardinality()

    # Numeric strings out of numeric order, case, accents, a prefix of
    # another label and a space.
    LABEL_POOL = ["9", "10", "a", "B", "é", "e", "Z", "1", "01", "ab", "a b", "ä", "100"]

    def test_keyed_order_on_random_label_sets(self):
        rng = random.Random(42)
        for _ in range(200):
            ground = GroundSet(tuple(rng.sample(self.LABEL_POOL, rng.randint(1, 9))))
            assert ground.keyed_subsets() == support.brute_keyed_subsets(ground)

    def test_documents_round_trip_on_random_label_sets(self):
        rng = random.Random(43)
        for _ in range(100):
            ground = GroundSet(tuple(rng.sample(self.LABEL_POOL, rng.randint(1, 7))))
            v = support.random_monotone(rng, ground, rational=True)
            assert parse_set_function_document(serialize_set_function(v)) == v


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

    @pytest.mark.parametrize("m,digits", [(3, 1), (6, 1), (3, 300), (5, 200)])
    def test_parsed_image_is_the_scalar_image_in_lowest_terms(self, m, digits):
        # The CLI parser and the scalar constructor build the lcm image of
        # reduced ratios and skip from_image's gcd, which is 1 there.
        rng = random.Random(m * 1000 + digits)
        fracs = [Fraction(0)] + [Fraction(rng.randint(-10**digits, 10**digits),
                                          rng.randint(1, 10**digits)) for _ in range(1, 1 << m)]
        ground = g(m)
        doc = {"ground_set": list(ground.elements), "values": {}}
        for mask, x in enumerate(fracs):
            k = rng.randint(1, 12)  # the document need not be in lowest terms
            doc["values"][ground.subset_key(mask)] = f"{k * x.numerator}/{k * x.denominator}"
        v = parse_set_function_document(doc)
        ints, den = v.image
        assert v.image == SetFunction(ground, fracs).image
        assert gcd(den, *ints) == 1
        assert v.values == tuple(fracs)
        assert SetFunction.from_image(ground, [6 * x for x in ints], 6 * den).image == v.image

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


def literal_first_clear(x: int, mask: int, width: int, n: int) -> int | None:
    """The lowest of n lanes whose top bit is set in mask and clear in x."""
    for k in range(n):
        bit = 1 << k * width + width - 1
        if mask & bit and not x & bit:
            return k
    return None


class TestFirstClear:
    """``_Lanes.first_clear`` against a per-lane scan, on lanes packed
    through ``array("Q")`` (8 to 64 bits) and one value at a time (72)."""

    @pytest.mark.parametrize("width", (8, 16, 24, 64, 72))
    def test_matches_a_per_lane_scan(self, width):
        rng = random.Random(width)
        span = 1 << width - 3  # the widest span packed into width-bit lanes
        for n_bits in range(11):
            n = 1 << n_bits
            lanes = _Lanes([0] * (n - 1) + [span])
            assert lanes.width == width
            top, bits = lanes.top, n * width
            lane_top = 1 << width - 1
            cases = [(rng.getrandbits(bits), top & rng.getrandbits(bits)) for _ in range(20)]
            cases += [(rng.getrandbits(bits), 0), (top, top), (top | rng.getrandbits(bits), top),
                      (top ^ lane_top, top),
                      (top ^ lane_top << (n - 1) * width, top)]
            # A shifted value: lanes past its end read 0, so their top bits are clear.
            cases += [(lanes.shift(top | rng.getrandbits(bits), i), top) for i in range(n_bits)]
            for x, mask in cases:
                assert lanes.first_clear(x, mask) == literal_first_clear(x, mask, width, n)
            assert lanes.first_clear(top ^ lane_top, top) == 0
            assert lanes.first_clear(top ^ lane_top << (n - 1) * width, top) == n - 1
            assert lanes.first_clear(rng.getrandbits(bits), 0) is None
            assert lanes.first_clear(top, top) is None


class TestPassedMeasures:
    """``_CoreLanes`` remembers the weight vectors that passed, never one
    that failed, and at most ``_PASSED_LIMIT`` of them."""

    CAPS = [0, 6, 6, 10, 6, 10, 10, 10]  # min(10, 6|S|) on three elements
    # Every vector of entries at most 6 summing to 10 stays under the caps.
    PASSING = [w for w in itertools.product(range(7), repeat=3) if sum(w) == 10]

    def test_a_failing_vector_is_tested_every_time(self):
        core = _CoreLanes(self.CAPS, 10)
        for weights in ([7, 3, 0], (7, 3, 0)):
            assert core.first_escape(weights) == 1
        assert core.first_escape([0, 3, 7]) == 4
        assert core.passed == set()
        assert core.first_escape([4, 3, 3]) is None
        assert core.first_escape([7, 3, 0]) == 1
        assert core.passed == {(4, 3, 3)}

    def test_the_memo_stops_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(setfn, "_PASSED_LIMIT", 4)
        core = _CoreLanes(self.CAPS, 10)
        for _ in range(2):
            for weights in self.PASSING:
                assert core.first_escape(weights) is None
                assert len(core.passed) <= 4
            assert core.first_escape([7, 3, 0]) == 1
        assert len(self.PASSING) > 4 and len(core.passed) == 4

    @pytest.mark.parametrize("m", (4, 5, 6))
    def test_routes_match_the_oracles_under_a_small_limit(self, monkeypatch, m):
        monkeypatch.setattr(setfn, "_PASSED_LIMIT", 4)
        made = []

        class Recorded(_CoreLanes):
            def __init__(self, caps, total):
                super().__init__(caps, total)
                made.append(self)
        # Route (b) builds the only core lanes of a report; the chains of a
        # capped sum give it more distinct passing measures than the limit.
        monkeypatch.setattr(represent, "_CoreLanes", Recorded)
        capped = support.wide_capped_sum(random.Random(1200 + m), g(m))
        for v in [*support.route_inputs(1200 + m, m, 1), capped]:
            for lower in (True, False):
                report = (verify_submodular_equivalence(v) if lower
                          else verify_supermodular_equivalence(v))
                assert (report.b_holds, report.b_witness) == support.brute_route_b(v, lower)
                assert (report.c_holds, report.c_witness) == \
                    support.brute_route_c(v, maximize=lower)
                assert (report.d_holds, report.d_witness) == support.brute_route_d(v, lower)
        assert max(len(core.passed) for core in made) == 4


def count_packings(monkeypatch) -> list[int]:
    """Count each ``_Lanes`` packed from here on, not the core lanes built on it."""
    count = [0]
    init = _Lanes.__init__

    def counted(self, *args):
        count[0] += type(self) is _Lanes
        init(self, *args)
    monkeypatch.setattr(_Lanes, "__init__", counted)
    return count


class TestLanesKeptOnTheFunction:
    """Each set function packs its lanes once, on first use, and keeps them
    like ``values``, outside its fields."""

    def test_sign_tests_and_route_a_share_one_packing(self, monkeypatch):
        count = count_packings(monkeypatch)
        v = SetFunction.from_callable(g(5), lambda s: min(3, bin(s).count("1")))
        assert count[0] == 0
        assert is_monotone(v) == (True, None)
        assert is_submodular(v) == (True, None)
        assert not is_supermodular(v)[0]
        assert verify_submodular_equivalence(v).booleans == (True,) * 4
        assert verify_supermodular_equivalence(v).booleans == (False,) * 4
        assert count[0] == 1
        assert is_supermodular(dual_transform(v)) == (True, None)
        assert count[0] == 2

    def test_each_iterate_is_packed_once(self, monkeypatch):
        count = count_packings(monkeypatch)
        v0 = SetFunction(GROUND, V0.values)
        trace = iterate_to_fixed_point(v0)
        assert len(trace.iterates) == 3
        assert count[0] == len(trace.iterates)

    def test_kept_lanes_leave_equality_hash_and_repr(self):
        packed, fresh = sf(3, range(8)), sf(3, range(8))
        assert is_submodular(packed)[0] and "_lanes" in vars(packed)
        assert "_lanes" not in vars(fresh)
        assert packed == fresh and hash(packed) == hash(fresh)
        assert repr(packed) == repr(fresh)
        assert list(SetFunction._fields) == ["ground", "image"]


class Pair(setfn._Record):
    left: int
    right: object


class OtherPair(setfn._Record):
    left: int
    right: object


class TestRecord:
    """The frozen-record base of the package's value types."""

    def test_builds_from_positions_or_keywords(self):
        assert Pair._fields == ("left", "right")
        for p in (Pair(1, "x"), Pair(1, right="x"), Pair(right="x", left=1)):
            assert (p.left, p.right) == (1, "x") and p == Pair(1, "x")

    @pytest.mark.parametrize("args, kwargs, message", [
        ((1,), {}, "missing required arguments: 'right'"),
        ((), {}, "missing required arguments: 'left', 'right'"),
        ((1, 2), {"other": 3}, "unexpected keyword argument 'other'"),
        ((1, 2), {"left": 3}, "multiple values for argument 'left'"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
    ])
    def test_refuses_a_missing_unknown_or_repeated_field(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Pair(*args, **kwargs)

    def test_runs_post_init_after_the_fields(self):
        with pytest.raises(ValueError, match="must be a permutation"):
            Chain(g(2), order=(0, 0))
        assert Chain(g(2), order=[1, 0]).order == (1, 0)

    def test_refuses_assignment_and_deletion(self):
        p = Pair(1, 2)
        with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
            p.left = 3
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            p.extra = 3
        with pytest.raises(AttributeError, match="cannot delete field 'left'"):
            del p.left
        assert vars(p) == {"left": 1, "right": 2}

    def test_equality_is_per_class_and_hash_agrees(self):
        assert Pair(1, 2) != OtherPair(1, 2) and OtherPair(1, 2) != Pair(1, 2)
        assert Pair(1, 2) != (1, 2) and Pair(1, 2) != Pair(1, 3)
        assert Pair(1, (2, 3)) == Pair(1, (2, 3))
        assert hash(Pair(1, (2, 3))) == hash(Pair(1, (2, 3)))
        assert len({Pair(1, 2), Pair(1, 2), OtherPair(1, 2), Pair(2, 1)}) == 3
        with pytest.raises(TypeError, match="unhashable"):
            hash(Pair(1, [2]))

    def test_repr_prints_as_a_dataclass(self):
        assert repr(ExchangeWitness(5, 1, 3)) == "ExchangeWitness(base=5, i=1, j=3)"
        assert (repr(Chain(GroundSet(("a", "b", "c")), (2, 0, 1)))
                == "Chain(ground=GroundSet(elements=('a', 'b', 'c')), order=(2, 0, 1))")
        assert repr(Pair(1, "x")) == "Pair(left=1, right='x')"


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
