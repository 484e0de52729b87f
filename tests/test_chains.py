"""Chains, insertion, and telescoped measures."""

import itertools
import random
from fractions import Fraction

import pytest

from chainrep import (
    Chain,
    DiscreteMeasure,
    GroundSet,
    NonMonotoneAlongChain,
    NotNested,
    SetFunction,
    extremal_measure,
    insert_into_chain,
    insert_nested_pair,
    is_monotone,
    recursion_step,
)
from chainrep.chains import chain_opt_all, chain_opt_path, indicator, subset_sums
from chainrep.counterexample import GROUND, V0
from chainrep.setfn import _row_masks

import support
from support import all_chains


def g(m):
    return GroundSet.of_size(m)


class TestChain:
    def test_prefixes(self):
        chain = Chain.from_labels(g(3), ["2", "3", "1"])
        assert chain.prefixes() == (0, 0b010, 0b110, 0b111)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Chain(g(3), (0, 0, 2))


class TestExtremalMeasure:
    def test_three_element_example(self):
        # v by mask: listing (0,1,2,3,3,4,5,6) over the cardinality order
        # happens to match the bitmask order on three elements.
        v = SetFunction(g(3), tuple(map(Fraction, (0, 1, 2, 3, 3, 4, 5, 6))))
        mu = extremal_measure(v, Chain.from_labels(g(3), ["2", "3", "1"]))
        assert mu.weights == (Fraction(1), Fraction(2), Fraction(3))

    def test_table_chain(self):
        mu = extremal_measure(V0, Chain.from_labels(GROUND, ["4", "1", "2", "3"]))
        by_label = dict(zip(GROUND.elements, mu.weights))
        assert by_label == {"4": 19, "1": 11, "2": 6, "3": 8}

    def test_measure_recovers_itself(self):
        rng = random.Random(2)
        v = support.random_modular(rng, g(4))
        mu_weights = tuple(v.values[1 << i] for i in range(4))
        for chain in all_chains(g(4)):
            assert extremal_measure(v, chain).weights == mu_weights

    def test_prefix_agreement_and_total(self):
        rng = random.Random(4)
        for _ in range(25):
            v = support.random_monotone(rng, g(4))
            for chain in itertools.islice(all_chains(g(4)), 6):
                mu = extremal_measure(v, chain)
                for p in chain.prefixes():
                    assert mu.mass(p) == v.values[p]
                assert mu.total == v.values[g(4).full_mask]

    def test_rejects_non_monotone(self):
        v = SetFunction(g(2), (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
        with pytest.raises(NonMonotoneAlongChain,
                           match=r"^negative increment -1 at element 2 along chain 1,2$"):
            extremal_measure(v, Chain.from_labels(g(2), ["1", "2"]))

    def test_submodular_measures_dominated(self):
        # Telescoped measures of a monotone submodular v never exceed v.
        rng = random.Random(6)
        for m in (2, 3, 4, 5, 6):
            v = support.random_submodular(rng, g(m))
            for chain in all_chains(g(m)):
                sums = extremal_measure(v, chain).subset_sums()
                assert all(
                    sums[s] <= v.values[s] for s in g(m).subsets()
                )


class TestInsertion:
    def test_spec_example(self):
        chain = Chain.from_labels(g(4), ["1", "2", "3", "4"])
        mask = g(4).mask_of(["2", "4"])
        refined = insert_into_chain(chain, mask)
        assert refined.label_order() == ("2", "4", "1", "3")
        assert refined.has_prefix(mask)

    def test_trivial_insertions_keep_chain(self):
        chain = Chain.from_labels(g(4), ["3", "1", "4", "2"])
        assert insert_into_chain(chain, 0) == chain
        assert insert_into_chain(chain, g(4).full_mask) == chain
        for p in chain.prefixes():
            assert insert_into_chain(chain, p) == chain

    def test_inserted_set_is_always_a_prefix(self):
        for m in (2, 3, 4, 5):
            for chain in all_chains(g(m)):
                for mask in g(m).subsets():
                    assert insert_into_chain(chain, mask).has_prefix(mask)

    def test_relative_order_is_preserved(self):
        chain = Chain.from_labels(g(5), ["5", "3", "1", "4", "2"])
        refined = insert_into_chain(chain, g(5).mask_of(["1", "2", "3"]))
        assert refined.label_order() == ("3", "1", "2", "5", "4")


class TestNestedInsertion:
    def test_spec_example(self):
        chain = Chain.from_labels(g(4), ["1", "2", "3", "4"])
        a = g(4).mask_of(["1", "2", "3"])
        b = g(4).mask_of(["2"])
        refined = insert_nested_pair(chain, a, b)
        assert refined.label_order() == ("2", "1", "3", "4")
        assert refined.has_prefix(a) and refined.has_prefix(b)

    def test_rejects_non_nested(self):
        chain = Chain.identity(g(3))
        with pytest.raises(NotNested, match=r"^\{2\} is not contained in \{1\}$"):
            insert_nested_pair(chain, 0b001, 0b010)
        with pytest.raises(NotNested, match=r"^\{3\} is not contained in \{1,2\}$"):
            insert_nested_pair(chain, 0b011, 0b100)
        with pytest.raises(NotNested, match=r"^\{1\} is not contained in \{\}$"):
            insert_nested_pair(chain, 0, 0b001)

    def test_equal_pair_matches_single_insertion(self):
        chain = Chain.from_labels(g(4), ["4", "2", "1", "3"])
        a = g(4).mask_of(["1", "4"])
        assert insert_nested_pair(chain, a, a) == insert_into_chain(chain, a)

    def test_trivial_pair_keeps_chain(self):
        chain = Chain.from_labels(g(3), ["2", "1", "3"])
        assert insert_nested_pair(chain, g(3).full_mask, 0) == chain

    def test_insertion_orders_commute(self):
        # Exhaustive over chains and nested pairs up to five elements.
        for m in (2, 3, 4, 5):
            for chain in all_chains(g(m)):
                for a in g(m).subsets():
                    b = 0
                    while True:
                        via_a = insert_into_chain(insert_into_chain(chain, a), b)
                        via_b = insert_into_chain(insert_into_chain(chain, b), a)
                        assert via_a == via_b == insert_nested_pair(chain, a, b)
                        if b == a:
                            break
                        b = (b - a) & a


class TestDiscreteMeasure:
    def test_subset_sums_match_mass(self):
        mu = DiscreteMeasure(g(3), (Fraction(1), Fraction(5, 2), Fraction(0)))
        sums = mu.subset_sums()
        for s in g(3).subsets():
            assert sums[s] == mu.mass(s)
        assert mu.total == Fraction(7, 2)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(g(2), (Fraction(-1), Fraction(1)))

    def test_cached_total_leaves_equality_and_hash(self):
        weights = (Fraction(1, 3), Fraction(0), Fraction(5, 2))
        mu, fresh = DiscreteMeasure(g(3), weights), DiscreteMeasure(g(3), weights)
        assert mu.total == mu.total == Fraction(17, 6)
        assert mu == fresh and hash(mu) == hash(fresh)
        assert DiscreteMeasure.zero(g(3)).total == 0
        assert mu != DiscreteMeasure(g(3), weights[:2] + (Fraction(5, 3),))

    def test_as_set_function_is_modular(self):
        mu = DiscreteMeasure(g(3), (Fraction(2), Fraction(3), Fraction(4)))
        v = mu.as_set_function()
        assert v.values[0b111] == 9
        assert v.values[0b101] == 6

    def test_as_set_function_matches_fraction_masses(self):
        rng = random.Random(197)
        for m in range(1, 9):
            for den in (1, 6, 3**40):
                mu = DiscreteMeasure(g(m), tuple(
                    Fraction(rng.randint(0, 10**rng.randint(1, 30)), rng.randint(1, den))
                    for _ in range(m)))
                got, want = mu.as_set_function(), support.brute_subset_function(mu)
                assert got == want and got.image == want.image
                assert got.values == want.values


class TestSubsetSums:
    @staticmethod
    def indexed(weights):
        """The lowest-set-bit recurrence, mask by mask."""
        sums = [0] * (1 << len(weights))
        for s in range(1, 1 << len(weights)):
            low = s & -s
            sums[s] = sums[s ^ low] + weights[low.bit_length() - 1]
        return sums

    def test_matches_indexed_loop(self):
        rng = random.Random(211)
        for m in range(11):
            ints = [rng.randint(-9, 9) for _ in range(m)]
            fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]
            for weights in (ints, fracs):
                got, want = subset_sums(weights), self.indexed(weights)
                assert got == want
                assert [type(x) for x in got] == [type(x) for x in want]


class TestChainOptAll:
    def test_matches_one_dp_per_subset(self):
        rng = random.Random(223)
        for m in range(1, 8):
            for _ in range(4):
                values = [0] + [rng.randint(-4, 12) for _ in range((1 << m) - 1)]
                # A minimum is the maximum for -v, so both signs are covered.
                for image in (values, [-x for x in values]):
                    want = [chain_opt_path(image, indicator(a, m))[0]
                            for a in range(1 << m)]
                    assert chain_opt_all(image) == want

    def test_packed_table_matches_list_table_at_lane_edges(self):
        # Zero, negative and non-monotone values, spans at byte boundaries
        # and 4000-digit images, on v and -v; where v is monotone, the
        # recursion step built on the table matches one DP per subset. The
        # table's lanes hold 2 * m * span plus a guard bit, so its own byte
        # edges sit at 2 * m * span = 2^7 and 2^63, where the lanes grow
        # from 8 to 16 and from 64 to 72 bits and the masks stop being kept.
        rng = random.Random(227)
        for m in range(1, 9):
            spans = [((1 << b) - 1) // (2 * m) + e for b in (7, 63) for e in (0, 1)]
            for v in itertools.chain(support.lane_edge_inputs(rng, m),
                                     support.span_edge_inputs(rng, m, spans)):
                ints = v.image[0]
                for image in (list(ints), [-x for x in ints]):
                    assert chain_opt_all(image) == support.list_chain_opt_all(image)
                if is_monotone(v)[0]:
                    assert recursion_step(v) == support.brute_recursion_step(v)

    def test_wide_lane_masks_are_not_kept(self):
        # Masks of lanes wider than 64 bits grow with the values, so they
        # are built for one table and dropped with it.
        chain_opt_all([0, 1, 2, 3])
        before = _row_masks.cache_info()
        chain_opt_all([0, 10**30, -10**30, 10**30])
        assert _row_masks.cache_info() == before
        chain_opt_all([0, 1, 2, 3])
        assert _row_masks.cache_info().hits > before.hits
