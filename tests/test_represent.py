"""Core membership, chain suprema, and the four-way equivalence."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from chainrep import (
    SWEEP_LIMIT,
    Chain,
    DiscreteMeasure,
    GroundSet,
    GroundSetTooLarge,
    NotNested,
    SetFunction,
    dual_transform,
    extremal_measure,
    in_lower_core,
    in_upper_core,
    inf_over_chains,
    local_core_attainment,
    local_core_sup,
    sup_over_chains,
    verify_submodular_equivalence,
    verify_supermodular_equivalence,
)
from chainrep import setfn
from chainrep.counterexample import GROUND, V0, V1_EXPECTED, V2_EXPECTED
from chainrep.represent import _extremal_measures_in_core, _local_candidates_in_core
from chainrep.setfn import int_image, is_monotone, is_submodular, is_supermodular

import support
from support import all_chains


def g(m):
    return GroundSet.of_size(m)


class TestLowerCore:
    def test_table_chain_measure_escapes_core(self):
        mu = extremal_measure(V0, Chain.from_labels(GROUND, ["4", "1", "2", "3"]))
        ok, witness = in_lower_core(V0, mu)
        assert not ok
        # mu({1}) = 11 > 7 = v0({1}); first violation in bitmask order.
        assert witness == GROUND.mask_of(["1"])

    def test_submodular_chain_measures_in_core(self):
        v = SetFunction.from_callable(g(4), lambda s: min(2, bin(s).count("1")))
        for chain in all_chains(g(4)):
            ok, _ = in_lower_core(v, extremal_measure(v, chain))
            assert ok

    def test_zero_measure_zero_function(self):
        v = SetFunction(g(2), (Fraction(0),) * 4)
        ok, _ = in_lower_core(v, DiscreteMeasure.zero(g(2)))
        assert ok

    def test_mass_mismatch_witnessed_at_full(self):
        v = SetFunction.from_callable(g(2), lambda s: bin(s).count("1"))
        mu = DiscreteMeasure(g(2), (Fraction(1), Fraction(0)))
        ok, witness = in_lower_core(v, mu)
        assert not ok and witness == g(2).full_mask

    def test_upper_core_mirror(self):
        v = SetFunction.from_callable(g(3), lambda s: bin(s).count("1") ** 2)
        for chain in all_chains(g(3)):
            ok, _ = in_upper_core(v, extremal_measure(v, chain))
            assert ok


class TestSupOverChains:
    def test_table_values(self):
        assert sup_over_chains(V0, GROUND.mask_of(["1"]))[0] == 11
        assert sup_over_chains(V0, GROUND.mask_of(["1", "2"]))[0] == 17
        assert sup_over_chains(V0, GROUND.full_mask)[0] == 44

    def test_empty_subset(self):
        value, chain = sup_over_chains(V0, 0)
        assert value == 0
        assert chain.label_order() == ("1", "2", "3", "4")

    def test_witness_attains(self):
        rng = random.Random(13)
        for _ in range(30):
            v = support.random_monotone(rng, g(4))
            mask = rng.randrange(16)
            value, chain = sup_over_chains(v, mask)
            assert extremal_measure(v, chain).mass(mask) == value

    def test_matches_literal_sweep_including_witness(self):
        rng = random.Random(17)
        for m in (1, 2, 3, 4, 5):
            for _ in range(12):
                v = support.random_monotone(rng, g(m))
                mask = rng.randrange(1 << m)
                got_val, got_chain = sup_over_chains(v, mask)
                want_val, want_chain = support.brute_sup_over_chains(v, mask)
                assert got_val == want_val
                assert got_chain == want_chain
                got_inf, got_inf_chain = inf_over_chains(v, mask)
                want_inf, want_inf_chain = support.brute_inf_over_chains(v, mask)
                assert got_inf == want_inf
                assert got_inf_chain == want_inf_chain

    def test_sweep_cap(self):
        # No size refusal: the 2^m path DP answers at the largest ground
        # set. v is submodular and its dual supermodular, so the maximum of
        # v and the minimum of the dual are their values, and telescoping
        # along the witness chain checks the chain without the DP.
        ground = g(16)
        v = support.wide_capped_sum(random.Random(29), ground)
        w = dual_transform(v)
        for mask in (0, ground.full_mask, 0b1011, ground.full_mask ^ 0b110):
            value, chain = sup_over_chains(v, mask)
            assert value == v.values[mask] == extremal_measure(v, chain).mass(mask)
            value, chain = inf_over_chains(w, mask)
            assert value == w.values[mask] == extremal_measure(w, chain).mass(mask)

    def test_dominates_v_for_monotone_input(self):
        rng = random.Random(19)
        for _ in range(20):
            v = support.random_monotone(rng, g(4))
            for mask in g(4).subsets():
                assert sup_over_chains(v, mask)[0] >= v.values[mask]

    def test_submodular_any_prefix_chain_attains(self):
        rng = random.Random(23)
        for _ in range(10):
            v = support.random_submodular(rng, g(4))
            for mask in g(4).subsets():
                value, _ = sup_over_chains(v, mask)
                assert value == v.values[mask]
                for chain in all_chains(g(4)):
                    if chain.has_prefix(mask):
                        assert extremal_measure(v, chain).mass(mask) == value


class TestLocalCore:
    def test_submodular_example(self):
        v = SetFunction.from_callable(g(4), lambda s: min(2, bin(s).count("1")))
        a = g(4).mask_of(["1", "2", "3"])
        b = g(4).mask_of(["1", "2"])
        assert local_core_sup(v, a, b) == 2
        report = local_core_attainment(v, a, b)
        assert report.in_core
        assert report.measure.mass(b) == 2
        # Restriction to A: nothing outside A carries weight.
        assert report.measure.weights[3] == 0

    def test_equal_pair_gives_value_at_a(self):
        rng = random.Random(29)
        v = support.random_monotone(rng, g(4))
        for a in g(4).subsets():
            assert local_core_sup(v, a, a) == v.values[a]

    def test_empty_inner_set(self):
        rng = random.Random(31)
        v = support.random_monotone(rng, g(3))
        for a in g(3).subsets():
            assert local_core_sup(v, a, 0) == 0

    def test_rejects_non_nested(self):
        with pytest.raises(NotNested):
            local_core_sup(V0, 0b0001, 0b0010)

    def test_non_submodular_candidate_escapes_core(self):
        # The constructed measure fails the lower-core cap somewhere
        # exactly when the function is not submodular.
        report_fail = [
            local_core_attainment(V1_EXPECTED, a, b)
            for a in GROUND.subsets()
            for b in GROUND.subsets()
            if b & ~a == 0
        ]
        assert any(not r.in_core for r in report_fail)


class TestEquivalence:
    def test_table_rows(self):
        assert verify_submodular_equivalence(V1_EXPECTED).booleans == (
            False, False, False, False,
        )
        assert verify_submodular_equivalence(V2_EXPECTED).booleans == (
            True, True, True, True,
        )
        assert verify_submodular_equivalence(V0).booleans == (
            False, False, False, False,
        )

    def test_measure_satisfies_everything(self):
        rng = random.Random(37)
        v = support.random_modular(rng, g(3))
        assert verify_submodular_equivalence(v).all_hold
        assert verify_supermodular_equivalence(v).all_hold

    def test_booleans_always_agree(self):
        rng = random.Random(41)
        for m in (1, 2, 3, 4, 5):
            for _ in range(15):
                v = (
                    support.random_monotone(rng, g(m))
                    if rng.random() < 0.5
                    else support.random_submodular(rng, g(m))
                )
                report = verify_submodular_equivalence(v)
                assert report.consistent, (m, v.values, report)
                dual_report = verify_supermodular_equivalence(dual_transform(v))
                assert dual_report.consistent
                assert report.booleans == dual_report.booleans

    def test_supermodular_side_on_duals(self):
        assert verify_supermodular_equivalence(dual_transform(V2_EXPECTED)).all_hold
        assert not verify_supermodular_equivalence(
            dual_transform(V1_EXPECTED)
        ).booleans[0]

    def test_rejects_non_monotone(self):
        v = SetFunction(g(2), (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            verify_submodular_equivalence(v)

    def test_route_b_refuses_above_the_sweep_limit(self):
        # Both sides run route (b)'s literal m! sweep, which alone has a limit.
        m = SWEEP_LIMIT + 1
        v = support.wide_capped_sum(random.Random(m), g(m))
        for verify in (verify_submodular_equivalence, verify_supermodular_equivalence):
            with pytest.raises(GroundSetTooLarge,
                               match=rf"^route \(b\) sweeps m! chains: at most {SWEEP_LIMIT} "
                                     rf"elements, got {m}$"):
                verify(v)

    def test_witnesses_reported_when_false(self):
        report = verify_submodular_equivalence(V0)
        assert report.a_witness is not None
        chain, mask = report.b_witness
        mu = extremal_measure(V0, chain)
        assert mu.mass(mask) > V0.values[mask]
        mask_c, chain_c = report.c_witness
        assert extremal_measure(V0, chain_c).mass(mask_c) != V0.values[mask_c]
        a, b, violated = report.d_witness
        assert b & ~a == 0
        rep = local_core_attainment(V0, a, b)
        assert not rep.in_core and rep.violated == violated


class TestRoutesMatchLiteralOracles:
    """Routes (b)-(d) give the literal oracles' booleans and witnesses."""

    COUNT = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2, 6: 1}

    @pytest.mark.parametrize("m", sorted(COUNT))
    def test_booleans_and_witnesses(self, m):
        for v in support.route_inputs(600 + m, m, self.COUNT[m]):
            for lower in (True, False):
                report = (verify_submodular_equivalence(v) if lower
                          else verify_supermodular_equivalence(v))
                assert (report.b_holds, report.b_witness) == \
                    support.brute_route_b(v, lower)
                assert (report.c_holds, report.c_witness) == \
                    support.brute_route_c(v, maximize=lower)
                assert (report.d_holds, report.d_witness) == \
                    support.brute_route_d(v, lower)


class TestRoutesAtLaneEdges:
    """Routes (b) and (d) on the packed lanes at the lane-width edges.

    Every failing side is compared with the literal oracle, witness
    included; a side that holds is compared with the exchange test, and
    with the literal oracle up to m = 5 (beyond that the literal sweeps
    over every chain and every nested pair take seconds each).
    """

    @pytest.mark.parametrize("m", range(1, 9))
    def test_match_literal_oracles(self, m):
        for v in support.lane_edge_inputs(random.Random(900 + m), m):
            if not is_monotone(v)[0]:
                continue
            values, _ = int_image(v.values)
            for lower in (True, False):
                # The upper-core side is the lower-core route run on -v.
                image = values if lower else [-x for x in values]
                b = _extremal_measures_in_core(v.ground, image)
                d = _local_candidates_in_core(image)
                truth = (is_submodular if lower else is_supermodular)(v)[0]
                assert b[0] == d[0] == truth
                if m <= 5 or not truth:
                    assert b == support.brute_route_b(v, lower)
                    assert d == support.brute_route_d(v, lower)


class TestLateFailureBehindRepeatedMeasures:
    """Every chain of a modular v gives one measure, which the core lanes
    remember once it passes. Raising v on one large subset L makes only
    the chains through L leave the lower core, and lowering it only those
    through L leave the upper core, so the first failing chain and nested
    pair come after many repeats of the passing measure. They must still
    be tested, with the oracles' witnesses. On the other side the modular
    measure itself fails, at the first chain."""

    def test_witnesses_equal_the_oracles(self):
        m, low = 6, 0b111110  # L: every element but the first
        rng = random.Random(1300)
        w = [rng.randint(2, 9) for _ in range(m)]
        modular = [sum(x for i, x in enumerate(w) if s >> i & 1) for s in range(1 << m)]
        for lower in (True, False):
            sign = 1 if lower else -1
            assert _extremal_measures_in_core(g(m), [sign * x for x in modular]) == (True, None)
        for shift in (1, -1):
            ints = list(modular)
            ints[low] += shift
            v = SetFunction(g(m), tuple(map(Fraction, ints)))
            assert is_monotone(v)[0]
            for lower in (True, False):
                image = ints if lower else [-x for x in ints]
                b = _extremal_measures_in_core(g(m), image)
                d = _local_candidates_in_core(image)
                assert b == support.brute_route_b(v, lower)
                assert d == support.brute_route_d(v, lower)
                assert not d[0]
                # Late: the first chain through L, after the 120 chains led
                # by element 0.
                late = lower == (shift == 1)
                assert b[1][0].order == ((1, 2, 3, 4, 5, 0) if late else tuple(range(m)))


class TestRouteBHeadTailSeam:
    """Route (b) telescopes each head of m - 3 elements once and runs the
    3! tails of the rest. Moving a modular v by one on L, every element
    but 0 and 1, makes the chains through L the first to fail: raising it
    on the lower side, lowering it on the upper. The first of them lists
    L, then 0 and 1, so it is the fifth tail of its head, after four
    passing chains that differ from it only in their last three elements."""

    @pytest.mark.parametrize("m", (4, 7))
    @pytest.mark.parametrize("lower", (True, False), ids=("lower", "upper"))
    def test_witness_is_a_later_tail_of_its_head(self, m, lower):
        rng = random.Random(1310 + m)
        w = [rng.randint(2, 9) for _ in range(m)]
        ints = [sum(x for i, x in enumerate(w) if s >> i & 1) for s in range(1 << m)]
        low = (1 << m) - 4  # L: every element but 0 and 1
        ints[low] += 1 if lower else -1
        v = SetFunction(g(m), tuple(map(Fraction, ints)))
        assert is_monotone(v)[0]
        b = _extremal_measures_in_core(g(m), ints if lower else [-x for x in ints])
        assert b == support.brute_route_b(v, lower)
        assert b[1][0].order == tuple(range(2, m)) + (0, 1)


def moved_modular(rng, m, raise_it):
    """A modular v with weights in 0..3, some of them zero, moved by one on
    one set L, 0 < |L| < m, that keeps it monotone: raised, which takes every
    element outside L to add at least 1, or lowered, every element inside.

    Prefixes of one set then share their weights unless they pass through
    L, and a zero weight makes prefixes of different sets share them too.
    Raising L makes the chains through it leave the lower core, lowering it
    the upper core. The first of them lists L in ascending order first, so
    L is drawn among the sets whose least element is largest: the first
    failure on that side comes late."""
    w = [rng.randint(0, 3) for _ in range(m)]
    ints = [sum(x for i, x in enumerate(w) if s >> i & 1) for s in range(1 << m)]
    fits = [s for s in range(1, (1 << m) - 1)
            if all(w[i] for i in range(m) if (s >> i & 1) != raise_it)]
    if fits:
        low = max(s & -s for s in fits)
        ints[rng.choice([s for s in fits if s & -s == low])] += 1 if raise_it else -1
    return SetFunction.from_image(g(m), ints, 1)


def lowered_submodular(rng, m):
    """A random submodular v with one value lowered to the largest value
    below it, so it stays monotone and may stop being submodular."""
    ints, den = int_image(support.random_submodular(rng, g(m)).values)
    s = rng.randrange(1, 1 << m)
    ints[s] = max(ints[s ^ 1 << i] for i in range(m) if s >> i & 1)
    return SetFunction.from_image(g(m), ints, den)


class TestRouteBPrefixWalk:
    """Route (b) walks the chain prefixes depth first and skips a prefix
    whose set and telescoped weights repeat those of a prefix whose chains
    all passed. Its answers and witnesses are still the literal sweep's, on
    inputs whose prefixes repeat their sets with other weights and whose
    first failure comes late, at every m up to 7, on both sides, and with
    the memos' limit patched down to 4. For m <= 3 a head is one element."""

    COUNT = {1: 2, 2: 4, 3: 6, 4: 6, 5: 4, 6: 3, 7: 1}

    @pytest.mark.parametrize("m", sorted(COUNT))
    def test_witnesses_equal_the_oracle(self, monkeypatch, m):
        # A limit of 4 bounds the prefix memo as well as the core lanes' memo.
        limits = (setfn._PASSED_LIMIT, 4)
        rng = random.Random(1400 + m)
        for _ in range(self.COUNT[m]):
            for v in (moved_modular(rng, m, True), moved_modular(rng, m, False),
                      lowered_submodular(rng, m)):
                assert is_monotone(v)[0]
                values = v.image[0]
                for lower in (True, False):
                    image = values if lower else [-x for x in values]
                    truth = support.brute_route_b(v, lower)
                    for limit in limits:
                        monkeypatch.setattr(setfn, "_PASSED_LIMIT", limit)
                        assert _extremal_measures_in_core(g(m), image) == truth


class TestRouteBPrunesRepeatedPrefixes:
    """Every prefix of one set of a modular v has the same weights, so the
    walk runs the 3! tails of each 4-element head set of a 7-element v
    once: C(7, 4) * 3! = 210 lane tests, where the literal sweep runs
    5040."""

    @staticmethod
    def count_lane_tests(monkeypatch, limit=None):
        if limit is not None:
            monkeypatch.setattr(setfn, "_PASSED_LIMIT", limit)
        calls = []
        first_escape = setfn._CoreLanes.first_escape

        def counted(self, weights):
            calls.append(None)
            return first_escape(self, weights)
        monkeypatch.setattr(setfn._CoreLanes, "first_escape", counted)
        w = [3, 1, 4, 1, 5, 9, 2]
        modular = [sum(x for i, x in enumerate(w) if s >> i & 1) for s in range(1 << 7)]
        counts = []
        for sign in (1, -1):
            calls.clear()
            assert _extremal_measures_in_core(g(7), [sign * x for x in modular]) == (True, None)
            counts.append(len(calls))
        return counts

    def test_each_head_set_runs_its_tails_once(self, monkeypatch):
        assert self.count_lane_tests(monkeypatch) == [210, 210]

    @pytest.mark.parametrize("limit", (1, 2, 4))
    def test_the_memo_keeps_the_first_prefixes_to_pass(self, monkeypatch, limit):
        # A prefix is kept once all its chains passed, so the first ones
        # kept are the heads (0, 1, 2, k), k = 3..6, in that order; the
        # next is (0, 1, 2), after them. Each saves the 3! tails of the 23
        # other orders of its set, and the memo takes no more than limit.
        assert self.count_lane_tests(monkeypatch, limit) == [5040 - 23 * 6 * limit] * 2


class TestNestedPairWitnessOrder:
    """Route (d) tests a whole class of equal |A| per lane pass, the classes
    in increasing |A|, and splits a class into passes of at most
    ``setfn._PAIR_PASS_BYTES``. Its witness is still the literal oracle's:
    the first A in bitmask order, then the first B, then the first C."""

    @staticmethod
    def both_sides(v):
        values = v.image[0]
        for lower in (True, False):
            image = values if lower else [-x for x in values]
            yield lower, _local_candidates_in_core(image), support.brute_route_d(v, lower)

    @pytest.mark.parametrize("scale", (1, 1 << 520), ids=("passes", "mixed"))
    def test_an_earlier_larger_set_beats_a_later_smaller_one(self, scale):
        # 2|X| moved by one at 0b0111 and at 0b1100 fails first at
        # A = 0b0111, three elements, and at A = 0b1100, the first failure
        # of the two-element class, which runs first. Scaled, the lanes are
        # 66 bytes: the two-element class runs in lane passes and the
        # three-element class one pair at a time.
        for bump in (1, -1):
            ints = [2 * bin(s).count("1") for s in range(16)]
            ints[0b0111] += bump
            ints[0b1100] += bump
            v = SetFunction.from_image(g(4), [scale * x for x in ints], 1)
            for lower, got, want in self.both_sides(v):
                assert got == want
                if lower == (bump == 1):
                    assert got[1][0] == 0b0111

    def test_the_first_failing_b_beats_an_earlier_failing_lane(self):
        # At A = {1, 2, 3} the pair with B = {2} first fails at C = {2, 3},
        # and the pair with B = {2, 3} at C = {1, 2}, an earlier lane of the
        # pass, whose subset sums run C outermost.
        v = SetFunction.from_image(g(3), [0, 3, 4, 6, 2, 5, 5, 8], 1)
        assert local_core_attainment(v, 0b111, 0b110).violated == 0b011
        assert _local_candidates_in_core(v.image[0]) == (False, (0b111, 0b010, 0b110))
        for _, got, want in self.both_sides(v):
            assert got == want

    def test_wide_classes_run_one_pair_at_a_time(self, monkeypatch):
        # A class whose pairs take ``setfn._PAIR_LANE_BYTES`` of lanes or
        # more runs one pair at a time, on core lanes per A, whose memo
        # tests a repeated measure once. Every pair of A = {1, 2} and the
        # first pair of A = {1, 3} have the weights (1, 1), but only the
        # latter fails, at C = {3}, since v({3}) = 0: the memo of one A
        # does not answer for another.
        classes = []
        per_a = setfn._first_escape_per_a
        monkeypatch.setattr(setfn, "_first_escape_per_a",
                            lambda values, subs, K, n, count:
                            classes.append(n) or per_a(values, subs, K, n, count))
        v = SetFunction.from_image(g(3), [x << 1100 for x in (0, 1, 1, 2, 0, 2, 2, 3)], 1)
        assert (v.image[0][-1].bit_length() + 9) // 8 << 2 >= setfn._PAIR_LANE_BYTES
        assert _local_candidates_in_core(v.image[0]) == (False, (0b101, 0, 0b100))
        for _, got, want in self.both_sides(v):
            assert got == want
        assert classes == [2, 2, 2, 3]  # the upper side passes at |A| = 2

    @pytest.mark.parametrize("scale", (1, 10 ** 20), ids=("narrow", "wide"))
    @pytest.mark.parametrize("runs", (1, 2, 3, 8))
    def test_a_failure_on_a_pass_edge(self, monkeypatch, scale, runs):
        # The example above on the elements {0, 2, 3} of four, element 1
        # added with weight 1, fails first at A = {0, 2, 3}, B = {2},
        # C = {2, 3}: every pair of a set that holds element 1 fails or
        # passes with its pair on the others. So of the four three-element
        # sets A, the third fails first. Passes of one, two and three A's
        # put it alone, first and last in its pass, and eight put the whole
        # class in one. The wide lanes are 9 bytes, wider than the masks
        # ``_top_mask`` caches.
        f = (0, 3, 4, 6, 2, 5, 5, 8)
        ints = [scale * (f[s & 1 | s >> 1 & 0b110] + (s >> 1 & 1)) for s in range(16)]
        v = SetFunction.from_image(g(4), ints, 1)
        size = (v.image[0][-1].bit_length() + 9) // 8  # the kernel's lane bytes
        assert size == (1 if scale == 1 else 9)
        monkeypatch.setattr(setfn, "_PAIR_PASS_BYTES", runs * size << 6)  # 4^3 lanes per A
        for _, got, want in self.both_sides(v):
            assert got == want
        assert _local_candidates_in_core(v.image[0]) == (False, (0b1101, 0b0100, 0b1100))

    @pytest.mark.parametrize("budget", (1, 24, 100, 700))
    @pytest.mark.parametrize("m", (3, 4, 5))
    def test_small_passes_match_the_oracle(self, monkeypatch, m, budget):
        # Every pass is cut short: one A, or a few whole A's with a shorter
        # last pass, on submodular inputs, which test every pair, and
        # generic ones. Each input also runs with every class one pair at
        # a time (0 lane bytes), at the default switch, and with every
        # class in passes (2^30), narrow and 30-digit alike.
        lane_switches = (0, setfn._PAIR_LANE_BYTES, 1 << 30)
        monkeypatch.setattr(setfn, "_PAIR_PASS_BYTES", budget)
        rng = random.Random(2600 + m)
        inputs = [*support.route_inputs(2600 + m, m, 1),
                  support.digit_capped_sum(rng, g(m), 30)]
        for v in inputs:
            for lower in (True, False):
                want = support.brute_route_d(v, lower)
                image = v.image[0] if lower else [-x for x in v.image[0]]
                for lane_bytes in lane_switches:
                    monkeypatch.setattr(setfn, "_PAIR_LANE_BYTES", lane_bytes)
                    assert _local_candidates_in_core(image) == want

    @pytest.mark.parametrize("m", range(1, 8))
    def test_random_monotone_inputs(self, m):
        rng = random.Random(2500 + m)
        inputs = [support.random_monotone(rng, g(m), rational=rational)
                  for rational in (False, True) for _ in range(3 if m < 7 else 1)]
        # The same integer inputs with 10-byte lanes: from six elements on,
        # a class runs one pair at a time.
        inputs += [SetFunction.from_image(g(m), [x << 70 for x in v.image[0]], 1)
                   for v in inputs if v.image[1] == 1]
        if m <= 4:
            inputs += [v for v in support.lane_edge_inputs(rng, m) if is_monotone(v)[0]]
        for v in inputs:
            for _, got, want in self.both_sides(v):
                assert got == want


class TestNestedPairPassMemory:
    """Route (d) runs wide values one pair at a time and narrow ones in
    passes of at most about ``setfn._PAIR_PASS_BYTES`` of lanes, so its
    memory does not grow with the class size."""

    @pytest.mark.parametrize("m, digits", [(8, 1000), (7, 4000),
                                           pytest.param(10, None, id="10-narrow")])
    def test_peak_stays_small(self, m, digits):
        # Narrow values run in passes; the peak counts the class lists too.
        rng = random.Random(m)
        v = (support.wide_capped_sum(rng, g(m)) if digits is None
             else support.digit_capped_sum(rng, g(m), digits))
        values = v.image[0]
        setfn._class_subsets.cache_clear()
        tracemalloc.start()
        try:
            assert _local_candidates_in_core(values) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestCoreChecksMatchLiteralScan:
    """in_lower_core, in_upper_core and local_core_attainment run one lane
    comparison on the common-denominator image of v and mu; their verdicts
    and witnesses equal those of the literal Fraction scan."""

    @staticmethod
    def measures(rng, v):
        ground = v.ground
        yield DiscreteMeasure.zero(ground)
        yield DiscreteMeasure(ground, tuple(
            Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7))) for _ in range(ground.size)
        ))
        if is_monotone(v)[0]:
            order = list(range(ground.size))
            rng.shuffle(order)
            yield extremal_measure(v, Chain(ground, order))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_core_membership(self, m):
        rng = random.Random(700 + m)
        ground = g(m)
        inputs = [support.random_monotone(rng, ground, rational=True),
                  support.random_submodular(rng, ground),
                  SetFunction(ground, tuple([Fraction(0)] + [
                      Fraction(rng.randint(-9, 9), rng.choice((1, 4, 3 ** 40)))
                      for _ in range((1 << m) - 1)]))]
        seen = set()
        for v in inputs:
            for mu in self.measures(rng, v):
                for lower, check in ((True, in_lower_core), (False, in_upper_core)):
                    want = support.brute_core_membership(v, mu, lower)
                    assert check(v, mu) == want
                    seen.add(want[0])
        assert seen == {True, False}

    @pytest.mark.parametrize("m", range(1, 8))
    def test_local_core_attainment(self, m):
        rng = random.Random(800 + m)
        ground = g(m)
        seen = set()
        for v in (support.random_monotone(rng, ground, rational=True),
                  support.random_submodular(rng, ground)):
            for _ in range(12):
                a = rng.randrange(1 << m)
                b = a & rng.randrange(1 << m)
                for lower in (True, False):
                    report = local_core_attainment(v, a, b, lower=lower)
                    want = support.brute_core_check(v, report.measure, a, lower)
                    assert (report.in_core, report.violated) == want
                    seen.add(want[0])
        # On one element every set function is modular.
        assert seen == ({True} if m == 1 else {True, False})
