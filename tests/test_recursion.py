"""The chain-supremum transform, its trace, and the symmetric fast path."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest

import chainrep.recursion
from chainrep import (
    CardinalityProfile,
    GroundSet,
    InternalConsistencyError,
    ProfileNotMonotone,
    SetFunction,
    is_submodular,
    iterate_to_fixed_point,
    recursion_step,
    symmetric_step,
)
from chainrep.counterexample import V0, V1_EXPECTED, V2_EXPECTED

import support


def g(m):
    return GroundSet.of_size(m)


@pytest.fixture
def tables(monkeypatch):
    """Records the ground size of every 3^m table the recursion builds."""
    real = chainrep.recursion.chain_opt_all
    built = []

    def counted(ints):
        built.append(len(ints).bit_length() - 1)
        return real(ints)
    monkeypatch.setattr(chainrep.recursion, "chain_opt_all", counted)
    return built


def confirmed_trace(v):
    """The recursion run until a step returns its input: the fixed point by
    its definition, confirmed by one more table."""
    iterates = [v]
    while (nxt := recursion_step(iterates[-1])) != iterates[-1]:
        iterates.append(nxt)
    return iterates


class TestRecursionStep:
    def test_golden_rows(self):
        v1 = recursion_step(V0)
        assert v1.values == V1_EXPECTED.values
        v2 = recursion_step(v1)
        assert v2.values == V2_EXPECTED.values
        assert v2.value_by_labels(["1", "2"]) == 18
        assert v2.value_by_labels(["2", "3"]) == 29

    def test_submodular_is_fixed(self):
        rng = random.Random(79)
        for m in (1, 2, 3, 4):
            v = support.random_submodular(rng, g(m))
            assert recursion_step(v).values == v.values

    def test_growth_and_boundary_values(self):
        rng = random.Random(83)
        for _ in range(20):
            v = support.random_monotone(rng, g(4))
            w = recursion_step(v)
            full = g(4).full_mask
            assert w.values[0] == 0
            assert w.values[full] == v.values[full]
            assert all(w.values[s] >= v.values[s] for s in g(4).subsets())
            assert all(w.values[s] <= v.values[full] for s in g(4).subsets())

    def test_matches_per_subset_oracle(self):
        for m in (1, 2, 3, 4, 5, 6):
            for v in support.route_inputs(700 + m, m, 2):
                assert recursion_step(v).values == support.brute_recursion_step(v).values

    def test_rejects_non_monotone(self):
        v = SetFunction(g(2), (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            recursion_step(v)

    def test_sweep_cap(self):
        # The 3^m table of chain optima is the step's one size limit.
        from chainrep import GroundSetTooLarge
        v = SetFunction(g(15), (Fraction(0),) * (1 << 15))
        with pytest.raises(GroundSetTooLarge, match="table"):
            recursion_step(v)
        rng = random.Random(101)
        for m in (10, 11, 12, 13):
            increments = [Fraction(rng.randint(0, 9), rng.choice((1, 2))) for _ in range(m)]
            profile = CardinalityProfile(tuple(accumulate(increments, initial=Fraction(0))))
            v = profile.to_set_function()
            assert recursion_step(v).values == symmetric_step(profile).values


class TestIterateToFixedPoint:
    def test_golden_trace(self):
        trace = iterate_to_fixed_point(V0)
        assert trace.reached_fixed_point
        assert trace.fixed_point_index == 2
        assert len(trace.iterates) == 3
        assert trace.submodular_flags == (False, False, True)
        assert trace.fixed_point.values == V2_EXPECTED.values

    def test_submodular_start_fixes_immediately(self):
        rng = random.Random(89)
        v = support.random_submodular(rng, g(4))
        trace = iterate_to_fixed_point(v)
        assert trace.fixed_point_index == 0

    def test_three_elements_need_one_step(self):
        rng = random.Random(97)
        for _ in range(60):
            v = support.random_monotone(rng, g(3), rational=True)
            trace = iterate_to_fixed_point(v)
            assert trace.fixed_point_index <= 1
            assert is_submodular(trace.fixed_point)[0]

    def test_iterates_bounded_by_initial_top_value(self):
        rng = random.Random(101)
        v = support.random_monotone(rng, g(4))
        trace = iterate_to_fixed_point(v)
        top = v.values[g(4).full_mask]
        for it in trace.iterates:
            assert all(x <= top for x in it.values)

    def test_trace_matches_per_subset_oracle(self):
        rng = random.Random(103)
        reached = set()
        for m in (1, 2, 3, 4, 5):
            for _ in range(6):
                v = support.random_monotone(rng, g(m), rational=rng.random() < 0.5)
                want, fixed = support.brute_iterate(v, 1 << m)
                trace = iterate_to_fixed_point(v)
                assert fixed and trace.fixed_point_index == len(want) - 1
                assert [it.values for it in trace.iterates] == [it.values for it in want]
                assert trace.submodular_flags == tuple(
                    support.brute_submodular(it) for it in want)
                reached.add(len(want))
        assert max(reached) >= 3  # some traces take two steps or more

    def test_first_submodular_iterate_is_the_first_fixed_point(self):
        # The run stops at the first submodular iterate without building the
        # step that would confirm it; that iterate is still the first n with
        # step(v_n) = v_n, so the trace is the one a confirming loop gives.
        rng = random.Random(109)
        for m in range(1, 9):
            for rational in (False, True):
                for _ in range(3 if m <= 6 else 1):
                    v = support.random_monotone(rng, g(m), rational=rational)
                    want = confirmed_trace(v)
                    trace = iterate_to_fixed_point(v)
                    assert trace.fixed_point_index == len(want) - 1
                    assert [it.values for it in trace.iterates] == [it.values for it in want]
                    assert trace.submodular_flags == tuple(
                        is_submodular(it)[0] for it in want)

    def test_golden_trace_builds_one_table_per_step(self, tables):
        iterate_to_fixed_point(V0)
        assert tables == [4, 4]

    def test_submodular_starts_build_no_table(self, tables):
        rng = random.Random(113)
        for m in range(1, 9):
            for make in (support.random_capped_sum, support.random_coverage,
                         support.random_modular):
                trace = iterate_to_fixed_point(make(rng, g(m)))
                assert trace.fixed_point_index == 0
                assert trace.submodular_flags == (True,)
        assert tables == []

    def test_a_step_that_fixes_a_non_submodular_start_raises(self, monkeypatch):
        monkeypatch.setattr(chainrep.recursion, "chain_opt_all", lambda ints: ints)
        with pytest.raises(InternalConsistencyError, match="not submodular"):
            iterate_to_fixed_point(V0)

    def test_cap_counts_the_steps_built(self, tables):
        trace = iterate_to_fixed_point(V0, max_steps=2)
        assert trace.fixed_point_index == 2
        assert trace.fixed_point.values == V2_EXPECTED.values
        assert tables == [4, 4]

    def test_submodular_start_answers_at_cap_zero(self, tables):
        v = support.random_capped_sum(random.Random(127), g(5))
        trace = iterate_to_fixed_point(v, max_steps=0)
        assert trace.fixed_point_index == 0
        assert [it.values for it in trace.iterates] == [v.values]
        assert tables == []

    def test_submodular_start_answers_above_the_table_limit(self, tables):
        from chainrep.chains import TABLE_LIMIT
        v = support.wide_capped_sum(random.Random(131), g(TABLE_LIMIT + 2))
        trace = iterate_to_fixed_point(v)
        assert trace.fixed_point_index == 0 and len(trace.iterates) == 1
        assert tables == []

    def test_step_cap_returns_partial_trace(self):
        trace = iterate_to_fixed_point(V0, max_steps=1)
        assert trace.fixed_point_index is None
        assert not trace.reached_fixed_point and trace.fixed_point is None
        assert len(trace.iterates) == 2
        assert trace.iterates[1].values == V1_EXPECTED.values
        assert trace.submodular_flags == (False, False)

    def test_capped_runs_are_prefixes_of_the_uncapped_run(self):
        rng = random.Random(137)
        for m in range(1, 7):
            for rational in (False, True):
                for _ in range(4):
                    v = support.random_monotone(rng, g(m), rational=rational)
                    full = iterate_to_fixed_point(v)
                    steps = full.fixed_point_index
                    for cap in range(steps + 1):
                        trace = iterate_to_fixed_point(v, max_steps=cap)
                        assert trace.iterates == full.iterates[:cap + 1]
                        assert trace.reached_fixed_point == (cap == steps)
                        assert trace.submodular_flags == tuple(
                            is_submodular(it)[0] for it in trace.iterates)

    def test_partial_exchange_inequalities_after_one_step(self):
        # After one step, pairs that are disjoint, cover everything, or
        # have a singleton / co-singleton on one side already satisfy the
        # submodular inequality.
        rng = random.Random(103)
        for m in (3, 4, 5, 6):
            for _ in range(4):
                v1 = recursion_step(support.random_monotone(rng, g(m)))
                vals = v1.values
                full = g(m).full_mask
                for a in g(m).subsets():
                    na = bin(a).count("1")
                    for b in g(m).subsets():
                        if (
                            a & b == 0
                            or a | b == full
                            or na == 1
                            or na == m - 1
                        ):
                            assert (
                                vals[a & b] + vals[a | b] <= vals[a] + vals[b]
                            )


class TestSymmetricStep:
    def test_sorted_increment_example(self):
        profile = CardinalityProfile((0, 7, 17, 31, 44))
        v1 = symmetric_step(profile)
        by_card = {
            k: v1.values[(1 << k) - 1] for k in range(5)
        }
        assert by_card == {0: 0, 1: 14, 2: 27, 3: 37, 4: 44}

    def test_concave_profile_is_already_fixed(self):
        profile = CardinalityProfile((0, 10, 17, 21, 22))
        v0 = profile.to_set_function()
        assert symmetric_step(profile).values == v0.values
        assert recursion_step(v0).values == v0.values

    def test_linear_profile_gives_modular_function(self):
        profile = CardinalityProfile((0, 3, 6, 9))
        v1 = symmetric_step(profile)
        assert v1.values == profile.to_set_function().values
        assert is_submodular(v1)[0]

    def test_matches_full_recursion(self):
        rng = random.Random(107)
        for m in (2, 3, 4, 5, 6):
            for _ in range(6):
                levels = [Fraction(0)]
                for _ in range(m):
                    levels.append(levels[-1] + rng.randint(0, 7))
                profile = CardinalityProfile(tuple(levels))
                v0 = profile.to_set_function()
                v1 = recursion_step(v0)
                assert symmetric_step(profile).values == v1.values
                assert recursion_step(v1).values == v1.values

    def test_matches_full_recursion_exhaustive_small_profiles(self):
        import itertools
        for m in (1, 2, 3):
            for steps in itertools.product((0, 1, 2), repeat=m):
                levels = [Fraction(0)]
                for s in steps:
                    levels.append(levels[-1] + s)
                profile = CardinalityProfile(tuple(levels))
                v1 = recursion_step(profile.to_set_function())
                assert symmetric_step(profile).values == v1.values

    def test_rejects_bad_profiles(self):
        with pytest.raises(ProfileNotMonotone):
            CardinalityProfile((1, 2))
        with pytest.raises(ProfileNotMonotone):
            CardinalityProfile((0, 3, 2))
