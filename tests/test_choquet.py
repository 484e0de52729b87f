"""Layer decomposition, Choquet integration, risk normalization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chainrep import (
    GroundSet,
    NegativeValues,
    NonMonotoneAlongChain,
    NotSubmodular,
    SetFunction,
    SimpleFunction,
    ZeroTotalMass,
    choquet,
    choquet_sup_representation,
    extremal_measure,
    is_submodular,
    layer_decompose,
    monotone_approximation,
    risk_measure,
    sup_over_chains,
)
from chainrep.counterexample import GROUND, V0

import support
from support import all_chains


def g(m):
    return GroundSet.of_size(m)


def fn(m, values):
    return SimpleFunction(g(m), tuple(Fraction(x) for x in values))


def capped(m, c):
    return SetFunction.from_callable(g(m), lambda s: min(c, bin(s).count("1")))


class TestLayerDecompose:
    def test_spec_example(self):
        layers = layer_decompose(fn(4, (3, 1, 1, 0)))
        assert layers.coefficients == (Fraction(2), Fraction(1), Fraction(0))
        assert layers.sets == (0b0001, 0b0111, 0b1111)

    def test_constant(self):
        layers = layer_decompose(fn(3, (5, 5, 5)))
        assert layers.coefficients == (Fraction(5),)
        assert layers.sets == (0b111,)

    def test_indicator(self):
        layers = layer_decompose(SimpleFunction.indicator(g(3), 0b011))
        assert layers.coefficients == (Fraction(1), Fraction(0))
        assert layers.sets == (0b011, 0b111)

    def test_negative_minimum_lands_in_last_coefficient(self):
        layers = layer_decompose(fn(2, (-2, 1)))
        assert layers.sets[-1] == 0b11
        assert layers.coefficients[-1] == -2
        assert all(c >= 0 for c in layers.coefficients[:-1])

    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(
                st.fractions(min_value=-8, max_value=8, max_denominator=4),
                min_size=m, max_size=m,
            )
        )
    )
    def test_reconstruction(self, values):
        f = SimpleFunction(g(len(values)), tuple(values))
        assert layer_decompose(f).reconstruct().values == f.values


class TestSimpleFunction:
    def test_call_and_pointwise_difference(self):
        f, h = fn(3, (3, 1, "1/2")), fn(3, (1, 1, 2))
        assert [f(i) for i in range(3)] == [3, 1, Fraction(1, 2)]
        assert (f - h).values == (2, 0, Fraction(-3, 2))
        assert (f - Fraction(1, 2)).values == (Fraction(5, 2), Fraction(1, 2), 0)
        assert (f - f).values == (0, 0, 0)


class TestChoquet:
    def test_table_example(self):
        f = SimpleFunction(GROUND, (Fraction(0), Fraction(1), Fraction(3), Fraction(0)))
        assert choquet(V0, f) == 2 * 20 + 28  # 68

    def test_indicator_recovers_values(self):
        rng = random.Random(43)
        v = support.random_monotone(rng, g(4))
        for mask in g(4).subsets():
            assert choquet(v, SimpleFunction.indicator(g(4), mask)) == v.values[mask]

    def test_measure_gives_plain_integral(self):
        rng = random.Random(47)
        for _ in range(25):
            mu_v = support.random_modular(rng, g(4))
            weights = tuple(mu_v.values[1 << i] for i in range(4))
            f = support.random_simple(rng, g(4))
            expected = sum(
                (x * w for x, w in zip(f.values, weights)), Fraction(0)
            )
            assert choquet(mu_v, f) == expected

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=9, max_denominator=5),
            min_size=7, max_size=7,
        ),
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=5),
            min_size=3, max_size=3,
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    def test_translation_rule(self, tail, fvals, shift):
        v = SetFunction(g(3), tuple([Fraction(0)] + tail))
        f = SimpleFunction(g(3), tuple(fvals))
        top = v.values[g(3).full_mask]
        assert choquet(v, f + shift) == choquet(v, f) + shift * top


class TestChoquetSupRepresentation:
    def test_capped_cardinality_example(self):
        # Independent oracle: literal sweep over all 24 chains.
        v = capped(4, 2)
        f = fn(4, (3, 1, 1, 0))
        direct = choquet(v, f)
        swept = max(
            extremal_measure(v, c).integral(f.values) for c in all_chains(g(4))
        )
        assert direct == swept == 4
        value, chain = choquet_sup_representation(v, f)
        assert value == 4
        assert extremal_measure(v, chain).integral(f.values) == 4

    def test_constant_function(self):
        v = capped(3, 2)
        f = SimpleFunction.constant(g(3), 7)
        value, _ = choquet_sup_representation(v, f)
        assert value == 7 * v.values[g(3).full_mask]
        for chain in all_chains(g(3)):
            assert extremal_measure(v, chain).integral(f.values) == value

    def test_indicator_reduces_to_subset_sup(self):
        rng = random.Random(53)
        v = support.random_submodular(rng, g(4))
        for mask in g(4).subsets():
            f = SimpleFunction.indicator(g(4), mask)
            assert choquet_sup_representation(v, f)[0] == sup_over_chains(v, mask)[0]

    def test_equals_choquet_for_submodular(self):
        rng = random.Random(59)
        for m in (2, 3, 4):
            for _ in range(20):
                v = support.random_submodular(rng, g(m))
                f = support.random_simple(rng, g(m))
                value, _ = choquet_sup_representation(v, f)
                assert value == choquet(v, f)

    def test_comonotone_chain_attains(self):
        # Decreasing-f order always attains the maximum; ties by index.
        rng = random.Random(61)
        for m in (2, 3, 4, 5, 6):
            for _ in range(10):
                v = support.random_submodular(rng, g(m))
                f = support.random_simple(rng, g(m))
                from chainrep import Chain
                value, _ = choquet_sup_representation(v, f)
                # Either tie-break among equal values attains the maximum.
                for tiebreak in (1, -1):
                    order = sorted(
                        range(m), key=lambda i: (-f.values[i], tiebreak * i)
                    )
                    commono = Chain(g(m), tuple(order))
                    assert extremal_measure(v, commono).integral(f.values) == value

    def test_rejects_non_submodular(self):
        f = SimpleFunction.constant(GROUND, 1)
        with pytest.raises(NotSubmodular):
            choquet_sup_representation(V0, f)

    def test_refusal_names_the_exchange_witness_by_its_labels(self):
        # v = |A|^2 on {x, y, z}: the first exchange triple is x, y over {}.
        ground = GroundSet(("x", "y", "z"))
        v = SetFunction.from_callable(ground, lambda s: bin(s).count("1") ** 2)
        with pytest.raises(NotSubmodular) as info:
            choquet_sup_representation(v, SimpleFunction.constant(ground, 1))
        assert str(info.value).endswith(
            "exchange violation v({x}) + v({y}) < v({x,y}) + v({})")

    def test_matches_literal_sweep_value_and_witness(self):
        # f drawn from a pool of three values: ties, negatives, thirds.
        rng = random.Random(97)
        for m in (2, 3, 4, 5, 6):
            for k in range(8 if m < 6 else 3):
                v = support.random_submodular(rng, g(m))
                pool = [Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
                        for _ in range(3)]
                if k % 2:
                    pool[0] = -abs(pool[0]) - Fraction(1, 3)
                f = SimpleFunction(g(m), tuple(rng.choice(pool) for _ in range(m)))
                value, chain = choquet_sup_representation(v, f)
                want, want_chain = support.brute_choquet_sup(v, f)
                assert (value, chain) == (want, want_chain), (m, v.values, f.values)

    def test_refusal_order(self):
        # No size refusal: the 2^m path DP answers at every ground size, so
        # the refusals left are, in order, a foreign ground set, a
        # non-submodular v and a non-monotone v.
        def card(s):
            return bin(s).count("1")
        one = SimpleFunction.constant(g(10), 1)
        square = SetFunction.from_callable(g(10), lambda s: card(s) ** 2)
        with pytest.raises(NotSubmodular):
            choquet_sup_representation(square, one)
        with pytest.raises(ValueError, match="different ground sets"):
            choquet_sup_representation(square, SimpleFunction.constant(g(9), 1))
        # Convex up to 9 elements, then down to 0: neither submodular nor monotone.
        dip = SetFunction.from_callable(g(10), lambda s: card(s) ** 2 % 100)
        with pytest.raises(NotSubmodular):
            choquet_sup_representation(dip, one)
        tent = SetFunction.from_callable(g(10), lambda s: card(s) * (10 - card(s)))
        assert is_submodular(tent)[0]
        with pytest.raises(NonMonotoneAlongChain):
            choquet_sup_representation(tent, one)
        rng = random.Random(101)
        for m in (12, 16):
            v = support.wide_capped_sum(rng, g(m))
            f = SimpleFunction(g(m), tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 3)))
                                          for _ in range(m)))
            value, chain = choquet_sup_representation(v, f)
            assert value == choquet(v, f)
            # The chain is checked by telescoping v along it, without the DP.
            assert extremal_measure(v, chain).integral(f.values) == value

    def test_refuses_an_integrand_on_another_ground_set(self):
        # The same refusal as choquet's, not a chain of the wrong ground set.
        v = SetFunction.from_callable(GroundSet(("1", "2")), lambda s: 2 * bin(s).count("1"))
        f = SimpleFunction(GroundSet(("a", "b")), (Fraction(1), Fraction(1)))
        for integral in (choquet, choquet_sup_representation):
            with pytest.raises(ValueError, match="^set function and integrand live on "
                                                 "different ground sets$"):
                integral(v, f)

    def test_rejects_non_monotone_submodular(self):
        v = SetFunction(g(2), (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
        with pytest.raises(NonMonotoneAlongChain):
            choquet_sup_representation(v, SimpleFunction.constant(g(2), 1))


class TestRiskMeasure:
    def test_nonnegative_f_gives_nonpositive_risk(self):
        rng = random.Random(67)
        for _ in range(30):
            v = support.random_submodular(rng, g(3))
            if v.values[g(3).full_mask] == 0:
                continue
            f = support.random_simple(rng, g(3), lo=0, hi=6)
            assert risk_measure(v, f) <= 0

    def test_translation(self):
        rng = random.Random(71)
        v = support.random_capped_sum(rng, g(4))
        while v.values[g(4).full_mask] == 0:
            v = support.random_capped_sum(rng, g(4))
        f = support.random_simple(rng, g(4))
        for a in (Fraction(3), Fraction(-5, 2)):
            assert risk_measure(v, f + a) == risk_measure(v, f) - a

    def test_probability_measure_gives_negated_mean(self):
        weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        from chainrep import DiscreteMeasure
        v = DiscreteMeasure(g(3), weights).as_set_function()
        f = fn(3, (6, -3, 12))
        mean = sum((x * w for x, w in zip(f.values, weights)), Fraction(0))
        assert risk_measure(v, f) == -mean

    def test_zero_total_mass_rejected(self):
        v = SetFunction(g(2), (Fraction(0),) * 4)
        with pytest.raises(ZeroTotalMass):
            risk_measure(v, fn(2, (1, 2)))


class TestMonotoneApproximation:
    def test_spec_example(self):
        f = fn(4, (3, 1, 1, 0))
        assert monotone_approximation(f, 2).values == (2, 1, 1, 0)

    def test_rounds_down_and_caps(self):
        f = fn(3, ("7/3", "1/2", 5))
        f1 = monotone_approximation(f, 1)
        assert f1.values == (Fraction(1), Fraction(1, 2), Fraction(1))
        f3 = monotone_approximation(f, 3)
        assert f3.values == (Fraction(18, 8), Fraction(1, 2), Fraction(3))

    def test_exact_once_dyadic_and_capped(self):
        f = fn(3, ("3/4", "5/2", 2))
        assert monotone_approximation(f, 3).values == f.values

    def test_zero_function(self):
        f = fn(2, (0, 0))
        assert monotone_approximation(f, 4).values == f.values

    def test_pointwise_monotone_in_k(self):
        rng = random.Random(73)
        for _ in range(20):
            f = SimpleFunction(
                g(3),
                tuple(Fraction(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(3)),
            )
            prev = None
            for k in range(1, 8):
                cur = monotone_approximation(f, k)
                assert all(c <= x for c, x in zip(cur.values, f.values))
                if prev is not None:
                    assert all(p <= c for p, c in zip(prev.values, cur.values))
                prev = cur

    def test_rejects_negative(self):
        with pytest.raises(NegativeValues):
            monotone_approximation(fn(2, (-1, 0)), 2)
