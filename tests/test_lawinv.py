"""Distribution-determined functions: quantiles, products, spectra."""

import random
from fractions import Fraction

import pytest

from chainrep import (
    AlphaOutOfRange,
    BetaOutOfRange,
    ChainConditionError,
    DiscreteMeasure,
    GroundSet,
    NegativeValues,
    NotComonotone,
    SearchTooLarge,
    SimpleFunction,
    StepDistribution,
    TiedDensities,
    WeightedSpace,
    ZeroTotalMass,
    choquet,
    choquet_product_formula,
    comonotone_attainment,
    comonotone_check,
    cvar_component,
    distribution_of_density,
    distribution_of_function,
    domination_report,
    is_monotone,
    is_submodular,
    kusuoka_measure,
    quantile,
    rearrangement_sup,
    spectral_decomposition_check,
    v_mu,
    v_mu_integral,
    v_mu_set_function,
    v_mu_via_quantile,
)
from chainrep import lawinv, setfn
from chainrep.lawinv import distribution_integral, quantile_integral

import support
from support import equal_distribution_densities


def g(m):
    return GroundSet.of_size(m)


def counting_space(density):
    m = len(density)
    return WeightedSpace.counting(g(m), tuple(Fraction(x) for x in density))


def fn(ground, values):
    return SimpleFunction(ground, tuple(Fraction(x) for x in values))


TWO_ZERO = counting_space((2, 0))  # the {a, b} workhorse example


class TestDistribution:
    def test_two_element_example(self):
        dist = distribution_of_density(TWO_ZERO)
        assert dist.breakpoints == (Fraction(0), Fraction(2))
        assert dist.levels == (Fraction(1), Fraction(2))
        assert dist.value_at(0) == 1
        assert dist.value_at(Fraction(3, 2)) == 1
        assert dist.value_at(2) == 2

    def test_constant_density(self):
        dist = distribution_of_density(counting_space((3, 3)))
        assert dist.breakpoints == (Fraction(3),)
        assert dist.levels == (Fraction(2),)
        assert dist.value_at(Fraction(5, 2)) == 0

    def test_strictly_increasing_density_counts(self):
        dist = distribution_of_density(counting_space((1, 2, 3)))
        for y in range(4):
            expected = sum(1 for d in (1, 2, 3) if d <= y)
            assert dist.value_at(y) == expected

    def test_zero_weight_elements_dropped(self):
        nu = DiscreteMeasure(g(3), (Fraction(1), Fraction(0), Fraction(2)))
        w = WeightedSpace(g(3), nu, (Fraction(5), Fraction(7), Fraction(5)))
        dist = distribution_of_density(w)
        assert dist.breakpoints == (Fraction(5),)
        assert dist.levels == (Fraction(3),)

    def test_rejects_negative_values(self):
        nu = DiscreteMeasure(g(2), (Fraction(1), Fraction(1)))
        with pytest.raises(NegativeValues):
            distribution_of_function(nu, (Fraction(-1), Fraction(0)))


class TestQuantile:
    def test_spec_example(self):
        dist = StepDistribution((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
        assert quantile(dist, 0) == 1
        assert quantile(dist, Fraction(3, 2)) == 1
        assert quantile(dist, 2) == 3
        assert quantile(dist, Fraction(7, 2)) == 3

    def test_constant_density(self):
        dist = distribution_of_density(counting_space((4, 4, 4)))
        for beta in (0, 1, Fraction(5, 2)):
            assert quantile(dist, beta) == 4

    def test_out_of_range(self):
        dist = distribution_of_density(TWO_ZERO)
        with pytest.raises(BetaOutOfRange):
            quantile(dist, 2)
        with pytest.raises(BetaOutOfRange):
            quantile(dist, -1)

    def test_rectangle_identities(self):
        rng = random.Random(109)
        for _ in range(40):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            dist = distribution_of_density(w)
            for a, alpha in zip(dist.breakpoints, dist.levels):
                lhs = quantile_integral(dist, 0, alpha) + distribution_integral(dist, a)
                assert lhs == a * alpha
                # Upper rectangle: top-mass integral of the inverse vs the
                # survival integral beyond a.
                surv = sum(
                    (end - start) * s
                    for start, end, s in dist.survival_segments()
                    if start >= a
                )
                upper = quantile_integral(dist, alpha, dist.total) - surv
                assert upper == a * (dist.total - alpha)


class TestVMu:
    def test_two_element_example(self):
        ground = TWO_ZERO.ground
        assert v_mu(TWO_ZERO, ground.mask_of(["1"])) == 2
        assert v_mu(TWO_ZERO, ground.mask_of(["2"])) == 2
        assert v_mu(TWO_ZERO, ground.full_mask) == 2
        assert v_mu(TWO_ZERO, 0) == 0

    def test_constant_density_is_scaled_measure(self):
        rng = random.Random(113)
        for _ in range(10):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            c = Fraction(rng.randint(1, 5))
            w = WeightedSpace(w.ground, w.nu, (c,) * m)
            for mask in w.ground.subsets():
                assert v_mu(w, mask) == c * w.nu.mass(mask)

    def test_monotone_submodular_with_right_boundaries(self):
        rng = random.Random(127)
        for _ in range(25):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            v = v_mu_set_function(w)
            assert v.values[0] == 0
            assert v.values[w.ground.full_mask] == w.mu_total
            assert is_monotone(v)[0]
            assert is_submodular(v)[0]

    def test_level_set_identity(self):
        # The function agrees with mu on every upper level set of the density.
        rng = random.Random(131)
        for _ in range(25):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            mu = w.mu()
            for y in set(w.density):
                mask = 0
                for i, d in enumerate(w.density):
                    if d > y:
                        mask |= 1 << i
                assert v_mu(w, mask) == mu.mass(mask)

    def test_quantile_route_agrees(self):
        ground = TWO_ZERO.ground
        assert v_mu_via_quantile(TWO_ZERO, ground.mask_of(["1"])) == 2
        assert v_mu_via_quantile(TWO_ZERO, ground.full_mask) == 2
        assert v_mu_via_quantile(TWO_ZERO, 0) == 0
        rng = random.Random(137)
        for _ in range(25):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            for mask in w.ground.subsets():
                assert v_mu(w, mask) == v_mu_via_quantile(w, mask)

    def test_law_invariance(self):
        # Values depend on the subset only through its reference mass.
        rng = random.Random(139)
        w = support.random_weighted_space(rng, g(4), uniform=True)
        v = v_mu_set_function(w)
        by_card = {}
        for mask in w.ground.subsets():
            by_card.setdefault(bin(mask).count("1"), set()).add(v.values[mask])
        assert all(len(vals) == 1 for vals in by_card.values())


class TestProductFormula:
    def test_density_with_itself(self):
        rng = random.Random(149)
        for _ in range(15):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m), uniform=False)
            f = SimpleFunction(w.ground, w.density)
            expected = sum(
                (d * d * wt for d, wt in zip(w.density, w.nu.weights)),
                Fraction(0),
            )
            assert choquet_product_formula(w, f) == expected

    def test_constant_function(self):
        rng = random.Random(151)
        w = support.random_weighted_space(rng, g(3))
        f = SimpleFunction.constant(w.ground, 5)
        assert choquet_product_formula(w, f) == 5 * w.mu_total

    def test_zero_function(self):
        w = TWO_ZERO
        assert choquet_product_formula(w, SimpleFunction.constant(w.ground, 0)) == 0

    def test_matches_direct_choquet(self):
        rng = random.Random(157)
        for _ in range(30):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            f = support.random_simple(rng, g(m), lo=0, hi=7)
            direct = choquet(v_mu_set_function(w), f)
            assert direct == v_mu_integral(w, f)
            assert direct == choquet_product_formula(w, f)

    def test_rejects_negative(self):
        with pytest.raises(NegativeValues):
            choquet_product_formula(TWO_ZERO, fn(TWO_ZERO.ground, (-1, 0)))


class TestComonotone:
    def test_reflexive_and_constant(self):
        f = fn(g(3), (1, 5, 2))
        assert comonotone_check(f, f)
        assert comonotone_check(f, SimpleFunction.constant(g(3), 7))

    def test_crossing_pair(self):
        assert not comonotone_check(fn(g(2), (1, 2)), fn(g(2), (2, 1)))

    def test_matches_sublevel_nesting_definition(self):
        rng = random.Random(163)
        seen = set()
        for _ in range(240):
            m = rng.randint(1, 7)
            # Four values over up to seven elements: ties in both functions.
            f = support.random_simple(rng, g(m), lo=0, hi=3)
            h = support.random_simple(rng, g(m), lo=0, hi=3)
            nested = True
            for y in set(h.values):
                below_h = {i for i in range(m) if h.values[i] <= y}
                for z in set(f.values):
                    below_f = {i for i in range(m) if f.values[i] <= z}
                    if not (below_h <= below_f or below_f <= below_h):
                        nested = False
            assert comonotone_check(f, h) == nested
            tied = len(set(f.values)) < m and len(set(h.values)) < m
            seen.add((m, tied, nested))
        assert {(7, True, True), (7, True, False)} <= seen


class TestEqualDistributionClass:
    def test_uniform_distinct_gives_all_permutations(self):
        w = counting_space((1, 2, 3))
        seen = set(equal_distribution_densities(w))
        assert len(seen) == 6

    def test_weight_constrained_class(self):
        ground = g(3)
        nu = DiscreteMeasure(ground, (Fraction(1), Fraction(1), Fraction(2)))
        w = WeightedSpace(ground, nu, (Fraction(3), Fraction(3), Fraction(5)))
        seen = set(equal_distribution_densities(w))
        assert seen == {
            (Fraction(3), Fraction(3), Fraction(5)),
            (Fraction(5), Fraction(5), Fraction(3)),
        }

    def test_distribution_preserved(self):
        rng = random.Random(167)
        for _ in range(10):
            m = rng.randint(1, 4)
            w = support.random_weighted_space(rng, g(m))
            base = distribution_of_density(w)
            for density in equal_distribution_densities(w):
                other = WeightedSpace(w.ground, w.nu, density)
                alt = distribution_of_density(other)
                assert alt.breakpoints == base.breakpoints
                assert alt.levels == base.levels


class TestRearrangementSup:
    """The mass-vector DP against the literal sweep of the class."""

    def space(self, rng, m, uniform, distinct):
        ground = g(m)
        if uniform:
            nu = (Fraction(rng.choice((1, 2, "1/3"))),) * m
        else:
            nu = tuple(Fraction(rng.choice((0, 1, 2, 3, "1/2", "2/3"))) for _ in range(m))
            if not any(nu):
                nu = (Fraction(1),) + nu[1:]
        if distinct:
            density = tuple(Fraction(x, 3) for x in rng.sample(range(0, 30), m))
        else:
            density = tuple(Fraction(rng.choice((0, 1, "5/3", "7/2"))) for _ in range(m))
        return WeightedSpace(ground, DiscreteMeasure(ground, nu), density)

    def test_matches_literal_sweep_value_and_density(self):
        rng = random.Random(313)
        for m in range(1, 8):
            for trial in range(36 if m < 7 else 8):
                w = self.space(rng, m, uniform=trial % 3 == 0, distinct=trial % 2 == 0)
                # Pools with ties, negatives and thirds; a constant f makes
                # every density optimal, so the witness is the first one.
                pool = ((2,), (-1, 0, 2), (-2, "1/3", 3, "-5/4"))[trial % 3]
                f = fn(w.ground, [rng.choice(pool) for _ in range(m)])
                got = rearrangement_sup(w, f)
                assert got == support.brute_rearrangement_sup(w, f)
                assert isinstance(got[0], Fraction)

    def test_refuses_a_search_past_its_bound(self):
        nu, density, f = support.SEARCH_BOUND_SPACE
        w = WeightedSpace(g(14), DiscreteMeasure(g(14), nu), density)
        with pytest.raises(SearchTooLarge, match=r"^rearrangement_sup: more than 524288 "):
            rearrangement_sup(w, fn(w.ground, f))

    def test_uniform_sixteen_elements_still_answer(self):
        # Distinct densities on a uniform nu: the completion is forced from
        # the first element on, so no mass vector is memoized. The witness
        # is the sorted pairing; tied f take levels in index order.
        density, f = range(1, 17), [(7 * i) % 16 // 2 for i in range(16)]
        w = WeightedSpace.counting(g(16), density)
        value, best = rearrangement_sup(w, fn(w.ground, f))
        assert value == sum(a * b for a, b in zip(sorted(f), density))
        want = [0] * 16
        for level, i in zip(density, sorted(range(16), key=lambda i: (f[i], i))):
            want[i] = level
        assert best == tuple(want)

    def test_forced_tail_matches_literal_sweep(self):
        """A head of mixed masses, then a tail of one mass whose completion is forced.

        The tail has at least two elements (one at m = 1), zero-weight
        elements among them, tied f, and densities drawn with ties.
        """
        rng = random.Random(331)
        for m in range(1, 8):
            for _ in range(30 if m < 7 else 10):
                unit = Fraction(rng.choice((1, 2, "1/2")))
                tail = rng.randint(min(m, 2), m)
                zeros = rng.randint(0, m - tail)
                others = [Fraction(x) for x in (1, 2, 3, "1/2", "2/3") if Fraction(x) != unit]
                head = [rng.choice(others + [unit, Fraction(0)]) for _ in range(m - tail - zeros)]
                if head:
                    head[-1] = rng.choice(others)  # the tail starts right after it
                rest = [unit] * (tail - 1) + [Fraction(0)] * zeros
                rng.shuffle(rest)
                nu = tuple(head + [unit] + rest)
                density = tuple(Fraction(rng.choice((0, 1, "5/3", 3))) for _ in range(m))
                w = WeightedSpace(g(m), DiscreteMeasure(g(m), nu), density)
                f = fn(w.ground, [rng.choice((0, 1, 1, 2, "-1/2")) for _ in range(m)])
                assert rearrangement_sup(w, f) == support.brute_rearrangement_sup(w, f)

    def test_forced_completion_searches_nothing(self, monkeypatch):
        monkeypatch.setattr(lawinv, "_SEARCH_LIMIT", 0)
        density, f = range(1, 17), [(5 * i) % 16 for i in range(16)]
        w = WeightedSpace.counting(g(16), density)
        value, _ = rearrangement_sup(w, fn(w.ground, f))
        assert value == sum(a * b for a, b in zip(sorted(f), density))
        # One heavier first element: it is outside the forced tail.
        nu = DiscreteMeasure(w.ground, (Fraction(2),) + (Fraction(1),) * 15)
        w = WeightedSpace(w.ground, nu, w.density)
        with pytest.raises(SearchTooLarge, match=r"^rearrangement_sup: more than 0 "):
            rearrangement_sup(w, fn(w.ground, f))

    def test_search_limit_counts_vectors_not_lookups(self, monkeypatch):
        # A head of one element before a forced tail memoizes one vector,
        # which the forward pass then reads back: a bound of 1 admits it.
        ground = g(4)
        w = WeightedSpace(ground, DiscreteMeasure(ground, (2, 1, 1, 1)), (1, 1, 2, 3))
        f = fn(ground, (1, 3, 0, 2))
        want = support.brute_rearrangement_sup(w, f)
        monkeypatch.setattr(lawinv, "_SEARCH_LIMIT", 1)
        assert rearrangement_sup(w, f) == want
        monkeypatch.setattr(lawinv, "_SEARCH_LIMIT", 0)
        with pytest.raises(SearchTooLarge):
            rearrangement_sup(w, f)

    def test_uniform_three_hundred_elements_in_closed_form(self, monkeypatch):
        # Tied f and tied densities on a uniform nu: the whole space is the
        # forced tail, so nothing is searched. Sorted by (f, index), the
        # elements take the sorted densities, so equal gains take
        # ascending levels in index order.
        monkeypatch.setattr(setfn, "MAX_GROUND_SIZE", 300)
        monkeypatch.setattr(lawinv, "_SEARCH_LIMIT", 0)
        m = 300
        density = [Fraction(i % 7, 2) for i in range(m)]
        f = [Fraction((11 * i) % 13) for i in range(m)]
        ground = g(m)
        w = WeightedSpace(ground, DiscreteMeasure(ground, (Fraction(2, 3),) * m), density)
        value, best = rearrangement_sup(w, fn(ground, f))
        assert value == Fraction(2, 3) * sum(a * b for a, b in zip(sorted(f), sorted(density)))
        want = [None] * m
        for level, i in zip(sorted(density), sorted(range(m), key=lambda i: (f[i], i))):
            want[i] = level
        assert best == tuple(want)
        ties = [i for i in range(m) if f[i] == 5]
        assert len({best[i] for i in ties}) > 1
        assert [best[i] for i in ties] == sorted(best[i] for i in ties)

    def test_tail_ties_spanning_levels_match_literal_sweep(self):
        """A general head, then a tail of one mass whose tied gains span levels.

        The tail elements share f, so their gains tie, and their densities
        are distinct: the first best density gives each tie group its slots
        smallest level first, in index order.
        """
        rng = random.Random(347)
        spans = 0
        for trial in range(60):
            m = rng.randint(4, 7)
            tail = rng.randint(3, m - 1)
            unit = Fraction(rng.choice((1, "1/2")))
            head = [Fraction(rng.choice((2, 3, "3/2", 0))) for _ in range(m - tail - 1)]
            nu = tuple(head + [Fraction(rng.choice((2, 3, "3/2")))] + [unit] * tail)
            density = [Fraction(rng.choice((0, 1, 2, 4, "7/3"))) for _ in range(m - tail)]
            density += [Fraction(x) for x in rng.sample((0, 1, 2, 4, 5, "7/3"), tail)]
            w = WeightedSpace(g(m), DiscreteMeasure(g(m), nu), tuple(density))
            tie = Fraction(rng.choice((1, 2)))
            f = [Fraction(rng.randint(0, 3)) for _ in range(m - tail)]
            f += [tie if rng.random() < 0.7 else Fraction(rng.randint(0, 3)) for _ in range(tail)]
            f = fn(w.ground, f)
            got = rearrangement_sup(w, f)
            assert got == support.brute_rearrangement_sup(w, f)
            tied = [got[1][i] for i in range(m - tail, m) if f.values[i] == tie]
            spans += len(set(tied)) > 1
        assert spans >= 20


class TestComonotoneAttainment:
    def test_density_with_itself(self):
        w = counting_space((1, 4, 2))
        f = SimpleFunction(w.ground, w.density)
        triple = comonotone_attainment(w, f)
        assert triple == (Fraction(21),) * 3  # 1 + 16 + 4

    def test_constant_function(self):
        w = counting_space((1, 4, 2))
        f = SimpleFunction.constant(w.ground, 3)
        triple = comonotone_attainment(w, f)
        assert triple == (3 * w.mu_total,) * 3

    def test_ties_rejected(self):
        w = counting_space((1, 1, 2))
        with pytest.raises(TiedDensities):
            comonotone_attainment(w, SimpleFunction.constant(w.ground, 1))

    def test_ties_with_zero_weight_elements_allowed(self):
        # A zero-weight element changes no mass or integral, so its density
        # may tie; a tie between two positive weights is still refused.
        ground = g(3)
        w = WeightedSpace(ground, DiscreteMeasure(ground, (1, 1, 0)), (1, 2, 2))
        f = fn(ground, (1, 2, 5))
        assert support.brute_v_mu_integral(w, f) == 5
        assert support.brute_rearrangement_sup(w, f)[0] == 5
        assert comonotone_attainment(w, f) == (Fraction(5),) * 3
        ground = g(4)
        w = WeightedSpace(ground, DiscreteMeasure(ground, (1, 1, 0, 0)), (1, 2, 3, 3))
        f = fn(ground, (1, 2, 4, 3))
        want = support.brute_v_mu_integral(w, f)
        assert support.brute_rearrangement_sup(w, f)[0] == want
        assert comonotone_attainment(w, f) == (want,) * 3
        w = WeightedSpace(ground, DiscreteMeasure(ground, (1, 1, 0, 0)), (2, 2, 1, 3))
        with pytest.raises(TiedDensities):
            comonotone_attainment(w, SimpleFunction.constant(ground, 1))

    def test_crossing_rejected(self):
        w = counting_space((1, 2))
        with pytest.raises(NotComonotone):
            comonotone_attainment(w, fn(w.ground, (5, 0)))

    def test_image_missing_a_subset_mass_refused(self):
        ground = g(2)
        nu = DiscreteMeasure(ground, (Fraction(1), Fraction(2)))
        w = WeightedSpace(ground, nu, (Fraction(1), Fraction(2)))
        with pytest.raises(ChainConditionError):
            comonotone_attainment(w, fn(ground, (0, 1)))

    def test_relaxed_mode_checks_image(self):
        ground = g(2)
        nu = DiscreteMeasure(ground, (Fraction(1), Fraction(2)))
        # Density (0, 2): level masses are 1 and 2, cumulative 1 then 3,
        # but nu's subset masses include 2, which F never takes.
        w = WeightedSpace(ground, nu, (Fraction(2), Fraction(0)))
        with pytest.raises(ChainConditionError):
            comonotone_attainment(w, fn(ground, (1, 0)))

    def test_relaxed_mode_accepts_matching_image(self):
        ground = g(2)
        nu = DiscreteMeasure(ground, (Fraction(1), Fraction(2)))
        # Density increasing against the heavier tail: image of F is
        # {0, 1, 3}... still missing 2 -> build a genuinely valid one.
        nu2 = DiscreteMeasure(ground, (Fraction(1), Fraction(1)))
        w = WeightedSpace(ground, nu2, (Fraction(3), Fraction(1)))
        triple = comonotone_attainment(w, fn(ground, (2, 0)))
        assert triple[0] == triple[1] == triple[2] == 6

    def test_random_aligned_instances(self):
        rng = random.Random(173)
        for _ in range(40):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m), distinct=True, uniform=True)
            f = support.comonotone_partner(rng, w)
            a, b, c = comonotone_attainment(w, f)
            assert a == b == c

    def test_uniform_reference_with_a_zero_density(self):
        # F(0) = 1 already, and the empty level set carries nu-mass 0.
        w = counting_space((0, 1))
        assert comonotone_attainment(w, fn(w.ground, (0, 2))) == (Fraction(2),) * 3

    def test_zero_weight_elements(self):
        ground = g(3)
        w = WeightedSpace(ground, DiscreteMeasure(ground, (1, 1, 0)), (1, 2, 3))
        assert comonotone_attainment(w, fn(ground, (1, 2, 5))) == (Fraction(5),) * 3
        rng = random.Random(8311)
        zero_weight = 0
        for _ in range(60):
            m = rng.randint(1, 6)
            c = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
            weights = [rng.choice((0, c)) for _ in range(m)]
            weights[rng.randrange(m)] = c
            density = [Fraction(x, rng.choice((1, 3))) for x in rng.sample(range(40), m)]
            if len(set(density)) != m:
                continue
            zero_weight += 0 in weights
            w = WeightedSpace(g(m), DiscreteMeasure(g(m), tuple(weights)), tuple(density))
            f = support.comonotone_partner(rng, w)
            want = support.brute_v_mu_integral(w, f)
            if m <= 5:
                assert support.brute_rearrangement_sup(w, f)[0] == want
            assert comonotone_attainment(w, f) == (want,) * 3
        assert zero_weight >= 20


class TestDomination:
    def test_weight_locked_strict_gap(self):
        ground = g(2)
        nu = DiscreteMeasure(ground, (Fraction(1), Fraction(2)))
        w = WeightedSpace(ground, nu, (Fraction(2), Fraction(0)))
        report = domination_report(w, fn(ground, (0, 1)))
        assert report.choquet_value == 2
        assert report.rearrangement_supremum == 0
        assert report.paired_integral == 0
        assert report.gap_to_supremum == 2

    def test_anti_aligned_instances_dominated(self):
        rng = random.Random(179)
        strict_seen = False
        for _ in range(40):
            m = rng.randint(2, 5)
            w = support.random_weighted_space(rng, g(m), distinct=True)
            f = support.comonotone_partner(rng, w, anti=True)
            report = domination_report(w, f)
            assert report.choquet_value >= report.rearrangement_supremum
            assert report.rearrangement_supremum >= report.paired_integral
            if report.gap_to_paired > 0:
                strict_seen = True
        assert strict_seen

    def test_arbitrary_nonnegative_f_dominated(self):
        rng = random.Random(211)
        for _ in range(30):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            f = support.random_simple(rng, g(m), lo=0, hi=6)
            report = domination_report(w, f)  # raises if domination fails
            assert report.gap_to_supremum >= 0

    def test_paired_integral_is_the_mu_integral_with_zero_weights(self):
        # The pairing of f with the space's own density, against mu; an
        # anti-aligned f leaves it strictly below the supremum.
        rng = random.Random(353)
        strict = 0
        for trial in range(40):
            m = rng.randint(2, 7)
            weights = [Fraction(rng.choice((0, 0, 1, 2, "1/3", "5/2"))) for _ in range(m)]
            weights[rng.randrange(m)] = Fraction(rng.choice((1, "2/3")))
            density = [Fraction(rng.randint(0, 9), rng.choice((1, 2))) for _ in range(m)]
            w = WeightedSpace(g(m), DiscreteMeasure(g(m), tuple(weights)), tuple(density))
            f = (support.comonotone_partner(rng, w, anti=True) if trial % 2
                 else support.random_simple(rng, g(m), lo=0, hi=6))
            report = domination_report(w, f)
            assert report.paired_integral == w.mu().integral(f.values)
            assert isinstance(report.paired_integral, Fraction)
            strict += report.paired_integral < report.rearrangement_supremum
        assert strict >= 10

    def test_sup_attained_by_some_rearrangement(self):
        rng = random.Random(181)
        w = support.random_weighted_space(rng, g(4), distinct=True, uniform=True)
        f = support.random_simple(rng, g(4), lo=0, hi=5)
        sup, best = rearrangement_sup(w, f)
        integral = sum(
            (fv * d * wt for fv, d, wt in zip(f.values, best, w.nu.weights)),
            Fraction(0),
        )
        assert integral == sup


class TestKusuoka:
    def test_constant_density_single_atom(self):
        spectral = kusuoka_measure(counting_space((3, 3)))
        assert spectral.atoms == ((Fraction(1), Fraction(1)),)

    def test_two_element_example(self):
        spectral = kusuoka_measure(TWO_ZERO)
        assert spectral.atoms == ((Fraction(1, 2), Fraction(1)),)

    def test_mass_sums_to_one(self):
        rng = random.Random(191)
        for _ in range(30):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            if w.mu_total == 0:
                continue
            spectral = kusuoka_measure(w)
            assert sum((mass for _, mass in spectral.atoms), Fraction(0)) == 1

    def test_tail_harmonic_matches_quantile(self):
        rng = random.Random(193)
        for _ in range(30):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            if w.mu_total == 0:
                continue
            spectral = kusuoka_measure(w)
            dist = distribution_of_density(w)
            nu_total = w.nu.total
            gammas = {Fraction(0)} | {
                1 - alpha for alpha, _ in spectral.atoms if alpha < 1
            }
            for gamma in gammas:
                lhs = spectral.tail_harmonic(gamma)
                rhs = nu_total / w.mu_total * dist.quantile(nu_total * gamma)
                assert lhs == rhs, (w.density, w.nu.weights, gamma)

    def test_atom_at_one_from_positive_minimum(self):
        spectral = kusuoka_measure(counting_space((1, 3)))
        # Survival is 2 on [0,1) and 1 on [1,3): atoms at 1 and 1/2.
        assert spectral.atoms == (
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        )


class TestCvarComponent:
    def test_alpha_one_is_scaled_mean(self):
        rng = random.Random(197)
        for _ in range(20):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            f = support.random_simple(rng, g(m), lo=0, hi=6)
            mean = w.nu.integral(f.values)
            assert cvar_component(w, f, 1) == w.mu_total / w.nu.total * mean

    def test_hand_evaluated_tail(self):
        w = counting_space((1, 1))
        f = fn(w.ground, (3, 1))
        assert cvar_component(w, f, 1) == 4
        assert cvar_component(w, f, Fraction(1, 2)) == 6  # mu-total times max

    def test_zero_function(self):
        w = counting_space((2, 5))
        assert cvar_component(w, SimpleFunction.constant(w.ground, 0), Fraction(1, 3)) == 0

    def test_alpha_range(self):
        w = counting_space((2, 5))
        f = SimpleFunction.constant(w.ground, 1)
        for bad in (Fraction(0), Fraction(-1), Fraction(3, 2)):
            with pytest.raises(AlphaOutOfRange):
                cvar_component(w, f, bad)


class TestSpectralDecomposition:
    def test_two_element_example(self):
        report = spectral_decomposition_check(TWO_ZERO, fn(TWO_ZERO.ground, (1, 0)))
        assert report.direct == report.by_components == 2

    def test_constant_density_reduces_to_mean(self):
        w = counting_space((3, 3, 3))
        f = fn(w.ground, (1, 4, 0))
        report = spectral_decomposition_check(w, f)
        assert len(report.components) == 1
        assert report.direct == cvar_component(w, f, 1)

    def test_random_instances(self):
        rng = random.Random(199)
        for _ in range(40):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            if w.mu_total == 0:
                continue
            f = support.random_simple(rng, g(m), lo=0, hi=6)
            report = spectral_decomposition_check(w, f)
            assert report.agrees

    def test_components_are_the_tail_components(self):
        rng = random.Random(200)
        for _ in range(20):
            m = rng.randint(1, 5)
            w = support.random_weighted_space(rng, g(m))
            if w.mu_total == 0:
                continue
            f = support.random_simple(rng, g(m), lo=0, hi=6)
            for alpha, _mass, value in spectral_decomposition_check(w, f).components:
                assert value == cvar_component(w, f, alpha)


class TestCaches:
    def test_space_caches_leave_equality_and_hash(self):
        rng = random.Random(7481)
        w = support.random_weighted_space(rng, g(5))
        fresh = WeightedSpace(w.ground, w.nu, w.density)
        f = support.random_simple(rng, g(5), lo=0, hi=6)
        spectral_decomposition_check(w, f)
        v_mu_set_function(w)
        assert kusuoka_measure(w) is kusuoka_measure(w)
        assert distribution_of_density(w) is distribution_of_density(w)
        assert w == fresh and hash(w) == hash(fresh)
        assert kusuoka_measure(w) == kusuoka_measure(fresh)

    def test_image_built_distribution_equals_the_checked_one(self):
        nu = DiscreteMeasure(g(4), (Fraction(1), Fraction(0), Fraction(2, 3), Fraction(1)))
        dist = distribution_of_function(nu, (Fraction(3), Fraction(1), Fraction(1, 2), 3))
        checked = StepDistribution(dist.breakpoints, dist.levels)
        assert dist == checked and hash(dist) == hash(checked)
        assert dist.breakpoints == (Fraction(1, 2), Fraction(3))
        assert dist.levels == (Fraction(2, 3), Fraction(8, 3))
        for z in (0, Fraction(1, 2), 1, 3, 4):
            assert dist.value_at(z) == checked.value_at(z)


class TestFractionOracles:
    """The integer image against the Fraction layer it replaced, at m = 1..7.

    Lookups and integrals are probed at every breakpoint and level, where a
    bisect on the wrong side of a tie would show, and between them.
    """

    @staticmethod
    def cases(seed):
        rng = random.Random(seed)
        for m in range(1, 8):
            yield from support.lawinv_edge_inputs(rng, m)

    @staticmethod
    def probes(points, total):
        """Each point, the midpoints between them, and one point past the last."""
        pts = sorted(set(points))
        mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        return pts + mids + [pts[-1] + 1, Fraction(0), total / 3]

    def test_distributions_and_lookups(self):
        for w, fs in self.cases(7411):
            dists = [(distribution_of_density(w), support.brute_distribution(w.nu, w.density))]
            dists += [(distribution_of_function(w.nu, f.values),
                       support.brute_distribution(w.nu, f.values))
                      for f in fs if f.is_nonnegative()]
            # Built by the checked constructor: a breakpoint at 0 and
            # repeated levels, which no distribution of a function has.
            bps, lvs = dists[0][1]
            bps = (Fraction(0),) + tuple(b + 1 for b in bps)
            lvs = (lvs[0],) + lvs
            dists.append((StepDistribution(bps, lvs), (bps, lvs)))
            for dist, brute in dists:
                assert (dist.breakpoints, dist.levels) == brute
                assert dist.survival_segments() == support.brute_survival_segments(brute)
                assert dist.quantile_segments() == support.brute_quantile_segments(brute)
                for z in self.probes(brute[0], brute[1][-1]):
                    assert dist.value_at(z) == support.brute_value_at(brute, z)
                    assert distribution_integral(dist, z) == \
                        support.brute_distribution_integral(brute, z)
                betas = [b for b in self.probes(brute[1], brute[1][-1]) if b < dist.total]
                for beta in betas:
                    assert quantile(dist, beta) == support.brute_quantile(brute, beta)
                ends = betas + [dist.total]
                for lo in ends:
                    for hi in ends:
                        if lo <= hi:
                            assert quantile_integral(dist, lo, hi) == \
                                support.brute_quantile_integral(brute, lo, hi)

    def test_set_function_values(self):
        for w, _ in self.cases(7417):
            brute = support.brute_distribution(w.nu, w.density)
            v = v_mu_set_function(w)
            for mask in w.ground.subsets():
                want = support.brute_survival_min_integral(brute, w.nu.mass(mask))
                assert v(mask) == v_mu(w, mask) == v_mu_via_quantile(w, mask) == want

    def test_integral_routes(self):
        for w, fs in self.cases(7433):
            for f in fs:
                want = support.brute_v_mu_integral(w, f)
                assert v_mu_integral(w, f) == want
                if not f.is_nonnegative():
                    continue
                assert choquet_product_formula(w, f) == support.brute_product_formula(w, f)
                assert choquet_product_formula(w, f) == want
                for alpha in (Fraction(1), Fraction(1, 2), Fraction(1, 3 ** 40)):
                    assert cvar_component(w, f, alpha) == \
                        support.brute_tail_component(w, f, alpha)

    def test_spectral_atoms_and_components(self):
        zero_mass = 0
        for w, fs in self.cases(7451):
            if not any(d * x for d, x in zip(w.density, w.nu.weights)):
                zero_mass += 1
                with pytest.raises(ZeroTotalMass, match=r"^spectral measure undefined: "
                                                        r"mu\(full\) = 0$"):
                    kusuoka_measure(w)
                continue
            atoms = support.brute_kusuoka(w)
            assert kusuoka_measure(w).atoms == atoms
            for f in fs:
                if not f.is_nonnegative():
                    continue
                report = spectral_decomposition_check(w, f)
                assert report.components == tuple(
                    (a, mass, support.brute_tail_component(w, f, a)) for a, mass in atoms
                )
                assert report.direct == report.by_components == \
                    support.brute_v_mu_integral(w, f)
        assert zero_mass >= 7  # the zero density, once per m

    def test_domination_and_attainment(self):
        rng = random.Random(7459)
        attained = 0
        for w, fs in self.cases(7457):
            m = w.ground.size
            aligned = support.comonotone_partner(rng, w)
            for f in [f for f in fs if f.is_nonnegative()] + [aligned]:
                # The literal sweep of the class up to m = 5; above, the DP,
                # which TestRearrangementSup checks against it up to m = 7.
                sup, best = (support.brute_rearrangement_sup(w, f) if m <= 5
                             else rearrangement_sup(w, f))
                paired = sum((x * d * wt for x, d, wt in
                              zip(f.values, w.density, w.nu.weights)), Fraction(0))
                choq = support.brute_v_mu_integral(w, f)
                report = domination_report(w, f)
                assert (report.choquet_value, report.rearrangement_supremum,
                        report.best_density, report.paired_integral) == (choq, sup, best, paired)
            if len(set(w.nu.weights)) == 1 and len(set(w.density)) == m:
                attained += 1
                assert comonotone_attainment(w, aligned) == (choq, paired, sup)
        assert attained >= 7

    def test_refusals_keep_type_and_message(self):
        w = counting_space((2, 0))
        dist = distribution_of_density(w)
        refusals = [
            (lambda: quantile(dist, 2), BetaOutOfRange, "beta must lie in [0, 2), got 2"),
            (lambda: quantile(dist, Fraction(-1, 3)), BetaOutOfRange,
             "beta must lie in [0, 2), got -1/3"),
            (lambda: quantile_integral(dist, 1, Fraction(5, 2)), BetaOutOfRange,
             "integration range must sit inside [0, 2]"),
            (lambda: distribution_integral(dist, -1), ValueError,
             "upper limit must be nonnegative"),
            (lambda: distribution_of_function(DiscreteMeasure.zero(g(2)), (1, 2)),
             ValueError, "need matching nonempty breakpoints and levels"),
            (lambda: distribution_of_function(w.nu, (1, Fraction(-1, 2))), NegativeValues,
             "distribution requires nonnegative values"),
            (lambda: v_mu_integral(w, fn(g(3), (1, 1, 1))), ValueError,
             "integrand lives on a different ground set"),
            (lambda: choquet_product_formula(w, fn(w.ground, (1, -1))), NegativeValues,
             "product formula requires f >= 0"),
            (lambda: cvar_component(w, fn(w.ground, (1, 0)), 0), AlphaOutOfRange,
             "alpha must lie in (0, 1], got 0"),
            (lambda: kusuoka_measure(counting_space((0, 0))), ZeroTotalMass,
             "spectral measure undefined: mu(full) = 0"),
            (lambda: spectral_decomposition_check(w, fn(w.ground, (0, -1))), NegativeValues,
             "spectral decomposition requires f >= 0"),
        ]
        for call, kind, message in refusals:
            with pytest.raises(kind) as info:
                call()
            assert type(info.value) is kind and str(info.value) == message
