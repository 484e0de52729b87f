"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is zero: all comparisons are exact rational equalities or
inequalities. Randomized criteria use fixed seeds so reruns are stable.
"""

import random
import time
from fractions import Fraction

from chainrep import (
    CardinalityProfile,
    GroundSet,
    SimpleFunction,
    choquet,
    dual_transform,
    extremal_measure,
    comonotone_attainment,
    domination_report,
    is_submodular,
    iterate_to_fixed_point,
    kusuoka_measure,
    monotone_approximation,
    choquet_product_formula,
    distribution_of_density,
    recursion_step,
    risk_measure,
    spectral_decomposition_check,
    symmetric_step,
    v_mu_set_function,
    v_mu_via_quantile,
    verify_submodular_equivalence,
    verify_supermodular_equivalence,
    is_monotone,
)
from chainrep.counterexample import GROUND, V0, V1_EXPECTED, V2_EXPECTED

import support
from support import all_chains


def g(m):
    return GroundSet.of_size(m)


def test_criterion_01_golden_table():
    start = time.perf_counter()
    v1 = recursion_step(V0)
    v2 = recursion_step(v1)
    elapsed = time.perf_counter() - start
    mismatches = [
        (row, mask)
        for row, got, want in (("v1", v1, V1_EXPECTED), ("v2", v2, V2_EXPECTED))
        for mask in GROUND.subsets()
        if got.values[mask] != want.values[mask]
    ]
    assert mismatches == []
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden table, 32 derived cells exact in {elapsed:.3f}s")


def test_criterion_02_counterexample_facts():
    trace = iterate_to_fixed_point(V0)
    v1, v2 = trace.iterates[1], trace.iterates[2]
    pair = GROUND.mask_of(["1", "2"])
    assert v1.values[pair] == 17
    assert v2.values[pair] == 18
    assert v1.values[pair] != v2.values[pair]
    lhs = v1.value_by_labels(["1"]) + v1.value_by_labels(["1", "2", "3"])
    rhs = v1.value_by_labels(["1", "2"]) + v1.value_by_labels(["1", "3"])
    assert lhs == 42 and rhs == 41 and lhs > rhs
    assert recursion_step(v2).values == v2.values  # v3 = v2
    assert trace.fixed_point_index == 2
    assert is_submodular(v2)[0] and not is_submodular(v1)[0]
    print("PASS criterion 2: first iterate not submodular, second is the fixed point")


def test_criterion_03_three_element_single_step():
    rng = random.Random(2024)
    trials = 1000
    start = time.perf_counter()
    for _ in range(trials):
        v0 = support.random_monotone(rng, g(3), rational=True)
        v1 = recursion_step(v0)
        v2 = recursion_step(v1)
        assert v2.values == v1.values
        assert is_submodular(v1)[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 3: {trials} random m=3 starts fixed after one step "
          f"in {elapsed:.2f}s")


def test_criterion_04_symmetric_single_step():
    rng = random.Random(4096)
    trials = 105
    for t in range(trials):
        m = 2 + t % 7  # cycles 2..8
        levels = [Fraction(0)]
        for _ in range(m):
            step = Fraction(rng.randint(0, 9))
            if rng.random() < 0.3:
                step += Fraction(rng.randint(0, 2), rng.randint(1, 3))
            levels.append(levels[-1] + step)
        profile = CardinalityProfile(tuple(levels))
        v0 = profile.to_set_function()
        v1 = recursion_step(v0)
        assert symmetric_step(profile).values == v1.values
        assert recursion_step(v1).values == v1.values  # fixed at n <= 1
    print(f"PASS criterion 4: {trials} cardinality profiles over m=2..8, "
          "closed form matches the full step")


def test_criterion_05_equivalence_suite():
    rng = random.Random(505)
    sizes = [2] * 300 + [3] * 250 + [4] * 200 + [5] * 150 + [6] * 100
    rng.shuffle(sizes)
    agree = 0
    for m in sizes:
        v = (
            support.random_submodular(rng, g(m))
            if rng.random() < 0.45
            else support.random_monotone(rng, g(m))
        )
        report = verify_submodular_equivalence(v)
        assert report.consistent, (m, v.values)
        dual_report = verify_supermodular_equivalence(dual_transform(v))
        assert dual_report.consistent
        assert dual_report.booleans == report.booleans
        agree += 1
    assert agree == len(sizes) >= 1000
    print(f"PASS criterion 5: four-way equivalence consistent on {agree} "
          "functions, dual side included")


def test_criterion_06_choquet_chain_representation():
    rng = random.Random(606)
    sizes = [2] * 250 + [3] * 250 + [4] * 200 + [5] * 150 + [6] * 150
    rng.shuffle(sizes)
    for m in sizes:
        v = support.random_submodular(rng, g(m))
        f = support.random_simple(rng, g(m))
        direct = choquet(v, f)
        swept = max(
            extremal_measure(v, chain).integral(f.values)
            for chain in all_chains(g(m))
        )
        assert direct == swept
    print(f"PASS criterion 6: layer integral equals the literal chain maximum "
          f"on {len(sizes)} submodular instances")


def test_criterion_07_coherence_axioms():
    rng = random.Random(707)
    checked = 0
    while checked < 1000:
        m = rng.randint(2, 6)
        v = support.random_submodular(rng, g(m))
        if v.values[g(m).full_mask] == 0:
            continue
        f = support.random_simple(rng, g(m))
        h = support.random_simple(rng, g(m))
        lam = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        shift = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        f_pos = support.random_simple(rng, g(m), lo=0, hi=6)
        assert risk_measure(v, f + h) <= risk_measure(v, f) + risk_measure(v, h)
        assert risk_measure(v, f.scale(lam)) == lam * risk_measure(v, f)
        assert risk_measure(v, f + shift) == risk_measure(v, f) - shift
        assert risk_measure(v, f_pos) <= 0
        checked += 1
    print(f"PASS criterion 7: all four coherence axioms exact on {checked} tuples")


def test_criterion_08_law_invariant_identities():
    rng = random.Random(808)
    trials = 1000
    start = time.perf_counter()
    for _ in range(trials):
        m = rng.randint(2, 6)
        w = support.random_weighted_space(rng, g(m), distinct=True)
        v = v_mu_set_function(w)
        assert is_monotone(v)[0] and is_submodular(v)[0]
        mu = w.mu()
        for y in set(w.density):
            mask = 0
            for i, d in enumerate(w.density):
                if d > y:
                    mask |= 1 << i
            assert v.values[mask] == mu.mass(mask)
        for mask in w.ground.subsets():
            assert v.values[mask] == v_mu_via_quantile(w, mask)
        f = support.random_simple(rng, g(m), lo=0, hi=6)
        assert choquet_product_formula(w, f) == choquet(v, f)
        spectral = kusuoka_measure(w)
        assert sum((mass for _, mass in spectral.atoms), Fraction(0)) == 1
        dist = distribution_of_density(w)
        nu_total = w.nu.total
        for gamma in {Fraction(0)} | {1 - a for a, _ in spectral.atoms if a < 1}:
            lhs = spectral.tail_harmonic(gamma)
            rhs = nu_total / w.mu_total * dist.quantile(nu_total * gamma)
            assert lhs == rhs
        assert spectral_decomposition_check(w, f).agrees
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 8: all distribution identities exact on {trials} "
          f"weighted spaces in {elapsed:.1f}s")


def test_criterion_09_comonotone_attainment():
    rng = random.Random(909)
    aligned = 0
    while aligned < 100:
        m = rng.randint(2, 6)
        w = support.random_weighted_space(rng, g(m), distinct=True, uniform=True)
        f = support.comonotone_partner(rng, w)
        a, b, c = comonotone_attainment(w, f)
        assert a == b == c
        aligned += 1
    anti = 0
    strict = 0
    while anti < 100:
        m = rng.randint(2, 6)
        w = support.random_weighted_space(rng, g(m), distinct=True)
        f = support.comonotone_partner(rng, w, anti=True)
        report = domination_report(w, f)
        assert report.choquet_value >= report.rearrangement_supremum
        assert report.rearrangement_supremum >= report.paired_integral
        if report.gap_to_supremum > 0:
            strict += 1
        anti += 1
    # A weight-locked instance where the strict gap is guaranteed.
    from chainrep import DiscreteMeasure, WeightedSpace
    ground = g(2)
    locked = WeightedSpace(
        ground,
        DiscreteMeasure(ground, (Fraction(1), Fraction(2))),
        (Fraction(2), Fraction(0)),
    )
    locked_report = domination_report(
        locked, SimpleFunction(ground, (Fraction(0), Fraction(1)))
    )
    assert locked_report.gap_to_supremum == 2
    strict += 1
    assert strict >= 1
    print(f"PASS criterion 9: attainment on {aligned} aligned instances, "
          f"domination on {anti + 1} anti-aligned ({strict} strict gaps)")


def test_criterion_10_monotone_approximation():
    rng = random.Random(1010)
    for _ in range(100):
        m = rng.randint(2, 5)
        v = support.random_monotone(rng, g(m))
        exponent = rng.randint(0, 3)
        f = SimpleFunction(
            g(m),
            tuple(
                Fraction(rng.randint(0, 5 << exponent), 1 << exponent)
                for _ in range(m)
            ),
        )
        top = max(f.values)
        threshold = exponent
        while Fraction(threshold) < top or threshold < 1:
            threshold += 1
        target = choquet(v, f)
        prev = None
        for k in range(1, threshold + 3):
            fk = monotone_approximation(f, k)
            val = choquet(v, fk)
            if prev is not None:
                assert prev <= val
            assert val <= target
            if k >= threshold:
                assert fk.values == f.values
                assert val == target
            prev = val
    print("PASS criterion 10: dyadic approximations increase and land exactly "
          "at the threshold on 100 instances")
