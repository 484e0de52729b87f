"""Shared helpers for the test suite: instance generators and slow oracles.

Oracles here deliberately avoid the library's fast paths: quadratic
subset-pair scans and literal permutation sweeps, so the production code
is cross-checked against independent computations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from chainrep import (
    Chain,
    DiscreteMeasure,
    GroundSet,
    SetFunction,
    SimpleFunction,
    WeightedSpace,
    all_chains,
    extremal_measure,
)


# ---------------------------------------------------------------------------
# generators

def random_monotone(rng: random.Random, ground: GroundSet,
                    max_step: int = 9, rational: bool = False) -> SetFunction:
    """Random monotone function: grow each subset over its largest child."""
    m = ground.size
    values = [Fraction(0)] * (1 << m)
    for s in range(1, 1 << m):
        floor = max(values[s ^ (1 << i)] for i in range(m) if s >> i & 1)
        bump = Fraction(rng.randint(0, max_step))
        if rational:
            bump += Fraction(rng.randint(0, 3), rng.randint(1, 4))
        values[s] = floor + bump
    return SetFunction(ground, tuple(values))


def random_coverage(rng: random.Random, ground: GroundSet) -> SetFunction:
    """Weighted coverage function: monotone and submodular."""
    m = ground.size
    universe = m + 3
    weights = [Fraction(rng.randint(0, 6)) for _ in range(universe)]
    covers = [
        {u for u in range(universe) if rng.random() < 0.5} for _ in range(m)
    ]
    def value(mask: int) -> Fraction:
        covered = set()
        for i in range(m):
            if mask >> i & 1:
                covered |= covers[i]
        return sum((weights[u] for u in covered), Fraction(0))
    return SetFunction.from_callable(ground, value)


def random_capped_sum(rng: random.Random, ground: GroundSet) -> SetFunction:
    """Sum of capped measures min(c_k, nu_k(A)): monotone and submodular."""
    m = ground.size
    terms = rng.randint(1, 3)
    parts = []
    for _ in range(terms):
        weights = [Fraction(rng.randint(0, 5)) for _ in range(m)]
        cap = Fraction(rng.randint(0, 10))
        parts.append((weights, cap))
    def value(mask: int) -> Fraction:
        total = Fraction(0)
        for weights, cap in parts:
            mass = sum(
                (weights[i] for i in range(m) if mask >> i & 1), Fraction(0)
            )
            total += min(cap, mass)
        return total
    return SetFunction.from_callable(ground, value)


def random_modular(rng: random.Random, ground: GroundSet) -> SetFunction:
    mu = DiscreteMeasure(
        ground, tuple(Fraction(rng.randint(0, 8)) for _ in range(ground.size))
    )
    return mu.as_set_function()


def random_submodular(rng: random.Random, ground: GroundSet) -> SetFunction:
    pick = rng.randrange(3)
    if pick == 0:
        return random_coverage(rng, ground)
    if pick == 1:
        return random_capped_sum(rng, ground)
    return random_modular(rng, ground)


def random_simple(rng: random.Random, ground: GroundSet,
                  lo: int = -6, hi: int = 6) -> SimpleFunction:
    return SimpleFunction(
        ground, tuple(Fraction(rng.randint(lo, hi)) for _ in range(ground.size))
    )


def random_weighted_space(rng: random.Random, ground: GroundSet,
                          distinct: bool = False,
                          uniform: bool = False) -> WeightedSpace:
    m = ground.size
    if uniform:
        weights = (Fraction(rng.randint(1, 3)),) * m
    else:
        weights = tuple(Fraction(rng.randint(1, 4)) for _ in range(m))
    if distinct:
        pool = rng.sample(range(1, 40), m)
        density = tuple(Fraction(x, rng.choice((1, 2))) for x in pool)
        if len(set(density)) != m:  # halving may collide; retry
            return random_weighted_space(rng, ground, distinct, uniform)
    else:
        density = tuple(Fraction(rng.randint(0, 6)) for _ in range(m))
    return WeightedSpace(ground, DiscreteMeasure(ground, weights), density)


def comonotone_partner(rng: random.Random, w: WeightedSpace,
                       anti: bool = False) -> SimpleFunction:
    """Nonnegative f aligned (or anti-aligned) with the density order."""
    m = w.ground.size
    steps = [Fraction(rng.randint(0, 4)) for _ in range(m)]
    ranks = sorted(range(m), key=lambda i: (w.density[i], i))
    if anti:
        ranks.reverse()
    vals = [Fraction(0)] * m
    acc = Fraction(rng.randint(0, 3))
    for r in ranks:
        vals[r] = acc
        acc += steps[r]
    return SimpleFunction(w.ground, tuple(vals))


# ---------------------------------------------------------------------------
# oracles

def brute_monotone(v: SetFunction) -> bool:
    """Quadratic scan over all nested pairs."""
    subs = list(v.ground.subsets())
    for a in subs:
        for b in subs:
            if a & ~b == 0 and v.values[a] > v.values[b]:
                return False
    return True


def brute_submodular(v: SetFunction) -> bool:
    """Quadratic scan over all subset pairs."""
    subs = list(v.ground.subsets())
    for a in subs:
        for b in subs:
            if v.values[a] + v.values[b] < v.values[a | b] + v.values[a & b]:
                return False
    return True


def brute_supermodular(v: SetFunction) -> bool:
    subs = list(v.ground.subsets())
    for a in subs:
        for b in subs:
            if v.values[a] + v.values[b] > v.values[a | b] + v.values[a & b]:
                return False
    return True


def brute_sup_over_chains(v: SetFunction, mask: int) -> tuple[Fraction, Chain]:
    """Literal sweep over all m! chains; first attaining chain wins."""
    best = None
    witness = None
    for chain in all_chains(v.ground):
        val = extremal_measure(v, chain).mass(mask)
        if best is None or val > best:
            best, witness = val, chain
    return best, witness


def brute_inf_over_chains(v: SetFunction, mask: int) -> tuple[Fraction, Chain]:
    best = None
    witness = None
    for chain in all_chains(v.ground):
        val = extremal_measure(v, chain).mass(mask)
        if best is None or val < best:
            best, witness = val, chain
    return best, witness


def brute_choquet_sup(v: SetFunction, f: SimpleFunction) -> tuple[Fraction, Chain]:
    """Literal sweep over all m! chains of the integral of f; first best chain wins."""
    best = None
    witness = None
    for chain in all_chains(v.ground):
        val = extremal_measure(v, chain).integral(f.values)
        if best is None or val > best:
            best, witness = val, chain
    return best, witness


def frac(x) -> Fraction:
    return Fraction(x)
