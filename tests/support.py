"""Shared helpers for the test suite: instance generators and slow oracles.

Oracles here deliberately avoid the library's fast paths: quadratic
subset-pair scans and literal permutation sweeps, so the production code
is cross-checked against independent computations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

from chainrep import (
    Chain,
    ExchangeWitness,
    DiscreteMeasure,
    GroundSet,
    MonotoneWitness,
    SetFunction,
    SimpleFunction,
    WeightedSpace,
    dual_transform,
    extremal_measure,
    local_core_attainment,
    subset_sums,
)
from chainrep.chains import chain_opt_path, indicator
from chainrep.choquet import layer_decompose
from chainrep.setfn import int_image


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


def wide_capped_sum(rng: random.Random, ground: GroundSet) -> SetFunction:
    """Sum of three capped integer measures, built from subset sums.

    Monotone and submodular like :func:`random_capped_sum`, with a cap of
    at least 1 on each term, and fast enough for 16 elements.
    """
    m = ground.size
    total = [0] * (1 << m)
    for _ in range(3):
        sums = subset_sums([rng.randint(0, 5) for _ in range(m)])
        cap = rng.randint(1, 4 * m)
        total = [t + min(cap, x) for t, x in zip(total, sums)]
    return SetFunction.from_image(ground, total, 1)


def digit_capped_sum(rng: random.Random, ground: GroundSet, digits: int) -> SetFunction:
    """A capped sum like the benchmark's, its weights and caps scaled to ``digits`` digits."""
    m = ground.size
    scale = 10 ** digits
    total = [0] * (1 << m)
    for _ in range(rng.randint(1, 3)):
        sums = subset_sums([rng.randint(0, 5 * scale) for _ in range(m)])
        cap = rng.randint(4 * scale, 12 * scale)
        total = [t + min(cap, x) for t, x in zip(total, sums)]
    return SetFunction.from_image(ground, total, 1)


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


# (nu, density, f) at m = 14 on which the rearrangement DP, unbounded, visits
# about 10.4 M level-mass vectors before its forced two-element tail.
SEARCH_BOUND_SPACE = (
    (47, 23, 24, 6, 15, 7, 15, 31, 13, 22, 14, 31, 40, 40),
    (1, 123, 168, 89, 165, 22, 170, 31, 100, 183, 193, 52, 46, 112),
    (20, 10, 2, 12, 14, 12, 2, 5, 5, 4, 0, 4, 18, 14),
)


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


def route_inputs(seed: int, m: int, count: int):
    """Submodular and generic monotone inputs and their duals.

    The second submodular input adds a modular part in thirds and fifths,
    and the rational generic input mixes denominators 1..4.
    """
    rng = random.Random(seed)
    ground = GroundSet.of_size(m)
    for _ in range(count):
        sub = random_submodular(rng, ground)
        modular = DiscreteMeasure(ground, tuple(
            Fraction(rng.randint(0, 4), rng.choice((1, 3, 5))) for _ in range(m)
        ))
        mixed = SetFunction(ground, tuple(
            x + y for x, y in zip(sub.values, modular.subset_sums())
        ))
        generic = random_monotone(rng, ground)
        rational = random_monotone(rng, ground, rational=True)
        for v in (sub, mixed, generic, rational):
            yield v
            yield dual_transform(v)


# Spans at the byte boundaries of the packed lanes: their bit lengths are 7
# to 17, and lanes are whole bytes of at least bit length + 2 bits.
LANE_SPANS = tuple(s for k in (7, 8, 15, 16) for s in ((1 << k) - 1, 1 << k))
# Numerators of 4000 digits over denominators up to 3^40.
BIG_NUMERATOR, BIG_DENOMINATOR = 10 ** 4000, 3 ** 40


def lane_edge_inputs(rng: random.Random, m: int) -> Iterator[SetFunction]:
    """Inputs at the edges of the lane kernel's width bound.

    The zero function (span 0); for every span in ``LANE_SPANS`` a function
    taking negative and non-monotone values whose minimum and maximum are
    exactly that span apart, mostly at the two extremes so that exchange
    sums reach +-2 span, and two monotone extremes, span * [A nonempty]
    (submodular) and span * [A holds the first two elements] (supermodular,
    and not submodular already at the empty base); and a non-monotone and
    a monotone function with 4000-digit numerators over random denominators
    up to 3^40, whose integer images have 4000 digits or more.
    """
    ground = GroundSet.of_size(m)
    n = 1 << m
    yield SetFunction(ground, (Fraction(0),) * n)
    yield from span_edge_inputs(rng, m, LANE_SPANS)
    yield SetFunction(ground, tuple([Fraction(0)] + [
        Fraction(rng.choice((-1, 1)) * rng.randint(BIG_NUMERATOR, 2 * BIG_NUMERATOR),
                 rng.randint(1, BIG_DENOMINATOR))
        for _ in range(n - 1)
    ]))
    values = [Fraction(0)] * n
    for s in range(1, n):
        floor = max(values[s ^ (1 << i)] for i in range(m) if s >> i & 1)
        bump = rng.randint(BIG_NUMERATOR, 2 * BIG_NUMERATOR)
        values[s] = floor + Fraction(bump, rng.randint(1, BIG_DENOMINATOR))
    yield SetFunction(ground, tuple(values))


def span_edge_inputs(rng: random.Random, m: int, spans) -> Iterator[SetFunction]:
    """Per span (at least 2), the three span-wide functions of :func:`lane_edge_inputs`."""
    ground = GroundSet.of_size(m)
    n = 1 << m
    for span in spans:
        lo = rng.choice((0, -span, -rng.randint(1, span - 1)))
        values = [rng.choice((lo, lo + span, rng.randint(lo, lo + span))) for _ in range(n)]
        values[0] = 0
        if n == 2:
            values[1] = lo if lo else span
        else:
            low, high = rng.sample(range(1, n), 2)
            values[low], values[high] = lo, lo + span
        yield SetFunction(ground, tuple(values))
        yield SetFunction.from_callable(ground, lambda s: span if s else 0)
        yield SetFunction.from_callable(ground, lambda s: span if s & 3 == 3 else 0)


def lawinv_edge_inputs(
    rng: random.Random, m: int
) -> Iterator[tuple[WeightedSpace, list[SimpleFunction]]]:
    """Weighted spaces at the edges of the law-invariant integrals, with integrands.

    Reference measures with zero weights (one weight stays positive),
    densities with ties and zeros, a zero density (mu(full) = 0), a uniform
    measure with distinct densities, and weights, densities and integrands
    with 4000-digit numerators over denominators up to 3^40. Every space
    comes with the zero and a constant integrand, one with ties and zeros,
    and one with a negative value (for the routes that accept it).
    """
    ground = GroundSet.of_size(m)

    def big():
        return Fraction(rng.randint(BIG_NUMERATOR, 2 * BIG_NUMERATOR),
                        rng.randint(1, BIG_DENOMINATOR))

    def small(pool):
        return Fraction(rng.choice(pool))

    spaces = []
    nu = [small((0, 0, 1, 2, "1/3", "5/2")) for _ in range(m)]
    nu[rng.randrange(m)] = small((1, "2/3"))
    spaces.append((nu, [small((0, 0, 1, 1, "7/3", 4)) for _ in range(m)]))
    spaces.append((nu, [Fraction(0)] * m))
    unit = small((1, "1/7"))
    spaces.append(([unit] * m, [Fraction(x, 3) for x in rng.sample(range(0, 40), m)]))
    nu = [big() if rng.random() < 0.8 else Fraction(0) for _ in range(m)]
    nu[rng.randrange(m)] = big()
    spaces.append((nu, [rng.choice((big(), Fraction(0), Fraction(1, 3))) for _ in range(m)]))
    spaces.append(([big()] * m, [big() for _ in range(m)]))
    for nu, density in spaces:
        w = WeightedSpace(ground, DiscreteMeasure(ground, tuple(nu)), tuple(density))
        ties = [small((0, 1, 1, "3/2", 5)) for _ in range(m)]
        fs = [SimpleFunction.constant(ground, 0),
              SimpleFunction.constant(ground, rng.choice((Fraction(3, 2), big()))),
              SimpleFunction(ground, tuple(ties)),
              SimpleFunction(ground, tuple(rng.choice((big(), Fraction(0), Fraction(2)))
                                           for _ in range(m))),
              SimpleFunction(ground, tuple(ties[:-1]) + (Fraction(-5, 2),))]
        yield w, fs


# ---------------------------------------------------------------------------
# oracles

def brute_keyed_subsets(ground: GroundSet) -> tuple[list[int], list[str]]:
    """``GroundSet.keyed_subsets`` by a sort on (cardinality, label tuple)."""
    order = sorted(ground.subsets(), key=lambda s: (bin(s).count("1"), ground.labels_of(s)))
    return order, [ground.subset_key(s) for s in order]


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


def all_chains(ground: GroundSet) -> Iterator[Chain]:
    """All m! maximal chains, in lexicographic permutation order."""
    return (Chain(ground, order) for order in itertools.permutations(range(ground.size)))


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


def brute_route_b(
    v: SetFunction, lower: bool
) -> tuple[bool, tuple[Chain, int] | None]:
    """Route (b) over ``all_chains``: the first chain whose telescoped measure
    leaves the lower (upper) core, with its first violated mask."""
    for chain in all_chains(v.ground):
        sums = extremal_measure(v, chain).subset_sums()
        for s in v.ground.subsets():
            if sums[s] > v.values[s] if lower else sums[s] < v.values[s]:
                return False, (chain, s)
    return True, None


def brute_route_c(
    v: SetFunction, maximize: bool
) -> tuple[bool, tuple[int, Chain] | None]:
    """Route (c) with one lattice-path DP per subset of v or -v, in bitmask
    order; the witness at the first failing subset is the first attaining
    chain of the literal m! sweep, over the maximum or the minimum."""
    sign = 1 if maximize else -1
    values = [sign * x for x in int_image(v.values)[0]]
    m = v.ground.size
    for a in v.ground.subsets():
        if chain_opt_path(values, indicator(a, m))[0] != values[a]:
            sweep = brute_sup_over_chains if maximize else brute_inf_over_chains
            return False, (a, sweep(v, a)[1])
    return True, None


def brute_core_check(
    v: SetFunction, mu: DiscreteMeasure, a_mask: int, lower: bool
) -> tuple[bool, int | None]:
    """Literal Fraction scan of mu(C) against v(C) over the submasks C of A,
    in increasing bitmask order; the first C on the wrong side is the witness."""
    for c in v.ground.subsets():
        if c & ~a_mask:
            continue
        mass = mu.mass(c)
        if mass > v.values[c] if lower else mass < v.values[c]:
            return False, c
    return True, None


def brute_core_membership(
    v: SetFunction, mu: DiscreteMeasure, lower: bool
) -> tuple[bool, int | None]:
    """``in_lower_core`` / ``in_upper_core`` by the literal scan; the full
    mask is the witness when only the total mass differs."""
    full = v.ground.full_mask
    ok, witness = brute_core_check(v, mu, full, lower)
    if ok and mu.total != v.values[full]:
        return False, full
    return ok, witness


def brute_route_d(
    v: SetFunction, lower: bool
) -> tuple[bool, tuple[int, int, int] | None]:
    """Route (d) with the measure of one ``local_core_attainment`` per nested
    pair B <= A, A in bitmask order, B in increasing submask order, checked
    by the literal scan."""
    for a in v.ground.subsets():
        b = 0
        while True:
            measure = local_core_attainment(v, a, b, lower=lower).measure
            ok, violated = brute_core_check(v, measure, a, lower)
            if not ok:
                return False, (a, b, violated)
            if b == a:
                break
            b = (b - a) & a
    return True, None


def brute_recursion_step(v: SetFunction) -> SetFunction:
    """One chain-supremum step with one lattice-path DP per subset."""
    values, den = int_image(v.values)
    m = v.ground.size
    return SetFunction(v.ground, tuple(
        Fraction(chain_opt_path(values, indicator(a, m))[0], den)
        for a in v.ground.subsets()
    ))


def list_chain_opt_all(values) -> list[int]:
    """The all-subsets table of ``chain_opt_all`` as Python lists.

    T[S] is a list over R <= complement(S), indexed by R's bits within the
    complement of S in index order: the largest over i outside S of
    T[S|i][R - i], plus values[S|i] - values[S] when i is in R.
    """
    full = len(values) - 1
    m = full.bit_length()
    table: list = [None] * (full + 1)
    table[full] = [0]
    for s in range(full - 1, -1, -1):
        best = None
        rank = 0  # position of i among the elements outside s
        for i in range(m):
            if s >> i & 1:
                continue
            child = table[s | 1 << i]
            d = values[s | 1 << i] - values[s]
            # Interleave blocks of 2^rank: R without i, then R with i.
            step = 1 << rank
            cand = []
            for h in range(0, len(child), step):
                cand += child[h:h + step]
                cand += [x + d for x in child[h:h + step]]
            best = cand if best is None else list(map(max, best, cand))
            rank += 1
        table[s] = best
    return table[0]


def brute_iterate(v: SetFunction, max_steps: int) -> tuple[list[SetFunction], bool]:
    """The recursion by :func:`brute_recursion_step`, until the values stop
    changing or ``max_steps`` steps; returns the iterates and whether the
    last one is a fixed point."""
    iterates = [v]
    for _ in range(max_steps):
        nxt = brute_recursion_step(iterates[-1])
        if nxt.values == iterates[-1].values:
            return iterates, True
        iterates.append(nxt)
    return iterates, False


def brute_dual_transform(v: SetFunction) -> SetFunction:
    """Complement transform in Fractions: w(A) = v(full) - v(full - A)."""
    full = v.ground.full_mask
    top = v.values[full]
    return SetFunction(
        v.ground, tuple(top - v.values[full ^ a] for a in v.ground.subsets())
    )


def brute_subset_function(mu: DiscreteMeasure) -> SetFunction:
    """The measure as a set function, one Fraction mass per subset."""
    return SetFunction(mu.ground, tuple(mu.mass(s) for s in mu.ground.subsets()))


def brute_monotone_witness(v: SetFunction) -> MonotoneWitness | None:
    """Literal Fraction scan of the pairs (A, A + i) in bitmask, then index order."""
    for a in v.ground.subsets():
        for i in range(v.ground.size):
            if not a >> i & 1 and v.values[a] > v.values[a | 1 << i]:
                return MonotoneWitness(a, a | 1 << i)
    return None


def brute_exchange_witness(v: SetFunction, submodular: bool) -> ExchangeWitness | None:
    """Literal Fraction scan of the triples (A, i < j) in bitmask, then index order."""
    m = v.ground.size
    val = v.values
    for a in v.ground.subsets():
        for i in range(m):
            for j in range(i + 1, m):
                if a >> i & 1 or a >> j & 1:
                    continue
                lhs = val[a | 1 << i] + val[a | 1 << j]
                rhs = val[a | 1 << i | 1 << j] + val[a]
                if (lhs < rhs) if submodular else (lhs > rhs):
                    return ExchangeWitness(a, i, j)
    return None


def pack_lanes(lanes, size: int) -> int:
    """Non-negative lanes of ``size`` bytes each, one ``to_bytes`` per lane."""
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in lanes), "little")


def literal_lanes(ints, reach: int = 0) -> tuple[int, int, int]:
    """The sign-test packing of ``setfn._Lanes``, value by value: (packed, lo, width).

    Lane k holds ``ints[k] - lo`` in whole bytes of at least
    ``(hi - lo).bit_length() + 2`` bits, where ``[lo, hi]`` spans ints and reach.
    """
    lo, hi = min(min(ints), reach), max(max(ints), reach)
    size = ((hi - lo).bit_length() + 9) // 8
    return pack_lanes([x - lo for x in ints], size), lo, 8 * size


def equal_distribution_densities(w: WeightedSpace) -> Iterator[tuple[Fraction, ...]]:
    """All density vectors whose level sets carry the same nu-masses.

    These are exactly the densities of the measures absolutely continuous
    in nu that share the distribution of w's density. Elements of zero
    nu-weight are left untouched: their value never affects any mass or
    integral. Positive-weight elements take levels in index order,
    smallest level first.
    """
    weights = w.nu.weights
    positive = [i for i in range(w.ground.size) if weights[i] > 0]
    need: dict[Fraction, Fraction] = {}
    for i in positive:
        d = w.density[i]
        need[d] = need.get(d, Fraction(0)) + weights[i]
    values = sorted(need)
    current = list(w.density)

    def assign(k: int) -> Iterator[tuple[Fraction, ...]]:
        if k == len(positive):
            yield tuple(current)
            return
        i = positive[k]
        wi = weights[i]
        for val in values:
            if need[val] >= wi:
                need[val] -= wi
                current[i] = val
                yield from assign(k + 1)
                need[val] += wi

    yield from assign(0)


def brute_rearrangement_sup(
    w: WeightedSpace, f: SimpleFunction
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Literal sweep over the equal-distribution class; first best density wins."""
    best = None
    best_density = None
    for density in equal_distribution_densities(w):
        val = sum(
            (fv * d * wt for fv, d, wt in zip(f.values, density, w.nu.weights)),
            Fraction(0),
        )
        if best is None or val > best:
            best, best_density = val, density
    return best, best_density


# The Fraction layer the integer image of lawinv.py replaced, kept
# literally: each distribution is its (breakpoints, levels) pair.

def brute_distribution(nu: DiscreteMeasure, values) -> tuple[tuple, tuple]:
    """Breakpoints and levels of F(y) = nu({ value <= y }); zero-mass jumps dropped."""
    masses: dict[Fraction, Fraction] = {}
    for x, w in zip(values, nu.weights):
        masses[x] = masses.get(x, Fraction(0)) + w
    bps, lvs, acc = [], [], Fraction(0)
    for x in sorted(masses):
        if masses[x] > 0:
            acc += masses[x]
            bps.append(x)
            lvs.append(acc)
    return tuple(bps), tuple(lvs)


def brute_survival_segments(dist) -> list[tuple[Fraction, Fraction, Fraction]]:
    bps, lvs = dist
    segs = []
    if bps[0] > 0:
        segs.append((Fraction(0), bps[0], lvs[-1]))
    for j in range(len(bps) - 1):
        surv = lvs[-1] - lvs[j]
        if surv > 0:
            segs.append((bps[j], bps[j + 1], surv))
    return segs


def brute_quantile_segments(dist) -> list[tuple[Fraction, Fraction, Fraction]]:
    segs, prev = [], Fraction(0)
    for bp, lv in zip(*dist):
        if lv > prev:
            segs.append((prev, lv, bp))
            prev = lv
    return segs


def brute_value_at(dist, z: Fraction) -> Fraction:
    out = Fraction(0)
    for bp, lv in zip(*dist):
        if bp <= z:
            out = lv
    return out


def brute_quantile(dist, beta: Fraction) -> Fraction:
    return next(bp for bp, lv in zip(*dist) if lv > beta)


def brute_survival_min_integral(dist, cap: Fraction) -> Fraction:
    """Integral over z >= 0 of min(total - F(z), cap), segment by segment."""
    return sum((min(surv, cap) * (end - start)
                for start, end, surv in brute_survival_segments(dist)), Fraction(0))


def brute_distribution_integral(dist, upto: Fraction) -> Fraction:
    bps, lvs = dist
    total = Fraction(0)
    for j, (bp, lv) in enumerate(zip(bps, lvs)):
        if bp >= upto:
            break
        nxt = bps[j + 1] if j + 1 < len(bps) else upto
        total += lv * (min(nxt, upto) - bp)
    return total


def brute_quantile_integral(dist, lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for a, b, z in brute_quantile_segments(dist):
        left, right = max(a, lo), min(b, hi)
        if left < right:
            total += z * (right - left)
    return total


def brute_v_mu_integral(w: WeightedSpace, f: SimpleFunction) -> Fraction:
    """Layer route: one survival integral per level set of f."""
    dist = brute_distribution(w.nu, w.density)
    layers = layer_decompose(f)
    return sum((a * brute_survival_min_integral(dist, w.nu.mass(mask))
                for a, mask in zip(layers.coefficients, layers.sets)), Fraction(0))


def brute_product_formula(w: WeightedSpace, f: SimpleFunction) -> Fraction:
    """Product of the two quantile functions, scanned per cut."""
    dist_d = brute_distribution(w.nu, w.density)
    segs_d = brute_quantile_segments(dist_d)
    segs_f = brute_quantile_segments(brute_distribution(w.nu, f.values))
    cuts = sorted({a for a, _, _ in segs_d} | {a for a, _, _ in segs_f} | {dist_d[1][-1]})
    total = Fraction(0)
    for left, right in zip(cuts, cuts[1:]):
        qd = next(z for a, b, z in segs_d if a <= left < b)
        qf = next(z for a, b, z in segs_f if a <= left < b)
        total += qd * qf * (right - left)
    return total


def brute_kusuoka(w: WeightedSpace) -> tuple[tuple[Fraction, Fraction], ...]:
    """Spectral atoms from the tail integrals of the density's survival, by level descending."""
    mu_total = sum((d * x for d, x in zip(w.density, w.nu.weights)), Fraction(0))
    nu_total = sum(w.nu.weights, Fraction(0))
    segs = brute_survival_segments(brute_distribution(w.nu, w.density))
    tails = [Fraction(0)] * (len(segs) + 1)
    for j in range(len(segs) - 1, -1, -1):
        start, end, surv = segs[j]
        tails[j] = tails[j + 1] + surv * (end - start)
    atoms = []
    prev_mass = Fraction(0)
    for j in range(len(segs) - 1, -1, -1):
        cumulative = tails[j] / mu_total
        if cumulative > prev_mass:
            atoms.append((segs[j][2] / nu_total, cumulative - prev_mass))
        prev_mass = cumulative
    return tuple(sorted(atoms, reverse=True))


def brute_tail_component(w: WeightedSpace, f: SimpleFunction, alpha: Fraction) -> Fraction:
    mu_total = sum((d * x for d, x in zip(w.density, w.nu.weights)), Fraction(0))
    cap = alpha * sum(w.nu.weights, Fraction(0))
    return mu_total / cap * brute_survival_min_integral(brute_distribution(w.nu, f.values), cap)


def frac(x) -> Fraction:
    return Fraction(x)
