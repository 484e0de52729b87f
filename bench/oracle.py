"""Reference answers computed without the library: literal sweeps and definitions.

Each function takes plain lists (values indexed by subset bitmask) and
recomputes a fact the library decides by a faster route, so that a wrong
fast route shows up as a failed operation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from inputs import subset_sums


def _ints(values) -> tuple[list[int], int]:
    den = 1
    for x in values:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in values], den


def literal_chains(values) -> dict:
    """Sweep all m! chains: per-subset max and min of the chain measures,
    and whether every chain measure lies below (lower core) or above
    (upper core) v everywhere."""
    vals, den = _ints(values)
    size = len(vals)
    m = (size - 1).bit_length()
    hi, lo = [None] * size, [None] * size
    below = above = True
    for order in itertools.permutations(range(m)):
        weights = [0] * m
        mask = prev = 0
        for i in order:
            mask |= 1 << i
            weights[i] = vals[mask] - prev
            prev = vals[mask]
        for s, x in enumerate(subset_sums(weights)):
            if hi[s] is None or x > hi[s]:
                hi[s] = x
            if lo[s] is None or x < lo[s]:
                lo[s] = x
            below = below and x <= vals[s]
            above = above and x >= vals[s]
    return {"sup": [Fraction(x, den) for x in hi],
            "inf": [Fraction(x, den) for x in lo],
            "below": below, "above": above}


def pairwise(values, submodular: bool = True) -> bool:
    """The definition: v(A) + v(B) against v(A|B) + v(A&B) for all pairs."""
    vals, _ = _ints(values)
    size = len(vals)
    for a in range(size):
        va = vals[a]
        for b in range(a + 1, size):
            lhs = va + vals[b]
            rhs = vals[a | b] + vals[a & b]
            if (lhs < rhs) if submodular else (lhs > rhs):
                return False
    return True


def chain_weights(values, order) -> list:
    weights = [Fraction(0)] * len(order)
    mask, prev = 0, Fraction(0)
    for i in order:
        mask |= 1 << i
        weights[i] = values[mask] - prev
        prev = values[mask]
    return weights


def chain_mass(values, order, mask) -> Fraction:
    return sum((w for i, w in enumerate(chain_weights(values, order))
                if mask >> i & 1), Fraction(0))


def chain_integral(values, order, f) -> Fraction:
    return sum((x * w for x, w in zip(f, chain_weights(values, order))),
               Fraction(0))


def layer_cake(v, f) -> Fraction:
    """Choquet integral from the level sets; v is any callable on masks."""
    levels = sorted(set(f), reverse=True)
    total = Fraction(0)
    for k, b in enumerate(levels):
        nxt = levels[k + 1] if k + 1 < len(levels) else Fraction(0)
        mask = sum(1 << i for i, x in enumerate(f) if x >= b)
        total += (b - nxt) * v(mask)
    return total


def dual(values) -> list:
    full = len(values) - 1
    return [values[full] - values[full ^ s] for s in range(len(values))]


def law_value(nu, density):
    """v(A): the top nu(A) of mass of the density, filled from the largest."""
    pairs = sorted(zip(density, nu), reverse=True)

    def v(mask: int) -> Fraction:
        need = sum((w for i, w in enumerate(nu) if mask >> i & 1), Fraction(0))
        total = Fraction(0)
        for d, w in pairs:
            take = min(need, w)
            total += d * take
            need -= take
        return total
    return v


def paired(nu, density, f) -> Fraction:
    return sum((x * d * w for x, d, w in zip(f, density, nu)), Fraction(0))


def sorted_pairing(nu, density, f) -> Fraction:
    """Hardy-Littlewood: with equal weights the sorted pairing is optimal."""
    w = nu[0]
    return sum((x * d * w for x, d in zip(sorted(f), sorted(density))),
               Fraction(0))


def same_distribution(nu, density, other) -> bool:
    def masses(ds):
        out: dict = {}
        for d, w in zip(ds, nu):
            if w:
                out[d] = out.get(d, 0) + w
        return out
    return masses(density) == masses(other)
