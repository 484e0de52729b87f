"""Maximal chains of subsets and the measures they carve out of a set function.

On a finite ground set every maximal chain

    empty < {s1} < {s1,s2} < ... < full

is the prefix family of a permutation (s1, ..., sm), and those are the only
chains that generate the whole subset algebra, so a :class:`Chain` is stored
as a permutation of element indices.

Telescoping a monotone set function v along a chain produces an additive
measure: element ``s_i`` gets weight ``v(prefix_i) - v(prefix_{i-1})``.
This greedy/marginal-vector construction is the bridge between set
functions and ordinary measures used throughout the package.

A chain is also a lattice path from the empty set to the full set, so one
DP over the 2^m subsets (:func:`chain_opt`) optimizes over all m! chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import GroundSetTooLarge, NonMonotoneAlongChain, NotNested
from .setfn import GroundSet, ScalarLike, SetFunction, as_scalar

# Permutation sweeps run through m! chains; beyond this they stop being fun.
SWEEP_LIMIT = 9


def require_sweepable(ground: GroundSet) -> None:
    if ground.size > SWEEP_LIMIT:
        raise GroundSetTooLarge(
            f"chain sweeps support at most {SWEEP_LIMIT} elements, "
            f"got {ground.size}"
        )


@dataclass(frozen=True)
class Chain:
    """A maximal chain, stored as the permutation of element indices."""

    ground: GroundSet
    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.ground.size)):
            raise ValueError("order must be a permutation of the element indices")

    @classmethod
    def identity(cls, ground: GroundSet) -> "Chain":
        return cls(ground, tuple(range(ground.size)))

    @classmethod
    def from_labels(cls, ground: GroundSet, labels: Iterable[str]) -> "Chain":
        return cls(ground, tuple(ground.index(lab) for lab in labels))

    def label_order(self) -> tuple[str, ...]:
        return tuple(self.ground.elements[i] for i in self.order)

    def prefixes(self) -> tuple[int, ...]:
        """The m+1 prefix masks from the empty set up to the full set."""
        out = [0]
        mask = 0
        for i in self.order:
            mask |= 1 << i
            out.append(mask)
        return tuple(out)

    def has_prefix(self, mask: int) -> bool:
        return mask in self.prefixes()


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative exact weight per ground element; additive on subsets."""

    ground: GroundSet
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(as_scalar(x) for x in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) != self.ground.size:
            raise ValueError("one weight per ground element required")
        if any(w < 0 for w in ws):
            raise ValueError("measure weights must be nonnegative")

    @classmethod
    def zero(cls, ground: GroundSet) -> "DiscreteMeasure":
        return cls(ground, (Fraction(0),) * ground.size)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def mass(self, mask: int) -> Fraction:
        total = Fraction(0)
        for i, w in enumerate(self.weights):
            if mask >> i & 1:
                total += w
        return total

    def subset_sums(self) -> list[Fraction]:
        return subset_sums(self.weights)

    def as_set_function(self) -> SetFunction:
        return SetFunction(self.ground, tuple(self.subset_sums()))

    def integral(self, values: Sequence[ScalarLike]) -> Fraction:
        """Sum of value[i] * weight[i] over the ground elements."""
        return sum(
            (as_scalar(x) * w for x, w in zip(values, self.weights, strict=True)),
            Fraction(0),
        )


def subset_sums(weights: Sequence) -> list:
    """All 2^m subset sums of a weight vector, indexed by mask.

    Works for Fractions and for plain ints alike; the int form is the
    hot path of the exhaustive core checks.
    """
    m = len(weights)
    sums = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        sums[s] = sums[s ^ low] + weights[low.bit_length() - 1]
    return sums


def extremal_measure(v: SetFunction, chain: Chain) -> DiscreteMeasure:
    """Telescope v along the chain into an additive measure.

    The measure agrees with v on every chain prefix and has total mass
    v(full). Raises :class:`NonMonotoneAlongChain` if some increment is
    negative, which cannot happen for monotone v.
    """
    if v.ground != chain.ground:
        raise ValueError("set function and chain live on different ground sets")
    weights = [Fraction(0)] * v.ground.size
    prev = Fraction(0)
    mask = 0
    for i in chain.order:
        mask |= 1 << i
        cur = v.values[mask]
        inc = cur - prev
        if inc < 0:
            raise NonMonotoneAlongChain(
                f"negative increment {inc} at element "
                f"{v.ground.elements[i]!r} along chain {chain.label_order()}"
            )
        weights[i] = inc
        prev = cur
    return DiscreteMeasure(v.ground, tuple(weights))


def all_chains(ground: GroundSet) -> Iterator[Chain]:
    """All m! maximal chains, in lexicographic permutation order."""
    require_sweepable(ground)
    for perm in itertools.permutations(range(ground.size)):
        yield Chain(ground, perm)


def insert_into_chain(chain: Chain, mask: int) -> Chain:
    """Refine the chain so that ``mask`` appears among its prefixes.

    The result lists the elements of the subset first, keeping their
    relative order in the chain, then the remaining elements in their
    relative order. Its prefix family is exactly the union of the
    intersections and unions of the old prefixes with the subset, so this
    is the canonical maximal refinement; inserting the empty set, the
    full set, or an existing prefix returns an equal chain.
    """
    inside = [i for i in chain.order if mask >> i & 1]
    outside = [i for i in chain.order if not mask >> i & 1]
    return Chain(chain.ground, tuple(inside + outside))


def insert_nested_pair(chain: Chain, a_mask: int, b_mask: int) -> Chain:
    """Refine the chain so both sets of a nested pair B <= A are prefixes.

    The two insertion orders commute, so the result is well defined.
    """
    if b_mask & ~a_mask:
        raise NotNested(
            f"{chain.ground.subset_key(b_mask) or '{}'} is not contained in "
            f"{chain.ground.subset_key(a_mask) or '{}'}"
        )
    return insert_into_chain(insert_into_chain(chain, a_mask), b_mask)


def int_image(values: Sequence) -> tuple[list[int], int]:
    """Common-denominator integer image: ``values[i] == ints[i] / den``; exact."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def indicator(mask: int, m: int) -> list[int]:
    """The 0/1 weight vector of a subset."""
    return [mask >> i & 1 for i in range(m)]


def chain_opt_tails(
    values: Sequence[int], weights: Sequence[int], maximize: bool
) -> list[int]:
    """tails[S] = best weighted increment sum over lattice paths S -> full.

    A step S -> S|i contributes ``weights[i] * (values[S|i] - values[S])``;
    tails[0] is the optimum over all maximal chains. Zero weights are
    skipped, so an indicator costs one addition per contributing step.
    """
    m = len(weights)
    full = (1 << m) - 1
    tails = [0] * (full + 1)
    steps = [(1 << i, w) for i, w in enumerate(weights)]
    for s in range(full - 1, -1, -1):
        vs = values[s]
        best = None
        for b, w in steps:
            if not s & b:
                t = s | b
                g = tails[t] + w * (values[t] - vs) if w else tails[t]
                if best is None or (g > best if maximize else g < best):
                    best = g
        tails[s] = best
    return tails


def lex_first_order(
    values: Sequence[int], weights: Sequence[int], tails: Sequence[int]
) -> tuple[int, ...]:
    """The lexicographically first permutation whose path attains tails[0]."""
    order, s = [], 0
    for _ in weights:
        vs, target = values[s], tails[s]
        i = next(i for i, w in enumerate(weights) if not s >> i & 1
                 and tails[s | 1 << i] + w * (values[s | 1 << i] - vs) == target)
        order.append(i)
        s |= 1 << i
    return tuple(order)


def chain_opt(
    v: SetFunction, weights: Sequence[int | Fraction], maximize: bool
) -> tuple[Fraction, Chain]:
    """Optimum over all chains of the chain measure integrated against weights.

    Returns the exact maximum (or minimum) of ``sum weights[i] * mu_C({i})``
    over the telescoped measures mu_C, with the lexicographically first
    attaining chain; equal to the literal m! sweep, which the tests check.
    """
    require_sweepable(v.ground)
    if len(weights) != v.ground.size:
        raise ValueError("one weight per ground element required")
    values, den = int_image(v.values)
    wts, wden = int_image(weights)
    tails = chain_opt_tails(values, wts, maximize)
    order = lex_first_order(values, wts, tails)
    return Fraction(tails[0], den * wden), Chain(v.ground, order)
