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
DP over the 2^m subsets (:func:`chain_opt`) optimizes over all m! chains,
and the same pass returns the lexicographically first optimal chain. One
table over the pairs S, R <= complement(S) (:func:`chain_opt_all`)
gives the optimum for the indicator of every subset at once, in 3^m * m
steps on rows of packed lanes, for at most ``TABLE_LIMIT`` = 14 elements
(about 0.5 s). These
kernels only maximize: a minimum over chains is the maximum for -v,
negated, with the same attaining chains, since every chain measure of -v
is the negated chain measure of v.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import GroundSetTooLarge, NonMonotoneAlongChain, NotNested
from .setfn import (GroundSet, ScalarLike, SetFunction, _LaneRows, _Record, as_scalar,
                    int_image)

# The 3^m all-subsets table refuses ground sets above TABLE_LIMIT, as route (b)'s
# m! sweep does above represent.SWEEP_LIMIT; the 2^m path DP takes every size.
TABLE_LIMIT = 14


def _require_size(m: int, limit: int, what: str) -> None:
    if m > limit:
        raise GroundSetTooLarge(f"{what}: at most {limit} elements, got {m}")


class Chain(_Record):
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


class DiscreteMeasure(_Record):
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

    # Summed once on first read; not a field, so equality and hashing
    # see only ground and weights.
    @cached_property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def mass(self, mask: int) -> Fraction:
        self.ground.require_mask(mask)
        total = Fraction(0)
        for i, w in enumerate(self.weights):
            if mask >> i & 1:
                total += w
        return total

    def subset_sums(self) -> list[Fraction]:
        return subset_sums(self.weights)

    def as_set_function(self) -> SetFunction:
        ints, den = int_image(self.weights)
        return SetFunction.from_image(self.ground, subset_sums(ints), den)

    def integral(self, values: Sequence[ScalarLike]) -> Fraction:
        """Sum of value[i] * weight[i] over the ground elements."""
        return sum(
            (as_scalar(x) * w for x, w in zip(values, self.weights, strict=True)),
            Fraction(0),
        )


def subset_sums(weights: Sequence) -> list:
    """All 2^m subset sums of a weight vector, indexed by mask.

    Doubling: the sums without element i, then the same sums plus
    weights[i], which is bitmask order. Works for Fractions and for plain
    ints alike; the int form is the hot path of the exhaustive core checks.
    """
    sums = [0]
    for w in weights:
        sums += [x + w for x in sums]
    return sums


def extremal_measure(v: SetFunction, chain: Chain) -> DiscreteMeasure:
    """Telescope v along the chain into an additive measure.

    The measure agrees with v on every chain prefix and has total mass
    v(full). Raises :class:`NonMonotoneAlongChain` if some increment is
    negative, which cannot happen for monotone v.
    """
    if v.ground != chain.ground:
        raise ValueError("set function and chain live on different ground sets")
    ints, den = v.image
    weights = [0] * v.ground.size
    prev = mask = 0
    for i in chain.order:
        mask |= 1 << i
        inc = Fraction(ints[mask] - prev, den)
        if inc < 0:
            raise NonMonotoneAlongChain(
                f"negative increment {inc} at element "
                f"{v.ground.elements[i]} along chain {','.join(chain.label_order())}"
            )
        weights[i] = inc
        prev = ints[mask]
    return DiscreteMeasure(v.ground, tuple(weights))


def insert_into_chain(chain: Chain, mask: int) -> Chain:
    """Refine the chain so that ``mask`` appears among its prefixes.

    The result lists the elements of the subset first, keeping their
    relative order in the chain, then the remaining elements in their
    relative order. Its prefix family is exactly the union of the
    intersections and unions of the old prefixes with the subset, so this
    is the canonical maximal refinement; inserting the empty set, the
    full set, or an existing prefix returns an equal chain.
    """
    chain.ground.require_mask(mask)
    inside = [i for i in chain.order if mask >> i & 1]
    outside = [i for i in chain.order if not mask >> i & 1]
    return Chain(chain.ground, tuple(inside + outside))


def insert_nested_pair(chain: Chain, a_mask: int, b_mask: int) -> Chain:
    """Refine the chain so both sets of a nested pair B <= A are prefixes.

    The two insertion orders commute, so the result is well defined.
    """
    chain.ground.require_mask(a_mask)
    chain.ground.require_mask(b_mask)
    if b_mask & ~a_mask:
        key = chain.ground.subset_key
        raise NotNested(f"{{{key(b_mask)}}} is not contained in {{{key(a_mask)}}}")
    return insert_into_chain(insert_into_chain(chain, a_mask), b_mask)


def indicator(mask: int, m: int) -> list[int]:
    """The 0/1 weight vector of a subset."""
    return [mask >> i & 1 for i in range(m)]


def chain_opt_path(
    values: Sequence[int], weights: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """The largest weighted increment sum over lattice paths empty -> full,
    with the lexicographically first permutation whose path attains it.

    A step S -> S|i contributes ``weights[i] * (values[S|i] - values[S])``.
    Each S scans the elements outside it in index order under a strict
    maximum, so first[S] is the lowest element whose step reaches the best
    tail from S, and walking first[] from the empty set reads the lex-first
    optimal chain. Zero weights are skipped, so an indicator costs one
    addition per contributing step.
    """
    m = len(weights)
    full = (1 << m) - 1
    tails = [0] * (full + 1)
    first = [0] * full
    steps = [(i, 1 << i, w) for i, w in enumerate(weights)]
    for s in range(full - 1, -1, -1):
        vs = values[s]
        best = None
        for i, b, w in steps:
            if not s & b:
                t = s | b
                g = tails[t] + w * (values[t] - vs) if w else tails[t]
                if best is None or g > best:
                    best, first[s] = g, i
        tails[s] = best
    order, s = [], 0
    while s != full:
        order.append(first[s])
        s |= 1 << first[s]
    return tails[0], tuple(order)


def chain_opt_all(values: Sequence[int]) -> list[int]:
    """opt[A] = chain maximum of the indicator of A, for every A at once.

    tails[S] for the indicator of A depends on A only through R = A - S,
    so one table T[S][R] over R <= complement(S) serves every A:
    T[S][R] = the largest over i outside S of T[S|i][R - i], plus the
    increment values[S|i] - values[S] when i is in R, and opt[A] = T[0][A].
    T[S] is indexed by R's bits within the complement of S, in index
    order, and is one int of packed lanes (``setfn._LaneRows``), so each
    row costs a few big-int operations per element outside S rather than
    a Python step per entry. opt[A] equals the optimum ``chain_opt_path``
    returns for the indicator of A.

    That is O(3^m * m) big-int operations on rows of up to 2^m lanes.
    One loop (``_LaneRows.optima``) builds every row in place, S in
    decreasing order: it reads each child T[S|i] straight from the table
    and frees it when S is its last reader, that is when i lies above S's
    highest element, and the lane-wise maximum of two rows takes 7 big-int
    operations. On a 2-vCPU VM, on capped sums of small integers, it takes
    about 0.15 ms at m = 6, 0.8 ms at m = 8, 6 ms at m = 10, 50–60 ms at
    m = 12, 0.14–0.2 s at m = 13 and 0.45 s at m = 14, with a peak of about
    5 MB above the input at m = 14. Each operation passes over every bit of
    a row, and adding an increment multiplies it into every lane, so wide
    values cost more than on the list table of the tests' oracle
    (``support.list_chain_opt_all``): at m = 8 about 0.007 s for 100-digit
    values, 0.03 s for 300 and 0.06 s for 1000 digits, where the list table
    takes 0.008–0.012 s. Rationals reach such widths through the
    common denominator of their integer image. Refuses m > TABLE_LIMIT.
    """
    m = (len(values) - 1).bit_length()
    _require_size(m, TABLE_LIMIT, "the all-subsets table holds 3^m entries")
    return _LaneRows(values).optima()


def chain_opt(
    v: SetFunction, weights: Sequence[int | Fraction]
) -> tuple[Fraction, Chain]:
    """Maximum over all chains of the chain measure integrated against weights.

    Returns the exact maximum of ``sum weights[i] * mu_C({i})`` over the
    telescoped measures mu_C, with the lexicographically first attaining
    chain; equal to the literal m! sweep, which the tests check.
    """
    if len(weights) != v.ground.size:
        raise ValueError("one weight per ground element required")
    values, den = v.image
    wts, wden = int_image(weights)
    best, order = chain_opt_path(values, wts)
    return Fraction(best, den * wden), Chain(v.ground, order)
