"""Choquet integration of simple functions against exact set functions.

Every function on a finite ground set is simple, so the integral reduces
to a finite layer-cake sum: decompose f into nested level sets

    f = a_1 * 1[A_1] + ... + a_n * 1[A_n],   A_1 <= ... <= A_n = full,

with a_i >= 0 for i < n (a_n is the minimum value and may be negative),
and put  integral(v, f) = sum a_i * v(A_i).

For monotone submodular v the integral is also the maximum over all
chains of the ordinary integral of f against the chain's telescoped
measure, attained by any chain that lists the elements in decreasing
f-order; normalizing the reflected integral v(-f)/v(full) yields a
coherent risk measure (subadditive, positively homogeneous, translation
invariant, nonpositive on nonnegative f).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain, chain_opt, require_sweepable
from .errors import NegativeValues, NonMonotoneAlongChain, NotSubmodular, ZeroTotalMass
from .setfn import (GroundSet, ScalarLike, SetFunction, as_scalar, is_submodular,
                    require_monotone)


@dataclass(frozen=True)
class SimpleFunction:
    """Exact-valued function on the ground elements (any sign)."""

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_scalar(x) for x in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.ground.size:
            raise ValueError("one value per ground element required")

    @classmethod
    def constant(cls, ground: GroundSet, c: ScalarLike) -> "SimpleFunction":
        return cls(ground, (as_scalar(c),) * ground.size)

    @classmethod
    def indicator(cls, ground: GroundSet, mask: int) -> "SimpleFunction":
        return cls(
            ground,
            tuple(Fraction(1 if mask >> i & 1 else 0) for i in range(ground.size)),
        )

    def __call__(self, i: int) -> Fraction:
        return self.values[i]

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.values)

    def level_mask(self, threshold: Fraction) -> int:
        """Mask of elements with value >= threshold."""
        mask = 0
        for i, x in enumerate(self.values):
            if x >= threshold:
                mask |= 1 << i
        return mask

    # Pointwise arithmetic; scalars shift or scale every value.

    def __add__(self, other):
        if isinstance(other, SimpleFunction):
            if other.ground != self.ground:
                raise ValueError("ground sets differ")
            vals = tuple(a + b for a, b in zip(self.values, other.values))
        else:
            c = as_scalar(other)
            vals = tuple(a + c for a in self.values)
        return SimpleFunction(self.ground, vals)

    __radd__ = __add__

    def __neg__(self):
        return SimpleFunction(self.ground, tuple(-a for a in self.values))

    def __sub__(self, other):
        return self + (-other if isinstance(other, SimpleFunction) else -as_scalar(other))

    def scale(self, factor: ScalarLike) -> "SimpleFunction":
        c = as_scalar(factor)
        return SimpleFunction(self.ground, tuple(c * a for a in self.values))


@dataclass(frozen=True)
class LayerDecomposition:
    """Nested level sets with coefficients reconstructing the function.

    Coefficients are nonnegative except possibly the last; the sets
    increase and end at the full set.
    """

    ground: GroundSet
    coefficients: tuple[Fraction, ...]
    sets: tuple[int, ...]

    def reconstruct(self) -> SimpleFunction:
        vals = [Fraction(0)] * self.ground.size
        for a, mask in zip(self.coefficients, self.sets):
            for i in range(self.ground.size):
                if mask >> i & 1:
                    vals[i] += a
        return SimpleFunction(self.ground, tuple(vals))


def layer_decompose(f: SimpleFunction) -> LayerDecomposition:
    """Level-set decomposition by decreasing distinct values.

    With distinct values b_1 > ... > b_n, layer i is {f >= b_i} with
    coefficient b_i - b_{i+1} (the last coefficient is b_n itself).
    """
    distinct = sorted(set(f.values), reverse=True)
    coeffs = []
    sets = []
    for idx, b in enumerate(distinct):
        nxt = distinct[idx + 1] if idx + 1 < len(distinct) else Fraction(0)
        coeffs.append(b - nxt if idx + 1 < len(distinct) else b)
        sets.append(f.level_mask(b))
    return LayerDecomposition(f.ground, tuple(coeffs), tuple(sets))


def choquet(v: SetFunction, f: SimpleFunction) -> Fraction:
    """Layer-cake integral of f against v; exact.

    Linear in constant shifts: integrating f + c adds c * v(full).
    Reduces to the ordinary integral when v is a measure, and to v(A)
    when f is the indicator of A.
    """
    if v.ground != f.ground:
        raise ValueError("set function and integrand live on different ground sets")
    layers = layer_decompose(f)
    return sum(
        (a * v.values[mask] for a, mask in zip(layers.coefficients, layers.sets)),
        Fraction(0),
    )


def choquet_sup_representation(
    v: SetFunction, f: SimpleFunction
) -> tuple[Fraction, Chain]:
    """Maximum over all chains of the integral of f against the chain measure.

    Requires monotone submodular v (raises :class:`NotSubmodular`
    otherwise; without submodularity the maximum can exceed the Choquet
    integral). Returns the maximum and the lexicographically first
    attaining chain; ordering elements by decreasing f-value always
    attains it; :func:`chainrep.chains.chain_opt` finds it without a sweep.
    """
    require_sweepable(v.ground)
    ok, witness = is_submodular(v)
    if not ok:
        raise NotSubmodular(
            f"chain representation needs submodularity; exchange violation at "
            f"base mask {witness.base} with elements {witness.i}, {witness.j}"
        )
    require_monotone(v, "the chain representation", NonMonotoneAlongChain)
    return chain_opt(v, f.values, maximize=True)


def risk_measure(v: SetFunction, f: SimpleFunction) -> Fraction:
    """Normalized reflected integral v(-f) / v(full).

    Coherent for monotone submodular v with positive total value; the
    caller is expected to have checked submodularity.
    """
    top = v.values[v.ground.full_mask]
    if top == 0:
        raise ZeroTotalMass("risk measure undefined: v(full) = 0")
    return choquet(v, -f) / top


def monotone_approximation(f: SimpleFunction, k: int) -> SimpleFunction:
    """Dyadic round-down of a nonnegative f at resolution 2^-k, capped at k.

    The approximations increase pointwise in k and equal f once 2^k
    clears every denominator and k reaches the maximum value.
    """
    if k < 1:
        raise ValueError("resolution index k must be a positive integer")
    if not f.is_nonnegative():
        raise NegativeValues("monotone approximation requires f >= 0")
    scale = 1 << k
    cap = Fraction(k)
    vals = tuple(
        min(cap, Fraction((x.numerator * scale) // x.denominator, scale))
        for x in f.values
    )
    return SimpleFunction(f.ground, vals)
