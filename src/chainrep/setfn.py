"""Exact set functions on small finite ground sets.

Subsets are encoded as bitmasks over the element order of a
:class:`GroundSet`: bit ``i`` set means element ``i`` belongs. Values are
arbitrary-precision rationals (:class:`fractions.Fraction`), so every
predicate and transform in this module is decided exactly, with no
tolerances anywhere.

A set function ``v`` here always satisfies ``v(empty) = 0``. It is

* monotone        if ``v(A) <= v(B)`` whenever ``A`` is a subset of ``B``,
* submodular      if ``v(A) + v(B) >= v(A | B) + v(A & B)`` for all pairs,
* supermodular    with the reversed inequality (a convex game).

Both modularity predicates are decided through the equivalent local
exchange test over triples ``(A, i, j)`` with ``i != j`` outside ``A``,
which is quadratically cheaper than scanning all pairs of subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import NotMonotone

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

# 2**16 dense values is cheap; permutation sweeps elsewhere cap out earlier.
MAX_GROUND_SIZE = 16


def as_scalar(x: ScalarLike) -> Fraction:
    """Coerce an int, a string like '-3/4', or a Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass Fraction, int or str")
    return Fraction(x)


@dataclass(frozen=True)
class GroundSet:
    """An ordered tuple of distinct element labels, at most 16 of them."""

    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not 1 <= len(self.elements) <= MAX_GROUND_SIZE:
            raise ValueError(
                f"ground set size must be in 1..{MAX_GROUND_SIZE}, "
                f"got {len(self.elements)}"
            )
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("ground set labels must be unique")

    @classmethod
    def of_size(cls, m: int) -> "GroundSet":
        """Ground set with labels '1'..'m'."""
        return cls(tuple(str(i + 1) for i in range(m)))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def subsets(self) -> range:
        """All subset masks, in increasing bitmask order."""
        return range(1 << self.size)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise KeyError(f"unknown element label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(
            lab for i, lab in enumerate(self.elements) if mask >> i & 1
        )

    def subset_key(self, mask: int) -> str:
        """Canonical comma-joined key for a subset ('' for the empty set)."""
        return ",".join(self.labels_of(mask))

    def subsets_by_cardinality(self) -> list[int]:
        """All masks ordered by cardinality, then by label tuple."""
        return sorted(self.subsets(), key=lambda s: (bin(s).count("1"), self.labels_of(s)))


@dataclass(frozen=True)
class SetFunction:
    """Dense exact-valued function on all subsets of a ground set.

    ``values[mask]`` is the value of the subset encoded by ``mask``;
    ``values[0]`` (the empty set) must be zero.
    """

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_scalar(x) for x in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != 1 << self.ground.size:
            raise ValueError(
                f"expected {1 << self.ground.size} values, got {len(vals)}"
            )
        if vals[0] != 0:
            raise ValueError("the empty set must have value 0")

    @classmethod
    def from_callable(
        cls, ground: GroundSet, fn: Callable[[int], ScalarLike]
    ) -> "SetFunction":
        return cls(ground, tuple(as_scalar(fn(s)) for s in ground.subsets()))

    def __call__(self, mask: int) -> Fraction:
        return self.values[mask]

    def value_by_labels(self, labels: Iterable[str]) -> Fraction:
        return self.values[self.ground.mask_of(labels)]


@dataclass(frozen=True)
class MonotoneWitness:
    """Nested pair with v(small) > v(large); large = small plus one element."""

    small: int
    large: int


@dataclass(frozen=True)
class ExchangeWitness:
    """Local exchange triple violating the requested modularity direction.

    The violated inequality compares ``v(base|i) + v(base|j)`` against
    ``v(base|i|j) + v(base)``.
    """

    base: int
    i: int
    j: int

    def pair_masks(self) -> tuple[int, int]:
        """The violating subset pair (base|i, base|j) in quadratic form."""
        return self.base | 1 << self.i, self.base | 1 << self.j


def is_monotone(v: SetFunction) -> tuple[bool, MonotoneWitness | None]:
    """Decide monotonicity; on failure return the first local witness.

    Uses the one-element test v(A) <= v(A | {i}), scanning masks in
    increasing bitmask order and elements in index order, so the witness
    is deterministic.
    """
    vals = v.values
    m = v.ground.size
    for a in range(1 << m):
        va = vals[a]
        for i in range(m):
            b = 1 << i
            if a & b:
                continue
            if va > vals[a | b]:
                return False, MonotoneWitness(a, a | b)
    return True, None


def require_monotone(v: SetFunction, what: str, error: type = NotMonotone) -> None:
    """Raise ``error`` naming ``what`` and the first witness unless v is monotone."""
    ok, w = is_monotone(v)
    if not ok:
        small, large = v.ground.subset_key(w.small), v.ground.subset_key(w.large)
        raise error(f"{what} requires a monotone set function; "
                    f"v decreases from {{{small}}} to {{{large}}}")


def _exchange_violation(v: SetFunction, submodular: bool) -> ExchangeWitness | None:
    vals = v.values
    m = v.ground.size
    for a in range(1 << m):
        va = vals[a]
        for i in range(m):
            bi = 1 << i
            if a & bi:
                continue
            vai = vals[a | bi]
            for j in range(i + 1, m):
                bj = 1 << j
                if a & bj:
                    continue
                lhs = vai + vals[a | bj]
                rhs = vals[a | bi | bj] + va
                bad = lhs < rhs if submodular else lhs > rhs
                if bad:
                    return ExchangeWitness(a, i, j)
    return None


def is_submodular(v: SetFunction) -> tuple[bool, ExchangeWitness | None]:
    """Decide submodularity via the local exchange test; first witness on failure."""
    w = _exchange_violation(v, submodular=True)
    return w is None, w


def is_supermodular(v: SetFunction) -> tuple[bool, ExchangeWitness | None]:
    """Mirror of :func:`is_submodular` with the reversed inequality."""
    w = _exchange_violation(v, submodular=False)
    return w is None, w


def dual_transform(v: SetFunction) -> SetFunction:
    """Complement transform w(A) = v(full) - v(complement of A).

    An involution that swaps submodular and supermodular while preserving
    monotonicity; fixes the values at the empty set and the full set.
    """
    full = v.ground.full_mask
    top = v.values[full]
    return SetFunction(
        v.ground, tuple(top - v.values[full ^ a] for a in v.ground.subsets())
    )


def is_null_set(v: SetFunction, n_mask: int) -> bool:
    """True iff v(N|A) = v(~N&A) = v(A) for every subset A."""
    vals = v.values
    full = v.ground.full_mask
    comp = full ^ n_mask
    for a in v.ground.subsets():
        va = vals[a]
        if vals[n_mask | a] != va or vals[comp & a] != va:
            return False
    return True
