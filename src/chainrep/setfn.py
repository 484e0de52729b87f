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

A :class:`SetFunction` stores one canonical integer image ``(ints, den)``
with ``values[mask] == ints[mask] / den``, ``den > 0`` and
``gcd(den, *ints) == 1``: the common-denominator image :func:`int_image`
returns, which orders values exactly as the rationals do. Any common
denominator reduces to it, so equality and hashing compare images. It is
built once per function: from Fractions by the scalar constructor, or
handed over as integers through :meth:`SetFunction.from_image` by the
producers (the complement transform, the recursion step, the
law-invariant function, measures and the CLI parser). Every predicate and
transform reads it, and ``v(mask)`` builds only the Fraction it returns;
``values`` is materialised from it on first read, however the function
was built, one Fraction per distinct value, and then kept. On the 2-vCPU
VM of the figures below, that first read costs about 40 ms at m = 14 when
all 2^14 values are distinct and about 2 ms for a law-invariant function
(136 distinct values), against about 1.3 ms for :func:`dual_transform`.

Both modularity predicates are decided through the equivalent local
exchange test over triples ``(A, i, j)`` with ``i != j`` outside ``A``,
which is quadratically cheaper than scanning all pairs of subsets. The
test is written for the submodular side only: v is supermodular iff -v is
submodular, so :func:`is_supermodular` runs it on the lanes of the negated
image, read off v's packing (:meth:`_Lanes.negated`), whose violating
triples are v's, in the same order, with the same first witness.

Every exhaustive sign test of the package runs on one lane kernel,
:class:`_Lanes`: the integer image is packed into fixed-width lanes of one
arbitrary-precision int, so one shift, add or subtract acts on all 2^m
values in a single C-level pass, and no carry or borrow ever crosses a lane
(the bound is stated on the class). The monotone test costs a few big-int
operations per element i, the exchange test a few per pair i < j, and the
core checks of :mod:`chainrep.represent` three per telescoped measure
(:class:`_CoreLanes`, the lower-core side; the upper core is the lower
core of -v). Witnesses are the lowest failing lane, so they are
the same as those of the literal scans in bitmask order. Lanes of at most
64 bits are packed in C through ``array("Q")``, wider ones one value at a
time, and the masks of each width and lane count are built once and
cached (see :class:`_Lanes`). On a 2-vCPU VM, :func:`is_submodular` on a
submodular input at m = 14 with 16-bit lanes takes about 5.7 ms, of which
packing is about 0.8 ms, and :func:`is_monotone` about 1.5 ms. The
trade-off: a scan stops early only when a violation sits at the empty set
(lane 0), so another failing input costs as much as a passing one, and
even an early stop pays for packing the image: a generic failing input at
m = 8 takes about 0.03 ms.

The all-subsets table of chain optima runs on the same lane arithmetic
(:class:`_LaneRows`): each row is one int, and one spread, add and lane-wise
maximum per element builds a row from its children.
"""

from __future__ import annotations

import sys
from array import array
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, Union

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


def int_image(values: Sequence) -> tuple[list[int], int]:
    """Common-denominator integer image: ``values[i] == ints[i] / den``; exact."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


# Wide values converted per block while packing, so that at most this many
# small bytes objects are alive at once.
_PACK_CHUNK = 1024


def _lane_mask(lane: bytes, m: int, avoid: int = 0) -> int:
    """``lane`` in every lane k < 2^m with ``k & avoid == 0``, zero elsewhere."""
    pattern = lane
    for b in range(m):
        pattern += bytes(len(pattern)) if avoid >> b & 1 else pattern
    return int.from_bytes(pattern, "little")


def _masks(builder: Callable[[int, int], object], width: int, n: int):
    """``builder(width, n)``: the masks of 2^n lanes of ``width`` bits.

    ``builder`` is an ``lru_cache``d mask builder. Masks of lanes up to 64
    bits come from its cache; wider ones grow with the values, so they are
    built for one call and dropped.
    """
    return (builder if width <= 64 else builder.__wrapped__)(width, n)


@lru_cache(maxsize=64)
def _top_mask(width: int, n: int) -> int:
    """The top bit of every lane, shared by :class:`_Lanes` and :class:`_LaneRows`."""
    return _lane_mask((1 << width - 1).to_bytes(width // 8, "little"), n)


@lru_cache(maxsize=8)
def _avoiding_masks(width: int, m: int) -> tuple[int, ...]:
    """Per element i, the top bit of every lane whose index avoids i."""
    top = (1 << width - 1).to_bytes(width // 8, "little")
    return tuple(_lane_mask(top, m, 1 << i) for i in range(m))


@lru_cache(maxsize=32)
def _doubling_masks(width: int, m: int) -> tuple[tuple[int, int], ...]:
    """Per element i, 1 in each of the first 2^i lanes and the shift past them."""
    one = (1).to_bytes(width // 8, "little")
    return tuple((_lane_mask(one, i), width << i) for i in range(m))


class _Lanes:
    """Integers packed into fixed-width lanes of one int: the sign-test kernel.

    Lane k, ``width`` bits from bit ``k * width``, holds ``ints[k] - lo``.
    The width is whole bytes and at least ``(hi - lo).bit_length() + 2``
    bits, where ``[lo, hi]`` is the range of ``ints`` and ``reach`` (the
    weights' total for :class:`_CoreLanes`, else 0). With ``H = 2^(width-1)``
    (the top bit of a lane) and ``Q = H / 2`` this gives ``hi - lo < Q``, so

    * the packed lanes lie in ``[0, Q)``, and so do lanes shifted in from
      beyond the last one, which read 0;
    * :meth:`steps` lanes ``u[k + 2^i] - u[k] + Q`` lie in ``(0, H)``;
    * for operands whose lanes lie in ``[0, H)``, ``plus + top - minus``
      has lanes ``plus_k + H - minus_k`` in ``(0, 2H) = (0, 2^width)``.

    Every intermediate lane therefore stays in ``[0, 2^width)``: no carry
    or borrow crosses a lane, each big-int result is exactly the lane-wise
    one, and the top bit of lane k is set iff ``plus_k >= minus_k``. That
    is the exactness proof; nothing is rounded.

    Which path packs depends only on the width. Lanes of at most 64 bits
    have ``hi - lo < Q <= 2^62``, so every ``ints[k] - lo`` fits an
    unsigned 64-bit slot: ``array("Q")`` converts them all in C, and one
    strided slice per lane byte moves the low bytes of each slot into
    place. The subtraction is skipped when ``lo == 0``, as for every
    monotone v and its dual. Wider lanes take one ``to_bytes`` per value,
    exact at any width.

    Each mask comes from its own builder through :func:`_masks`, so a
    class builds only what it reads: ``top`` from :func:`_top_mask`, the
    sign tests' ``avoiding`` from :func:`_avoiding_masks` and
    :class:`_CoreLanes`' ``doubling`` from :func:`_doubling_masks`. Those
    of lanes up to 64 bits stay cached. By ``__sizeof__``, one set of
    ``avoiding`` masks holds 0.43 MB for 2^14 lanes of 16 bits, 1.7 MB of
    64 bits, and 2.0 MB and 8.0 MB for 2^16 lanes; the 8 sets its cache
    keeps come to at most 40 MB (every width at 2^16 lanes). A ``top`` or
    ``doubling`` entry is about one lane mask, and their 64 and 32 entries
    at most 4.8 MB and 4.6 MB. Wider masks grow with the values, so they
    are built per call and dropped.
    """

    def __init__(self, ints: Sequence[int], reach: int = 0):
        self.lo = lo = min(min(ints), reach)
        self.hi = hi = max(max(ints), reach)
        self.m = len(ints).bit_length() - 1
        size = ((hi - lo).bit_length() + 9) // 8
        self.width = 8 * size
        buf = bytearray(len(ints) * size)
        if size <= 8:
            slots = array("Q", map((-lo).__add__, ints) if lo else ints)
            if sys.byteorder == "big":
                slots.byteswap()
            raw = slots.tobytes()
            for b in range(size):
                buf[b::size] = raw[b::8]
        else:
            for k in range(0, len(ints), _PACK_CHUNK):
                buf[k * size:(k + _PACK_CHUNK) * size] = b"".join(
                    [(x - lo).to_bytes(size, "little") for x in ints[k:k + _PACK_CHUNK]]
                )
        self.packed = int.from_bytes(buf, "little")
        self.top = _masks(_top_mask, self.width, self.m)

    @property
    def avoiding(self) -> tuple[int, ...]:
        """Per element i, the top bit of every lane whose index avoids i."""
        return _masks(_avoiding_masks, self.width, self.m)

    def negated(self) -> "_Lanes":
        """The lanes of ``-ints``, read off this packing, not packed again.

        For ``-ints`` the range is ``[-hi, -lo]``, so lane k holds
        ``-ints[k] + hi = (hi - lo) - (ints[k] - lo)``: the same width,
        and every lane at once is ``(hi - lo) * ones - packed``.
        """
        neg = copy(self)
        neg.lo, neg.hi = -self.hi, -self.lo
        neg.packed = (self.hi - self.lo) * (self.top >> self.width - 1) - self.packed
        return neg

    def shift(self, x: int, i: int) -> int:
        """Lane k of the result is lane k + 2^i of x."""
        return x >> (self.width << i)

    def steps(self, i: int) -> int:
        """Lane k holds ``u[k + 2^i] - u[k] + Q``: the step by element i."""
        p = self.packed
        return self.shift(p, i) + (self.top >> 1) - p

    def first_clear(self, x: int, mask: int) -> int | None:
        """Lowest lane whose top bit is set in mask and clear in x.

        With ``x = plus + top - minus`` that is the lowest lane of the mask
        with ``plus_k < minus_k``.
        """
        bad = mask & ~x
        return ((bad & -bad).bit_length() - 1) // self.width if bad else None


class _CoreLanes(_Lanes):
    """Caps ``c[k]``, k < 2^n, tested against subset sums of weight vectors.

    Lane k stands for the subset of weight positions with bitmask k. The
    test is the lower core's; the upper core's is this one on negated caps
    and weights. ``caps[0] = 0``, and each weight vector shares one sign and
    sums to ``total``, so every subset sum lies between 0 and ``total`` and
    the lanes span the caps and ``total``. Negative weights stay exact: every
    lane of the doubled sums holds a subset sum minus ``lo``, in
    ``[0, hi - lo]``, so no carry or borrow crosses a lane.
    """

    def __init__(self, caps: Sequence[int], total: int):
        super().__init__(caps, total)
        self.bound = self.packed + self.top  # caps + H per lane, less the sums
        self.doubling = _masks(_doubling_masks, self.width, self.m)

    def first_escape(self, weights: Sequence[int]) -> int | None:
        """Lowest lane whose subset sum exceeds its cap.

        The sums double inside the lanes: the 2^i lanes built so far,
        then the same lanes plus ``weights[i]``, which is bitmask order.
        """
        s = -self.lo
        for x, (ones, shift) in zip(weights, self.doubling):
            s += (s + x * ones) << shift
        return self.first_clear(self.bound - s, self.top)


@lru_cache(maxsize=32)
def _row_masks(width: int, n: int) -> list[tuple[int, int, tuple]]:
    """The masks of a row of 2^n lanes of ``width`` bits for :class:`_LaneRows`.

    Per rank r: the mask E, the shift by
    2^r lanes and the spread steps. Step j, from the child's high index bit
    down to r, moves the lanes whose index has bit j set up by 2^j lanes,
    so rank r runs the steps of rank r + 1 and one more.
    """
    size = width // 8
    ranks, steps = [], ()
    for r in range(n - 1, -1, -1):
        if r < n - 1:
            steps += ((_lane_mask(b"\xff" * size, n, 1 << r) << (width << r), width << r),)
        ranks.append((_lane_mask((1).to_bytes(size, "little"), n, 1 << r), width << r, steps))
    return ranks[::-1]


class _LaneRows:
    """The rows of the table of :func:`chainrep.chains.chain_opt_all`, packed.

    Row T[S] of n = m - |S| index bits is one int of 2^n lanes, ``width``
    bits each; lane R holds ``T[S][R] + bias``. Every entry is a sum of at
    most m increments ``ints[S|i] - ints[S]``, each in ``[-span, span]``
    with span the range of ``ints``, so with ``bias = m * span`` every lane
    lies in ``[0, 2 * bias]``. The width is whole bytes with one guard bit
    above ``2 * bias``, so with ``H = 2^(width-1)`` every lane is below H.

    The row through element i of rank r among the n elements outside S is
    ``sp | ((sp + d * E) << (width * 2^r))``: sp is T[S|i] with a zero bit
    inserted at index bit r (its lanes where bit r is set read 0), E is 1
    in the other lanes, and d the increment of i at S. Those lanes of
    ``sp + d * E`` hold ``T[S|i][R - i] + d + bias``, and
    ``T[S|i][R - i] + d >= -|R| * span``, so they stay in ``[0, 2 * bias]``
    too. The maximum of two rows x, y reads the top bit of
    ``(y | top) - x``, whose lanes ``H + y_k - x_k`` lie in ``(0, 2H)``.
    So every intermediate lane stays in ``[0, 2^width)``: no carry or
    borrow crosses a lane, and each big-int result is exactly the
    lane-wise one.

    The masks of each lane count come from :func:`_row_masks`, and the top
    bits from :func:`_top_mask`, shared with :class:`_Lanes`. Those of
    lanes up to 64 bits stay cached across tables, 32 pairs of width and
    lane count in :func:`_row_masks`, two widths at every count up to 2^15
    lanes. By ``__sizeof__``: 3.5 MB for 2^14 lanes of 64 bits, 6.4 MB for
    every count up to that, at most 28 MB for any 32 pairs. Wider masks
    grow with the values (about 200 MB for 2^14 lanes of 1000-digit
    values), so they are built for one table and dropped with it.
    """

    def __init__(self, ints: Sequence[int]):
        self.m = len(ints).bit_length() - 1
        self.bias = self.m * (max(ints) - min(ints))
        self.width = 8 * (((2 * self.bias).bit_length() + 8) // 8)
        self.masks = [(_masks(_top_mask, self.width, n), _masks(_row_masks, self.width, n))
                      for n in range(self.m + 1)]

    def row(self, children: Sequence[tuple[int, int]]) -> int:
        """The lane-wise maximum over the rows through each element outside S.

        ``children`` lists (T[S|i], d) for those elements in index order.
        """
        top, ranks = self.masks[len(children)]
        guard = self.width - 1
        best = None
        for (sp, d), (ones, shift, steps) in zip(children, ranks):
            for mask, step in steps:
                t = sp & mask
                sp = (sp ^ t) | (t << step)
            cand = sp | ((sp + d * ones) << shift)
            if best is None:
                best = cand
            else:
                sel = ((cand | top) - best) & top
                best ^= (cand ^ best) & (sel - (sel >> guard))
        return best

    def unpack(self, row: int) -> list[int]:
        """The entries of a row of 2^m lanes, from one ``to_bytes``."""
        size = self.width // 8
        buf = row.to_bytes(size << self.m, "little")
        return [int.from_bytes(buf[k:k + size], "little") - self.bias
                for k in range(0, len(buf), size)]


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

    # Cached, since every checked subset lookup reads it.
    @cached_property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def subsets(self) -> range:
        """All subset masks, in increasing bitmask order."""
        return range(1 << self.size)

    def require_mask(self, mask: int) -> None:
        """Raise ValueError unless mask encodes a subset of this ground set."""
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"subset mask {mask} is outside 0..{self.full_mask} "
                             f"for a ground set of m = {self.size} elements")

    # Built once on first lookup; not a field, so equality and hashing see
    # only the labels.
    @cached_property
    def _positions(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.elements)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise KeyError(f"unknown element label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        positions = self._positions
        mask = 0
        for lab in labels:
            try:
                mask |= 1 << positions[lab]
            except (KeyError, TypeError):
                self.index(lab)  # raises the unknown-label KeyError
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.require_mask(mask)
        return tuple(
            lab for i, lab in enumerate(self.elements) if mask >> i & 1
        )

    def subset_key(self, mask: int) -> str:
        """Canonical comma-joined key for a subset ('' for the empty set)."""
        return ",".join(self.labels_of(mask))

    def subsets_by_cardinality(self) -> list[int]:
        """All masks ordered by cardinality, then by label tuple."""
        return self.keyed_subsets()[0]

    def keyed_subsets(self) -> tuple[list[int], list[str]]:
        """The masks of :meth:`subsets_by_cardinality` and their subset keys."""
        # Label tuples of every mask, doubled over the elements: mask
        # s | 1 << i extends the tuple of s < 2^i by element i.
        labels = [()]
        for lab in self.elements:
            labels += [t + (lab,) for t in labels]
        order = sorted(self.subsets(), key=lambda s: (len(labels[s]), labels[s]))
        return order, [",".join(labels[s]) for s in order]


@dataclass(frozen=True, init=False, repr=False)
class SetFunction:
    """Dense exact-valued function on all subsets of a ground set.

    ``image = (ints, den)`` is the canonical integer image (see the module
    docstring) and ``values[mask] == Fraction(ints[mask], den)``; the empty
    set must have value zero. ``values`` is built on first read and kept.
    """

    ground: GroundSet
    image: tuple[tuple[int, ...], int]

    def __init__(self, ground: GroundSet, values: Iterable[ScalarLike]):
        self._store(ground, *int_image([as_scalar(x) for x in values]))

    @classmethod
    def from_image(
        cls, ground: GroundSet, ints: Iterable[int], den: int
    ) -> "SetFunction":
        """The function with values ``ints[mask] / den``, in canonical form."""
        v = cls.__new__(cls)
        v._store(ground, ints, den)
        return v

    def _store(self, ground: GroundSet, ints: Iterable[int], den: int) -> None:
        ints = tuple(ints)
        if len(ints) != 1 << ground.size:
            raise ValueError(f"expected {1 << ground.size} values, got {len(ints)}")
        if ints[0] != 0:
            raise ValueError("the empty set must have value 0")
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        g = gcd(den, *ints)  # also refuses anything but integers
        if g != 1:
            ints, den = tuple(x // g for x in ints), den // g
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "image", (ints, den))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        ints, den = self.image
        # One Fraction per distinct value, shared by the subsets that take it.
        frac = {x: Fraction(x, den) for x in set(ints)}
        return tuple(map(frac.__getitem__, ints))

    @classmethod
    def from_callable(
        cls, ground: GroundSet, fn: Callable[[int], ScalarLike]
    ) -> "SetFunction":
        return cls(ground, tuple(as_scalar(fn(s)) for s in ground.subsets()))

    def __call__(self, mask: int) -> Fraction:
        self.ground.require_mask(mask)
        ints, den = self.image
        return Fraction(ints[mask], den)

    def value_by_labels(self, labels: Iterable[str]) -> Fraction:
        return self(self.ground.mask_of(labels))

    def __repr__(self) -> str:
        return f"SetFunction(ground={self.ground!r}, values={self.values!r})"


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

    Uses the one-element test v(A) <= v(A | {i}): per element i, one lane
    comparison over every A without i. The witness is the first pair in
    increasing bitmask order of A, then index order of i, so it is
    deterministic.
    """
    lanes = _Lanes(v.image[0])
    p = lanes.packed
    best = None
    for i, avoiding in enumerate(lanes.avoiding):
        k = lanes.first_clear(lanes.shift(p, i) + lanes.top - p, avoiding)
        if k is not None and (best is None or k < best[0]):
            best = k, i
            if k == 0:  # no later element can have an earlier lane
                break
    if best is None:
        return True, None
    a, i = best
    return False, MonotoneWitness(a, a | 1 << i)


def require_monotone(v: SetFunction, what: str, error: type = NotMonotone) -> None:
    """Raise ``error`` naming ``what`` and the first witness unless v is monotone."""
    ok, w = is_monotone(v)
    if not ok:
        small, large = v.ground.subset_key(w.small), v.ground.subset_key(w.large)
        raise error(f"{what} requires a monotone set function; "
                    f"v decreases from {{{small}}} to {{{large}}}")


def _exchange_violation(lanes: _Lanes) -> ExchangeWitness | None:
    # The least (A, i, j) with v(A|i) + v(A|j) < v(A|i|j) + v(A): the step
    # by i at A falls below the step by i at A|j.
    m, avoiding = lanes.m, lanes.avoiding
    best = None
    for i in range(m):
        step = lanes.steps(i)
        lifted = step + lanes.top  # step + top - after, per pair j
        for j in range(i + 1, m):
            k = lanes.first_clear(lifted - lanes.shift(step, j), avoiding[i] & avoiding[j])
            if k is not None and (best is None or k < best[0]):
                best = k, i, j
                if k == 0:  # no later pair can have an earlier lane
                    return ExchangeWitness(*best)
    return ExchangeWitness(*best) if best else None


def is_submodular(v: SetFunction) -> tuple[bool, ExchangeWitness | None]:
    """Decide submodularity via the local exchange test; first witness on failure."""
    w = _exchange_violation(_Lanes(v.image[0]))
    return w is None, w


def is_supermodular(v: SetFunction) -> tuple[bool, ExchangeWitness | None]:
    """Mirror of :func:`is_submodular`: v is supermodular iff -v is submodular."""
    w = _exchange_violation(_Lanes(v.image[0]).negated())
    return w is None, w


def dual_transform(v: SetFunction) -> SetFunction:
    """Complement transform w(A) = v(full) - v(complement of A).

    An involution that swaps submodular and supermodular while preserving
    monotonicity; fixes the values at the empty set and the full set.
    """
    ints, den = v.image
    top = ints[-1]  # complements of 0, 1, 2, ... are full, full - 1, ...
    return SetFunction.from_image(v.ground, [top - x for x in reversed(ints)], den)


def is_null_set(v: SetFunction, n_mask: int) -> bool:
    """True iff v(N|A) = v(~N&A) = v(A) for every subset A."""
    v.ground.require_mask(n_mask)
    vals = v.image[0]  # canonical, so equal values have equal ints
    full = v.ground.full_mask
    comp = full ^ n_mask
    for a in v.ground.subsets():
        va = vals[a]
        if vals[n_mask | a] != va or vals[comp & a] != va:
            return False
    return True
