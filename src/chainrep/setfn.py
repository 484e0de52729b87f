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
producers (the complement transform, the recursion step, the law-invariant
function and measures), which divides out its gcd. The CLI parser, like
the scalar constructor, builds the lcm image of reduced ratios: for each
prime p of den, the value whose denominator carries p's full power has an
int that p does not divide, so both skip that gcd. Every predicate and
transform reads it, and ``v(mask)`` builds only the Fraction it returns;
``values`` is materialised from it on first read, however the function was
built, one Fraction per distinct value, and then kept. On the 2-vCPU VM of
the figures below, that first read costs about 40 ms at m = 14 when all
2^14 values are distinct and about 2 ms for a law-invariant function (136
distinct values), against about 1.3 ms for :func:`dual_transform`.

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
cached (see :class:`_Lanes`). Each :class:`SetFunction` packs its image
once, on first use, and keeps the lanes as it keeps ``values``: its
monotone, submodular and supermodular tests and route (a) of
:mod:`chainrep.represent` share them. A lane test that passes costs one
``&`` and one compare per mask (:meth:`_Lanes.first_clear`). On a 2-vCPU
VM, :func:`is_submodular` on a fresh submodular input at m = 14 with
16-bit lanes takes about 3.7 ms, of which packing is about 0.7 ms, and
:func:`is_monotone` on the same function about 0.6 ms more (1.2 ms when
it packs). The trade-off: a scan stops early only when a violation sits
at the empty set (lane 0), so another failing input costs as much as a
passing one, and even an early stop pays for packing the image: a generic
failing input at m = 8 takes about 0.02 ms.

The all-subsets table of chain optima runs on the same lane arithmetic
(:class:`_LaneRows`): each row is one int, and one spread, add and lane-wise
maximum per element builds a row from its children. Route (d) of
:mod:`chainrep.represent` packs the subset sums of many nested pairs side
by side, one int per pass, their weights sliced from the pass's one gather
of v (:func:`_first_nested_escape`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm
from operator import attrgetter
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

# Most passed weight tuples one _CoreLanes remembers, and most passed
# prefixes route (b)'s walk remembers (see the _CoreLanes docstring).
_PASSED_LIMIT = 1 << 13


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
    """The top bit of every lane, shared by :class:`_Lanes`, :class:`_LaneRows`
    and the passes of :func:`_first_nested_escape`."""
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
    at most 4.8 MB and 4.6 MB. The passes of :func:`_first_nested_escape`
    add ``top`` entries of at most 1 MB, twice ``_PAIR_PASS_BYTES``, and
    under 2 MB per width. Wider masks grow with the values, so they are
    built per call and dropped.

    A :class:`SetFunction` keeps the lanes of its image once packed; the
    negated lanes and the core lanes are built per call.
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
        neg = object.__new__(type(self))
        vars(neg).update(vars(self))
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
        with ``plus_k < minus_k``. Every operand is non-negative: a negative
        one (``~x``, ``-bad``) would make ``&`` convert it to two's
        complement first, one more pass over all the lanes. So the passing
        case costs one ``&`` and one compare, and the failing one finds the
        lowest set bit of the clear top bits through ``bad - 1``.
        """
        hit = x & mask
        if hit == mask:
            return None
        bad = mask ^ hit
        return ((bad ^ (bad - 1)).bit_length() - 1) // self.width


class _CoreLanes(_Lanes):
    """Caps ``c[k]``, k < 2^n, tested against subset sums of weight vectors.

    Lane k stands for the subset of weight positions with bitmask k. The
    test is the lower core's; the upper core's is this one on negated caps
    and weights. ``caps[0] = 0``, and each weight vector shares one sign and
    sums to ``total``, so every subset sum lies between 0 and ``total`` and
    the lanes span the caps and ``total``. Negative weights stay exact: every
    lane of the doubled sums holds a subset sum minus ``lo``, in
    ``[0, hi - lo]``, so no carry or borrow crosses a lane.

    Chains often share a measure: the 5040 chains of a random 7-element
    capped sum give 15 to 140. ``passed`` holds the weight tuples shown to
    stay under the caps, so a repeat answers None with no lane pass. A
    failing tuple is never added, so its first occurrence returns its lane.
    At most ``_PASSED_LIMIT`` = 2^13 tuples are kept; later ones are tested
    but not remembered: about 2 MiB at m = 9 when all 9! measures differ.
    The memo serves the tails of route (b), whose prefix walk keeps its
    own memo of passed prefixes under the same limit, the single core
    checks of :mod:`chainrep.represent`, and the classes of route (d)
    whose pairs have wide lanes (see :func:`_first_nested_escape`).
    """

    def __init__(self, caps: Sequence[int], total: int):
        super().__init__(caps, total)
        self.bound = self.packed + self.top  # caps + H per lane, less the sums
        self.doubling = _masks(_doubling_masks, self.width, self.m)
        self.passed: set[tuple[int, ...]] = set()

    def first_escape(self, weights: Sequence[int]) -> int | None:
        """Lowest lane whose subset sum exceeds its cap.

        The sums double inside the lanes: the 2^i lanes built so far,
        then the same lanes plus ``weights[i]``, which is bitmask order.
        """
        key = tuple(weights)
        if key in self.passed:
            return None
        s = -self.lo
        for x, (ones, shift) in zip(key, self.doubling):
            s += (s + x * ones) << shift
        k = self.first_clear(self.bound - s, self.top)
        if k is None and len(self.passed) < _PASSED_LIMIT:
            self.passed.add(key)
        return k


# Most lane bytes one pass of :func:`_first_nested_escape` holds.
_PAIR_PASS_BYTES = 1 << 19

# Lane bytes of one nested pair from which :func:`_first_nested_escape`
# tests a class one pair at a time.
_PAIR_LANE_BYTES = 512

# 1 for a byte whose top bit is clear: read off a lane's top byte, a failure.
_FAILS = bytes(b < 128 for b in range(256))


@lru_cache(maxsize=32)
def _class_subsets(m: int, n: int) -> tuple[list[int], tuple[int, ...]]:
    """The K sets A with |A| = n of m elements in bitmask order, and their submasks.

    Local index c stands for the c-th submask of an A in increasing order,
    so bit k of c stands for the k-th element of A; ``subs[c * K + t]`` is
    that submask of the t-th A.
    """
    masks = [a for a in range(1 << m) if a.bit_count() == n]
    lists = []
    for a in masks:
        subs = [0]
        for i in range(m):
            if a >> i & 1:
                subs += [s | 1 << i for s in subs]
        lists.append(subs)
    return masks, tuple(chain.from_iterable(zip(*lists)))


@lru_cache(maxsize=None)
def _local_steps(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The nested-pair measures of an n-set A, as local indices (see
    :func:`_class_subsets`): per element k, the pair (hi, lo) of 2^n each.

    With B the j-th submask of A, the chain that lists B, then A - B, gives
    element k the weight ``local[hi[j]] - local[lo[j]]``: v(P + k) - v(P),
    where P = j & (2^k - 1) if k is in B, else j | (2^k - 1). Both sides
    of :func:`_first_nested_escape` read it, 2 * n * 2^n entries per n.
    """
    steps = []
    for k in range(n):
        lo = tuple(j & (1 << k) - 1 if j >> k & 1 else j | (1 << k) - 1 for j in range(1 << n))
        steps.append((tuple(p | 1 << k for p in lo), lo))
    return tuple(steps)


def _first_nested_escape(values: Sequence[int]) -> tuple[int, int, int] | None:
    """The first nested pair whose telescoped measure leaves the core on A.

    ``values`` is a monotone image or its negation, so every weight shares
    the sign of ``values[-1]``. Returns the first failing (A, B, C): A in
    bitmask order, then B, then C in increasing submask order, or None
    when every measure lies in its local core.

    Classes of equal |A| = n >= 2 run in increasing n. (For |A| <= 1 every
    measure is v on A.) After a class fails, a later class tests only its
    A below the failing one, a prefix of its list, so the witness is the
    first in bitmask order over all classes. A class whose pairs have
    fewer than ``_PAIR_LANE_BYTES`` of lanes each runs in lane passes
    (:func:`_first_escape_in_passes`); a wider one one pair at a time on
    the :class:`_CoreLanes` of each A, whose memo tests each distinct
    measure of the A once, since there testing the repeated measures in
    lanes costs more than finding them.
    """
    m = len(values).bit_length() - 1
    flip = values[-1] < 0
    size = (abs(values[-1]).bit_length() + 9) // 8
    lanes = [(-x if flip else x).to_bytes(size, "little") for x in values]
    best = None
    for n in range(2, m + 1):
        masks, subs = _class_subsets(m, n)
        K = len(masks)
        count = K if best is None else bisect_left(masks, best[0])
        if not count:  # and none in a later class, whose sets are larger still
            break
        if size << n < _PAIR_LANE_BYTES:
            hit = _first_escape_in_passes(lanes, subs, K, n, count, size, flip)
        else:
            hit = _first_escape_per_a(values, subs, K, n, count)
        if hit is not None:
            t, j, c = hit
            best = masks[t], subs[j * K + t], subs[c * K + t]
    return best


def _first_escape_per_a(values: Sequence[int], subs: tuple, K: int, n: int,
                        count: int) -> tuple[int, int, int] | None:
    """The first failing (t, j, c) of the first ``count`` sets A of a class,
    one pair at a time. The caps are ``values`` as given, so the lower core
    test of a negated image is the upper core test of the image."""
    steps = _local_steps(n)
    for t in range(count):
        local = [values[c] for c in subs[t::K]]  # v on the submasks of A
        core = _CoreLanes(local, local[-1])
        for j in range(1 << n):
            c = core.first_escape([local[hi[j]] - local[lo[j]] for hi, lo in steps])
            if c is not None:
                return t, j, c
    return None


def _first_escape_in_passes(lanes: list[bytes], subs: tuple, K: int, n: int, count: int,
                            size: int, flip: bool) -> tuple[int, int, int] | None:
    """The first failing (t, j, c) of the first ``count`` sets A of a class,
    in lane passes.

    ``lanes`` holds the image in ``size``-byte lanes, negated when
    ``flip`` (``values[-1] < 0``), where the test mu(C) <= v(C) becomes
    mu(C) >= v(C). Then 0 <= v(C) <= v(A) <= span for C <= A, and each
    measure of A has weights >= 0 that sum to v(A). Lane (c, j, t) of a
    pass holds the c-th subset sum of the measure of the j-th submask of
    its t-th A, c outermost: blocks c + 2^k are blocks c < 2^k plus the
    weights of element k, copied over 2^k blocks by doubling, and the caps
    v(C) of each c and A are copied across j by bytes repetition. Lanes
    take :class:`_Lanes`' width, so every weight, sum and cap lies in
    ``[0, span]`` with ``span < H = 2^(width-1)``: ``(caps | top) - sums``
    (or ``(sums | top) - caps``) has lanes in ``(0, 2^width)``, no carry
    or borrow crosses a lane, and the top bit of a lane is clear iff it
    fails. ``top`` is :func:`_top_mask` for the next power of two of
    lanes, the surplus shifted out.

    A pass holds whole A's, 4^n lanes each: as many as fit in
    ``_PAIR_PASS_BYTES``, and at least one. (A class runs here only when
    ``size * 2^n < _PAIR_LANE_BYTES`` = 512, so one A takes under 2^17
    bytes and a pass holds at least 4.) Its one gather is the caps, row c
    the c-th submask of each of its A's; the weights of element k are the
    rows hi and lo of :func:`_local_steps`, slices of those caps. Within a
    pass the first failing A comes first, then j, then c.
    """
    subsets, width = 1 << n, 8 * size
    per = max(1, _PAIR_PASS_BYTES // (size << 2 * n))  # whole A's per pass
    for t0 in range(0, count, per):
        na = min(per, count - t0)
        row = na * size  # the bytes of one row of caps, t order
        caps = b"".join(map(lanes.__getitem__, chain.from_iterable(
            subs[c * K + t0:c * K + t0 + na] for c in range(subsets))))
        rows = [caps[r:r + row] for r in range(0, len(caps), row)]
        step = row << n  # the bytes of one element's weights, (j, t) order
        sums = 0
        for k, (hi, lo) in enumerate(_local_steps(n)):
            w = (int.from_bytes(b"".join(map(rows.__getitem__, hi)), "little")
                 - int.from_bytes(b"".join(map(rows.__getitem__, lo)), "little"))
            for i in range(k):
                w |= w << (8 * step << i)
            sums |= (sums + w) << (8 * step << k)
        caps = b"".join([r * subsets for r in rows])  # across j: (c, j, t) order
        lanes_in_pass = len(caps) // size
        p = (lanes_in_pass - 1).bit_length()
        top = _masks(_top_mask, width, p) >> ((1 << p) - lanes_in_pass) * width
        base = int.from_bytes(caps, "little")
        x = (sums | top) - base if flip else (base | top) - sums
        if x & top != top:
            fails = x.to_bytes(len(caps), "little")[size - 1::size].translate(_FAILS)
            t = next(t for t in range(na) if 1 in fails[t::na])
            col = fails[t::na]  # (c, j) order
            j = min(i for i in (col[c:c + subsets].find(1) for c in range(0, len(col), subsets))
                    if i >= 0)
            return t0 + t, j, col[j::subsets].find(1)
    return None


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
    too. The maximum of two rows x, y is ``y + (d & (sel - (sel >> guard)))``
    with ``d = (x | top) - y``, ``sel = d & top`` and ``guard = width - 1``:
    lane k of d is ``H + x_k - y_k``, in ``(0, 2H)``, its top bit is set iff
    ``x_k >= y_k``, and then its low bits hold ``x_k - y_k``, which the
    mask ``sel - (sel >> guard)`` keeps. So every intermediate lane stays in
    ``[0, 2^width)``: no carry or borrow crosses a lane, and each big-int
    result is exactly the lane-wise one.

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
        self.ints = ints
        self.m = len(ints).bit_length() - 1
        self.bias = self.m * (max(ints) - min(ints))
        self.width = 8 * (((2 * self.bias).bit_length() + 8) // 8)
        self.masks = [(_masks(_top_mask, self.width, n), _masks(_row_masks, self.width, n))
                      for n in range(self.m + 1)]

    def optima(self) -> list[int]:
        """The entries of T[0]: every row built in place, S in decreasing order.

        Each child T[S|i] is read straight from the table, the elements i
        outside S lowest first. S is the last reader of T[S|i] when i lies
        above S's highest bit (S is S|i less its highest element), so that
        row is freed as it is read.
        """
        ints, guard = self.ints, self.width - 1
        full = len(ints) - 1
        table: list = [None] * (full + 1)
        table[full] = self.bias  # the one lane of T[full], holding 0
        for s in range(full - 1, -1, -1):
            vs = ints[s]
            out = full ^ s
            top, ranks = self.masks[out.bit_count()]
            best = None
            for ones, shift, steps in ranks:
                b = out & -out
                out ^= b
                sp = table[s | b]
                if b > s:
                    table[s | b] = None
                for mask, step in steps:
                    t = sp & mask
                    sp = (sp ^ t) | (t << step)
                sp |= (sp + (ints[s | b] - vs) * ones) << shift
                if best is None:
                    best = sp
                else:
                    d = (best | top) - sp
                    sel = d & top
                    best = sp + (d & (sel - (sel >> guard)))
            table[s] = best
        size = self.width // 8
        buf = table[0].to_bytes(size << self.m, "little")
        return [int.from_bytes(buf[k:k + size], "little") - self.bias
                for k in range(0, len(buf), size)]


class _Record:
    """Frozen record: the base of the package's value types.

    The fields are the names annotated in the class body, in order, kept
    as ``_fields``. Making a class runs no ``exec`` and the package loads
    neither ``dataclasses`` nor ``inspect``, so a CLI child's start-up
    pays for neither. A record is built from its fields by
    position or keyword, then ``__post_init__`` runs; it equals a record
    of the same class with equal fields, hashes its field tuple, prints
    as a dataclass does and refuses assignment and deletion. A class's own
    ``__init__`` or ``__repr__`` replaces these. Attributes outside the
    fields, such as ``cached_property`` values, sit in the instance
    ``__dict__`` and stay out of equality, hashing and ``repr``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, or the TypeError a function would raise."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            given[name] = value
        missing = [name for name in fields if name not in given]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [given[name] for name in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(_Record):
    """An ordered tuple of distinct element labels, at most 16 of them."""

    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for lab in self.elements:  # else two subsets could share a subset_key
            if not lab or "," in lab:
                raise ValueError(f"label {lab!r} must be nonempty and comma-free")
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
        # Sort keys and subset keys of every mask, doubled over the
        # elements: mask s | 1 << i extends s < 2^i by element i. A sort
        # key holds the 1-based ranks of the labels in sorted order as
        # base-(m + 1) digits; every digit is nonzero, so integer order is
        # cardinality first, then label tuple.
        base = self.size + 1
        rank = {lab: r for r, lab in enumerate(sorted(self.elements), 1)}
        keys, names = [0], [""]
        for lab in self.elements:
            r = rank[lab]
            keys += [key * base + r for key in keys]
            names += [lab] + [f"{name},{lab}" for name in names[1:]]
        order = sorted(self.subsets(), key=keys.__getitem__)
        return order, [names[s] for s in order]


class SetFunction(_Record):
    """Dense exact-valued function on all subsets of a ground set.

    ``image = (ints, den)`` is the canonical integer image (see the module
    docstring) and ``values[mask] == Fraction(ints[mask], den)``; the empty
    set must have value zero. ``values`` is built on first read and kept,
    and so are the lanes of the sign tests, packed on first use; neither
    is a field, so equality, hashing and ``repr`` see only the image.
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
        v = cls._from_lowest_terms(ground, ints, den)
        ints, den = v.image
        g = gcd(den, *ints)  # also refuses anything but integers
        return v if g == 1 else cls._from_lowest_terms(ground, [x // g for x in ints], den // g)

    @classmethod
    def _from_lowest_terms(cls, ground: GroundSet, ints: Iterable[int], den: int):
        # No gcd: the lcm image of reduced ratios is in lowest terms already.
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
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "image", (ints, den))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        ints, den = self.image
        # One Fraction per distinct value, shared by the subsets that take it.
        frac = {x: Fraction(x, den) for x in set(ints)}
        return tuple(map(frac.__getitem__, ints))

    # Shared by is_monotone, is_submodular, is_supermodular and route (a).
    @cached_property
    def _lanes(self) -> _Lanes:
        return _Lanes(self.image[0])

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


class MonotoneWitness(_Record):
    """Nested pair with v(small) > v(large); large = small plus one element."""

    small: int
    large: int


class ExchangeWitness(_Record):
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

    def inequality(self, ground: GroundSet) -> str:
        """The violated inequality, each subset named by its labels."""
        x, y = self.pair_masks()
        a, b, c, d = (f"v({{{ground.subset_key(s)}}})" for s in (x, y, x | y, x & y))
        return f"{a} + {b} < {c} + {d}"


def is_monotone(v: SetFunction) -> tuple[bool, MonotoneWitness | None]:
    """Decide monotonicity; on failure return the first local witness.

    Uses the one-element test v(A) <= v(A | {i}): per element i, one lane
    comparison over every A without i. The witness is the first pair in
    increasing bitmask order of A, then index order of i, so it is
    deterministic.
    """
    lanes = v._lanes
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
    w = _exchange_violation(v._lanes)
    return w is None, w


def is_supermodular(v: SetFunction) -> tuple[bool, ExchangeWitness | None]:
    """Mirror of :func:`is_submodular`: v is supermodular iff -v is submodular."""
    w = _exchange_violation(v._lanes.negated())
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
