"""Core membership and the four-way characterization of submodularity.

For a monotone set function v with v(empty) = 0, the following are
equivalent, and this module decides each one independently:

(a) v is submodular;
(b) the telescoped measure of every maximal chain is dominated by v
    everywhere (lies in the lower core at the full set);
(c) v(A) equals the maximum over all chains of the chain measure of A;
(d) for every nested pair B <= A, telescoping along a chain that has both
    A and B as prefixes yields, after restriction to A, a measure inside
    the lower core at A (which then attains the local supremum at B).

The supermodular mirror replaces maxima by minima and the lower core by
the upper core. It is the same statement for -v: v is supermodular iff -v
is submodular, every chain measure of -v is the negated one of v, and mu
lies in the upper core of v iff -mu lies in the lower core of -v. So each
route computes the submodular side only, and the mirror runs it on the
negated integer image. Negation keeps every violating triple, chain,
nested pair and mask in its order, so the witnesses are the same.

Each route runs on the common-denominator integer image that v stores, so
arithmetic is exact and no Fraction, chain or measure object is built
inside the loops:

* (b) sweeps the m! chains in lexicographic order: the sweep is the
  statement being checked, so it refuses ground sets above
  ``SWEEP_LIMIT`` = 9 elements. It walks the chain prefixes depth first
  and skips a prefix whose set and weights repeat those of one whose
  chains all passed, since every completion of a prefix depends on its
  set only;
* (c) fills one all-subsets table of chain optima,
  :func:`chainrep.chains.chain_opt_all`, in O(3^m * m), and rebuilds the
  lex-first witness chain for the first failing subset only;
* (d) reads each nested pair's measure off v on the submasks of A: with
  B first, element k of A adds v(P + k) - v(P), where P is the elements of
  B below k if k is in B, else B and the elements of A below k; it is
  compared with v over the submasks of A only.

The core comparisons of (b) and of :func:`in_lower_core`,
:func:`in_upper_core` and :func:`local_core_attainment` run on the lane
kernel of :mod:`chainrep.setfn` (``_CoreLanes``): the caps v(C) are packed
once into lanes of one int, each telescoped measure's subset sums are
built by doubling inside the lanes, about 4 big-int operations per
element, and compared with the caps in three more. A lane is wide enough
for every cap and sum, so no carry crosses it and the result is exact; the
first violated subset is the lowest failing lane, the same witness as the
literal scan in bitmask order. The lanes remember the measures that passed,
so a repeated measure costs one set lookup. (b) telescopes one step per
prefix of up to m - 3 elements and three for each of the 3! tails of a
head, at most about 3.2 steps per chain, and costs O(m) big-int
operations per distinct measure. It remembers up to 2^13 prefixes whose
chains all passed and skips their repeats: the 5040 chains of a
7-element modular function take 210 lane tests, the 3! tails of each
4-element head set once. On a 2-vCPU VM route (b) takes about 1.7, 8
and 84 ms at m = 7, 8 and 9 on random capped sums, 1.7, 3.0 and 2.7
times faster than a sweep that visits every chain. Where no prefix
repeats, as for v(A) = floor(sqrt(10^8 * w(A))), the keys cost up to 9 %
more time at m = 7 and 8, and 1.4 MiB more memory at m = 9.

(d) tests every nested pair of a class of equal |A| at once
(``setfn._first_nested_escape``): one lane pass gathers v on the submasks
of whole sets A, and the weights of all their pairs are slices of that
gather, read through one table of local indices per |A|. The pass holds
the subset sums of many pairs side by side, about a dozen big-int
operations per element over up to 512 KiB of lanes, so no Python work is
done per pair or per lane. The 5^m lanes of the 3^m pairs are the cost:
on a 2-vCPU VM, about 0.2, 0.6, 2.2 and 11 ms at m = 6, 7, 8 and 9 on
capped sums of small integers, 3.7, 4.4, 3.4 and 2.0 times faster than
one lane test per pair. A class whose pairs take 512 bytes of lanes or
more (wide values, or |A| = 9 on one-byte lanes) still runs one pair at a
time on the core lanes of each A, whose memo tests each distinct measure
of the A once: there the repeated measures cost more in lanes than in
Python, and 1000-digit values take as long as before.

The chain optima agree with the literal m! sweep, witness chain included;
the tests check every route against its literal oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from .chains import (
    Chain,
    DiscreteMeasure,
    _require_size,
    chain_opt,
    chain_opt_all,
    chain_opt_path,
    extremal_measure,
    indicator,
    insert_nested_pair,
    subset_sums,
)
from . import setfn
from .setfn import (
    GroundSet, SetFunction, _CoreLanes, _Lanes, _Record, _exchange_violation,
    _first_nested_escape, int_image, require_monotone,
)


def sup_over_chains(v: SetFunction, a_mask: int) -> tuple[Fraction, Chain]:
    """Maximum over all chains of the telescoped measure of the subset.

    Returns the value together with the lexicographically first attaining
    chain. For monotone v the maximum dominates v at the subset, with
    equality everywhere iff v is submodular. Any v is answered: for
    non-monotone v it is the maximum over the signed telescoped measures,
    where :func:`chainrep.chains.extremal_measure` would refuse a chain
    with a negative increment.
    """
    v.ground.require_mask(a_mask)
    return chain_opt(v, indicator(a_mask, v.ground.size))


def inf_over_chains(v: SetFunction, a_mask: int) -> tuple[Fraction, Chain]:
    """Minimum counterpart of :func:`sup_over_chains`: the maximum for -v, negated.

    Like it, it answers any v, over the signed telescoped measures when v
    is not monotone.
    """
    v.ground.require_mask(a_mask)
    value, chain = chain_opt(v, [-x for x in indicator(a_mask, v.ground.size)])
    return -value, chain


def in_lower_core(
    v: SetFunction, mu: DiscreteMeasure
) -> tuple[bool, int | None]:
    """Membership of mu in the lower core of v at the full set.

    True iff mu matches v on the full set and mu(B) <= v(B) for every B.
    The witness is the first violating mask in bitmask order (the full
    mask doubles as the witness when only the total-mass equality fails).
    """
    return _core_membership(v, mu, lower=True)


def in_upper_core(
    v: SetFunction, mu: DiscreteMeasure
) -> tuple[bool, int | None]:
    """Mirror of :func:`in_lower_core` with domination reversed."""
    return _core_membership(v, mu, lower=False)


def _core_membership(
    v: SetFunction, mu: DiscreteMeasure, lower: bool
) -> tuple[bool, int | None]:
    if v.ground != mu.ground:
        raise ValueError("set function and measure live on different ground sets")
    full = v.ground.full_mask
    in_core, violated = _restricted_core_check(v, mu, full, lower)
    if in_core and mu.total != v(full):
        return False, full
    return in_core, violated


def local_core_sup(v: SetFunction, a_mask: int, b_mask: int) -> Fraction:
    """Constructive local-core supremum of mu(B) over measures capped by v on A.

    Telescopes v along a chain carrying both sets of the nested pair as
    prefixes; the resulting measure gives B exactly v(B), which is the
    supremum whenever v is submodular (for general v the constructed
    measure may fall outside the core; see :func:`local_core_attainment`).
    """
    return local_core_attainment(v, a_mask, b_mask).value


class LocalCoreReport(_Record):
    """Outcome of the constructive nested-pair check at (A, B)."""

    a_mask: int
    b_mask: int
    value: Fraction
    measure: DiscreteMeasure  # telescoped measure restricted to A
    in_core: bool
    violated: int | None  # first C <= A with measure(C) on the wrong side


def local_core_attainment(
    v: SetFunction, a_mask: int, b_mask: int, lower: bool = True
) -> LocalCoreReport:
    chain = insert_nested_pair(Chain.identity(v.ground), a_mask, b_mask)
    mu = extremal_measure(v, chain)
    restricted = DiscreteMeasure(
        v.ground,
        tuple(
            w if a_mask >> i & 1 else Fraction(0)
            for i, w in enumerate(mu.weights)
        ),
    )
    value = restricted.mass(b_mask)
    in_core, violated = _restricted_core_check(v, restricted, a_mask, lower)
    return LocalCoreReport(a_mask, b_mask, value, restricted, in_core, violated)


def _restricted_core_check(
    v: SetFunction, mu: DiscreteMeasure, a_mask: int, lower: bool
) -> tuple[bool, int | None]:
    # One lane comparison over the submasks of A, in increasing bitmask
    # order, with v and mu over one common denominator. The upper core is
    # the lower-core test of -mu against -v.
    vals, vden = v.image
    wts, wden = int_image(mu.weights)
    den = lcm(vden, wden) * (1 if lower else -1)
    vscale, wscale = den // vden, den // wden
    elems = [i for i in range(v.ground.size) if a_mask >> i & 1]
    subs = subset_sums([1 << i for i in elems])
    caps = [vals[c] * vscale for c in subs]
    local = [wts[i] * wscale for i in elems]
    k = _CoreLanes(caps, sum(local)).first_escape(local)
    return (True, None) if k is None else (False, subs[k])


class EquivalenceReport(_Record):
    """The four booleans of the chain-representation equivalence.

    All four agree for every monotone input; each carries the first
    witness found when false.
    """

    modular_side: str  # "submodular" or "supermodular"
    a_holds: bool
    a_witness: object | None
    b_holds: bool
    b_witness: tuple[Chain, int] | None
    c_holds: bool
    c_witness: tuple[int, Chain] | None
    d_holds: bool
    d_witness: tuple[int, int, int] | None

    @property
    def booleans(self) -> tuple[bool, bool, bool, bool]:
        return (self.a_holds, self.b_holds, self.c_holds, self.d_holds)

    @property
    def consistent(self) -> bool:
        return len(set(self.booleans)) == 1

    @property
    def all_hold(self) -> bool:
        return all(self.booleans)


SWEEP_LIMIT = 9  # route (b), the package's one sweep over the m! chains


def _extremal_measures_in_core(
    ground: GroundSet, values: Sequence[int]
) -> tuple[bool, tuple[Chain, int] | None]:
    """(b): every chain's telescoped measure is dominated by v.

    The m! chains in lexicographic order, on the integer image; the
    witness is the first failing chain and its first violated mask in
    bitmask order. A depth-first walk extends each prefix by its missing
    elements in ascending order, one telescoping step each, down to heads
    of max(m - 3, 1) elements, and runs each head's tails in ascending
    order. A completion's weights depend only on the prefix's set, so a
    prefix with the set and the weights of one whose chains all passed
    repeats their measures and is skipped. Such prefixes are kept, keyed
    on (mask, *weights) with weights zero outside the prefix, up to
    ``setfn._PASSED_LIMIT`` of them. A skipped prefix holds no failure,
    so the first failure found is the literal sweep's.
    """
    m = ground.size
    _require_size(m, SWEEP_LIMIT, "route (b) sweeps m! chains")
    # v or -v is monotone, so every chain's weights share one sign and
    # sum to v(full).
    lanes = _CoreLanes(values, values[-1])
    limit = setfn._PASSED_LIMIT
    swept: set[tuple[int, ...]] = set()
    weights = [0] * m
    bits = [1 << i for i in range(m)]
    down = range(m - 1, -1, -1)
    # The prefix, the mask of each prefix of it, and the elements still to
    # extend each prefix short of a head by, the next one last.
    head: list[int] = []
    masks = [0]
    todo = [list(down)]
    while True:
        if todo[-1]:
            i = todo[-1].pop()
            mask = masks[-1] | bits[i]
            weights[i] = values[mask] - values[masks[-1]]
            key = (mask, *weights)
            if key in swept:
                weights[i] = 0
                continue
            head.append(i)
            masks.append(mask)
            if len(head) < m - 3:
                todo.append([j for j in down if not mask & bits[j]])
                continue
            # A head of max(m - 3, 1) elements: its tails in ascending order.
            prev = values[mask]
            for tail in itertools.permutations([j for j in range(m) if not mask & bits[j]]):
                t = mask
                p = prev
                for j in tail:
                    t |= bits[j]
                    cur = values[t]
                    weights[j] = cur - p
                    p = cur
                s = lanes.first_escape(weights)
                if s is not None:
                    return False, (Chain(ground, (*head, *tail)), s)
            for j in tail:
                weights[j] = 0
        elif head:
            todo.pop()
            key = (masks[-1], *weights)
        else:
            return True, None
        # Every chain through the prefix passed.
        if len(swept) < limit:
            swept.add(key)
        masks.pop()
        weights[head.pop()] = 0


def _sup_matches_everywhere(
    ground: GroundSet, values: Sequence[int]
) -> tuple[bool, tuple[int, Chain] | None]:
    """(c): the chain maximum agrees with v on every subset.

    One all-subsets table decides it; the lex-first witness chain is
    rebuilt for the first failing subset only.
    """
    opt = chain_opt_all(values)
    if opt == list(values):
        return True, None
    a = next(a for a, (x, y) in enumerate(zip(opt, values)) if x != y)
    return False, (a, Chain(ground, chain_opt_path(values, indicator(a, ground.size))[1]))


def _local_candidates_in_core(
    values: Sequence[int]
) -> tuple[bool, tuple[int, int, int] | None]:
    """(d): the constructive nested-pair measures all lie in the local core.

    The measure of the pair B <= A is read off v on the submasks of A: the
    chain lists B, then A - B, so element k of A adds v(P + k) - v(P),
    where P is the elements of B below k if k is in B, else B and the
    elements of A below k. Every pair is tested against v on the submasks
    of A only, a whole class of equal |A| per lane pass
    (:func:`chainrep.setfn._first_nested_escape`). The witness is the first
    A in bitmask order, then the first B and the first violated C <= A.
    """
    hit = _first_nested_escape(values)
    return (True, None) if hit is None else (False, hit)


def _verify(v: SetFunction, side: str, values: Sequence[int],
            lanes: _Lanes) -> EquivalenceReport:
    """The four submodular-side routes on ``values``, the image of v or -v,
    and ``lanes``, v's packing of it; the caller has checked that v is
    monotone."""
    a_wit = _exchange_violation(lanes)
    b_holds, b_wit = _extremal_measures_in_core(v.ground, values)
    c_holds, c_wit = _sup_matches_everywhere(v.ground, values)
    d_holds, d_wit = _local_candidates_in_core(values)
    return EquivalenceReport(
        side, a_wit is None, a_wit, b_holds, b_wit, c_holds, c_wit, d_holds, d_wit,
    )


def _submodular_report(v: SetFunction) -> EquivalenceReport:
    """The four submodular-side statements of a v known to be monotone."""
    return _verify(v, "submodular", v.image[0], v._lanes)


def verify_submodular_equivalence(v: SetFunction) -> EquivalenceReport:
    """Evaluate all four submodular-side statements independently."""
    require_monotone(v, "equivalence verification")
    return _submodular_report(v)


def verify_supermodular_equivalence(v: SetFunction) -> EquivalenceReport:
    """The four dual statements, infima and the upper core: those of -v."""
    require_monotone(v, "equivalence verification")
    return _verify(v, "supermodular", [-x for x in v.image[0]], v._lanes.negated())
