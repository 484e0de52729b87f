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
the upper core.

The chain maximum in (c) is the lattice-path dynamic program of
:func:`chainrep.chains.chain_opt` with the indicator of the target subset
as weights: only steps that add an element of the subset contribute their
increment. The DP is exhaustive-equivalent to sweeping all m! chains and
is cross-checked against the literal sweep in the test suite. Arithmetic
is exact throughout: values are scaled to a common denominator and the DP
runs on integers. Route (b) alone sweeps the m! chains literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import (
    Chain,
    DiscreteMeasure,
    all_chains,
    chain_opt,
    chain_opt_tails,
    extremal_measure,
    indicator,
    insert_nested_pair,
    lex_first_order,
    require_sweepable,
    subset_sums,
)
from .errors import NotNested
from .setfn import SetFunction, int_image, is_submodular, is_supermodular, require_monotone


def sup_over_chains(v: SetFunction, a_mask: int) -> tuple[Fraction, Chain]:
    """Maximum over all chains of the telescoped measure of the subset.

    Requires monotone v. Returns the value together with the
    lexicographically first attaining chain; the maximum dominates v at
    the subset, with equality everywhere iff v is submodular.
    """
    return chain_opt(v, indicator(a_mask, v.ground.size), maximize=True)


def inf_over_chains(v: SetFunction, a_mask: int) -> tuple[Fraction, Chain]:
    """Minimum counterpart of :func:`sup_over_chains` (supermodular side)."""
    return chain_opt(v, indicator(a_mask, v.ground.size), maximize=False)


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
    if in_core and mu.total != v.values[full]:
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


@dataclass(frozen=True)
class LocalCoreReport:
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
    if b_mask & ~a_mask:
        raise NotNested("B must be contained in A")
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
    # Walk the submasks of A in increasing bitmask order.
    sums = mu.subset_sums()
    c = 0
    while True:
        bad = sums[c] > v.values[c] if lower else sums[c] < v.values[c]
        if bad:
            return False, c
        if c == a_mask:
            return True, None
        c = (c - a_mask) & a_mask  # next submask


@dataclass(frozen=True)
class EquivalenceReport:
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


def _extremal_measures_in_core(
    v: SetFunction, lower: bool
) -> tuple[bool, tuple[Chain, int] | None]:
    """(b): every chain's telescoped measure is dominated by / dominates v."""
    values, _den = int_image(v.values)
    m = v.ground.size
    size = 1 << m
    for chain in all_chains(v.ground):
        weights = [0] * m
        prev = 0
        mask = 0
        for i in chain.order:
            mask |= 1 << i
            cur = values[mask]
            weights[i] = cur - prev
            prev = cur
        sums = subset_sums(weights)
        for s in range(size):
            bad = sums[s] > values[s] if lower else sums[s] < values[s]
            if bad:
                return False, (chain, s)
    return True, None


def _sup_matches_everywhere(
    v: SetFunction, maximize: bool
) -> tuple[bool, tuple[int, Chain] | None]:
    """(c): the chain optimum agrees with v on every subset."""
    values, _den = int_image(v.values)
    m = v.ground.size
    for a in v.ground.subsets():
        weights = indicator(a, m)
        tails = chain_opt_tails(values, weights, maximize)
        if tails[0] != values[a]:
            return False, (a, Chain(v.ground, lex_first_order(values, weights, tails)))
    return True, None


def _local_candidates_in_core(
    v: SetFunction, lower: bool
) -> tuple[bool, tuple[int, int, int] | None]:
    """(d): the constructive nested-pair measures all lie in the local core."""
    for a in v.ground.subsets():
        b = 0
        while True:
            report = local_core_attainment(v, a, b, lower=lower)
            if not report.in_core:
                return False, (a, b, report.violated)
            if b == a:
                break
            b = (b - a) & a
    return True, None


def _verify(v: SetFunction, lower: bool) -> EquivalenceReport:
    require_monotone(v, "equivalence verification")
    require_sweepable(v.ground)
    a_holds, a_wit = is_submodular(v) if lower else is_supermodular(v)
    b_holds, b_wit = _extremal_measures_in_core(v, lower)
    c_holds, c_wit = _sup_matches_everywhere(v, maximize=lower)
    d_holds, d_wit = _local_candidates_in_core(v, lower)
    return EquivalenceReport(
        "submodular" if lower else "supermodular",
        a_holds, a_wit, b_holds, b_wit, c_holds, c_wit, d_holds, d_wit,
    )


def verify_submodular_equivalence(v: SetFunction) -> EquivalenceReport:
    """Evaluate all four submodular-side statements independently."""
    return _verify(v, lower=True)


def verify_supermodular_equivalence(v: SetFunction) -> EquivalenceReport:
    """Evaluate the four dual statements: infima and the upper core."""
    return _verify(v, lower=False)
