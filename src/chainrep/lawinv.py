"""Distribution-determined submodular functions and their spectral anatomy.

A weighted space carries a reference measure nu on the ground set and a
nonnegative density, defining a second measure mu with mu({i}) =
density[i] * nu({i}). The distribution function of the density,

    F(y) = nu({ i : density[i] <= y }),

is a right-continuous step function, and

    v(A) = integral over z >= 0 of min(nu(full) - F(z), nu(A))

is a monotone submodular set function that depends on A only through
nu(A), matches mu on every density level set, and has the equivalent
quantile form  v(A) = integral of the right-continuous inverse of F over
[nu(complement of A), nu(full)).

Every integral in this module is a finite sum over step segments, and is
exact. A distribution keeps one integer image (:class:`_StepImage`): its
breakpoints and levels over their common denominators, the constant
pieces of its survival function and the prefix and tail sums of their
areas. Building it costs O(m log m); each integral is then one ``bisect``
on it and a few integer products, O(log m), and only the result becomes a
Fraction. The module also provides:

* the Hardy-Littlewood style product formula  v(f) = integral of
  quantile(density) * quantile(f) over [0, nu(full)) for f >= 0;
* comonotone attainment: when f and the density are comonotone (no
  crossing pair) the Choquet integral of f equals the plain integral of
  f against mu, which is also the supremum of the integrals against all
  measures sharing mu's distribution;
* the spectral probability measure on (0, 1] whose atoms decompose v(f)
  into normalized tail averages (expected-shortfall style components).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .chains import DiscreteMeasure, subset_sums
from .choquet import SimpleFunction
from .errors import (
    AlphaOutOfRange,
    BetaOutOfRange,
    ChainConditionError,
    InternalConsistencyError,
    NegativeValues,
    NotComonotone,
    SearchTooLarge,
    TiedDensities,
    ZeroTotalMass,
)
from .setfn import GroundSet, ScalarLike, SetFunction, _Record, as_scalar, int_image

ZERO = Fraction(0)
ONE = Fraction(1)
# Level-mass vectors rearrangement_sup may memoize before its forced
# equal-mass tail: about 0.8 s and 120 MB peak RSS on a 2-vCPU VM.
_SEARCH_LIMIT = 1 << 19


class WeightedSpace(_Record):
    """Reference measure plus density: the data behind a law-invariant v."""

    ground: GroundSet
    nu: DiscreteMeasure
    density: tuple[Fraction, ...]

    def __post_init__(self):
        dens = tuple(as_scalar(x) for x in self.density)
        object.__setattr__(self, "density", dens)
        if self.nu.ground != self.ground:
            raise ValueError("reference measure lives on a different ground set")
        if len(dens) != self.ground.size:
            raise ValueError("one density value per ground element required")
        if any(d < 0 for d in dens):
            raise ValueError("density values must be nonnegative")
        if self.nu.total <= 0:
            raise ValueError("reference measure must have positive total mass")

    @classmethod
    def counting(
        cls, ground: GroundSet, density: Sequence[ScalarLike]
    ) -> "WeightedSpace":
        weights = (Fraction(1),) * ground.size
        return cls(ground, DiscreteMeasure(ground, weights), tuple(density))

    def mu(self) -> DiscreteMeasure:
        return self._mu

    @property
    def mu_total(self) -> Fraction:
        return self._mu.total

    # Built once per space on first use; not fields, so equality and
    # hashing see only ground, nu and density.
    @cached_property
    def _mu(self) -> DiscreteMeasure:
        return DiscreteMeasure(
            self.ground,
            tuple(d * w for d, w in zip(self.density, self.nu.weights)),
        )

    @cached_property
    def _nu_image(self) -> tuple[list[int], int]:
        return int_image(self.nu.weights)

    @cached_property
    def _density_image(self) -> tuple[list[int], int]:
        return int_image(self.density)

    @cached_property
    def _density_distribution(self) -> StepDistribution:
        # Its levels are over the denominator of the nu image.
        return StepDistribution._from_image(
            _distribution_image(self.density, self._nu_image)
        )

    @cached_property
    def _spectral_measure(self) -> SpectralMeasure:
        """:func:`kusuoka_measure`, built once per space.

        Each positive piece of the density's survival function gives one
        atom: its level is the survival over nu(full), and its mass the
        piece's area over mu(full), so the atoms come in the order of the
        pieces (the survival values are distinct, as the levels increase
        strictly).
        """
        img = self._density_distribution._image
        mu = self.mu_total
        top, scale = img.lvs[-1], img.den * mu.numerator
        return SpectralMeasure(tuple(
            (Fraction(s, top), Fraction(s * n * mu.denominator, scale))
            for s, n in zip(img.surv, img.lengths)
        ))

    def density_function(self) -> SimpleFunction:
        return SimpleFunction(self.ground, self.density)


class _StepImage:
    """Integer image of a step distribution, with its survival integral.

    Breakpoint j is ``bps[j] / bden`` and level j is ``lvs[j] / lden``.
    The survival ``total - F`` is constant on [0, b_0), [b_0, b_1), ...;
    the pieces where it is positive, in order, have survival
    ``surv[p] / lden`` (non-increasing in p) and length
    ``lengths[p] / bden``. ``reach[p]`` is the length of the pieces before
    p, and ``tails[p]`` the survival integral over pieces p and after,
    over ``den = bden * lden``.
    """

    def __init__(self, bps: list[int], bden: int, lvs: list[int], lden: int):
        self.bps, self.bden, self.lvs, self.lden = bps, bden, lvs, lden
        self.den = bden * lden
        total = lvs[-1]
        pieces = [(total - lv, b - a)
                  for lv, a, b in zip([0] + lvs, [0] + bps, bps)
                  if lv < total and a < b]
        self.surv = [s for s, _ in pieces]
        self.lengths = [n for _, n in pieces]
        self.drops = [-s for s in self.surv]  # ascending, for bisect
        self.reach = [0, *accumulate(self.lengths)]
        self.tails = [*accumulate((s * n for s, n in reversed(pieces)), initial=0)][::-1]

    def survival_min(self, cn: int, cd: int) -> int:
        """Integral over z >= 0 of min(total - F(z), cn / cd), over ``cd * den``.

        The pieces with survival above the cap form a prefix: each adds the
        cap times its length, and the rest add their own area.
        """
        p = bisect_left(self.drops, -(cn * self.lden // cd))
        return cn * self.lden * self.reach[p] + cd * self.tails[p]

    @cached_property
    def below(self) -> list[int]:
        """below[j] = integral of F over [0, b_j), over ``den``."""
        return [0, *accumulate(lv * (b - a)
                               for lv, a, b in zip(self.lvs, self.bps, self.bps[1:]))]

    @cached_property
    def inverse_below(self) -> list[int]:
        """Integral of the inverse over [0, lvs[j - 1]) (0 for j = 0), over ``den``."""
        return [0, *accumulate(b * (lv - prev)
                               for b, lv, prev in zip(self.bps, self.lvs, [0] + self.lvs))]


def _distribution_image(
    values: Sequence[Fraction], weights: tuple[list[int], int]
) -> _StepImage:
    """Image of F(y) = nu({ value <= y }), from nu's integer image.

    Zero-mass values are dropped, so the levels increase strictly; they
    are over the denominator of nu's image.
    """
    (vals, vden), (ws, wden) = int_image(values), weights
    masses: dict[int, int] = {}
    for x, w in zip(vals, ws):
        if w:
            masses[x] = masses.get(x, 0) + w
    if not masses:
        raise ValueError("need matching nonempty breakpoints and levels")
    bps = sorted(masses)
    return _StepImage(bps, vden, list(accumulate(map(masses.__getitem__, bps))), wden)


class StepDistribution(_Record):
    """Right-continuous non-decreasing step function on [0, infinity).

    ``F(z)`` equals the level at the largest breakpoint <= z and 0 to the
    left of the first breakpoint; the final level is the total mass.
    """

    breakpoints: tuple[Fraction, ...]
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(as_scalar(x) for x in self.breakpoints)
        lvs = tuple(as_scalar(x) for x in self.levels)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "levels", lvs)
        if len(bps) != len(lvs) or not bps:
            raise ValueError("need matching nonempty breakpoints and levels")
        if any(b < 0 for b in bps):
            raise ValueError("breakpoints must be nonnegative")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a > b for a, b in zip(lvs, lvs[1:])):
            raise ValueError("levels must be non-decreasing")
        if lvs[0] < 0:
            raise ValueError("levels must be nonnegative")
        if lvs[-1] <= 0:
            raise ValueError("total mass must be positive")

    @classmethod
    def _from_image(cls, image: _StepImage) -> "StepDistribution":
        """The distribution of an image built by :func:`_distribution_image`."""
        dist = cls.__new__(cls)
        object.__setattr__(dist, "breakpoints",
                           tuple(Fraction(b, image.bden) for b in image.bps))
        object.__setattr__(dist, "levels",
                           tuple(Fraction(lv, image.lden) for lv in image.lvs))
        dist.__dict__["_image"] = image
        return dist

    # Built on first use; not a field, so equality and hashing ignore it.
    @cached_property
    def _image(self) -> _StepImage:
        return _StepImage(*int_image(self.breakpoints), *int_image(self.levels))

    @property
    def total(self) -> Fraction:
        return self.levels[-1]

    def value_at(self, z: ScalarLike) -> Fraction:
        z = as_scalar(z)
        img = self._image
        # Breakpoints <= z, compared as integers: b <= z iff b <= floor(z).
        j = bisect_right(img.bps, z.numerator * img.bden // z.denominator)
        return self.levels[j - 1] if j else ZERO

    def survival_segments(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """Constant pieces (start, end, total - F) with positive survival.

        The survival is zero from the last breakpoint on, so the finite
        list captures the whole mass of any survival-type integral. The
        pieces are the image's, which run contiguously from 0.
        """
        img = self._image
        return [(Fraction(a, img.bden), Fraction(b, img.bden), Fraction(s, img.lden))
                for a, b, s in zip(img.reach, img.reach[1:], img.surv)]

    def quantile_segments(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """Constant pieces (lo, hi, z) of the right-continuous inverse on [0, total)."""
        img = self._image
        # A piece per level that rises above the one before it (0 before the first).
        return [(Fraction(lo, img.lden), Fraction(hi, img.lden), Fraction(b, img.bden))
                for b, hi, lo in zip(img.bps, img.lvs, [0] + img.lvs)
                if hi > lo]

    def quantile(self, beta: ScalarLike) -> Fraction:
        """Right-continuous inverse: the smallest z with F(z) > beta."""
        beta = as_scalar(beta)
        if beta < 0 or beta >= self.total:
            raise BetaOutOfRange(
                f"beta must lie in [0, {self.total}), got {beta}"
            )
        img = self._image
        return self.breakpoints[
            bisect_right(img.lvs, beta.numerator * img.lden // beta.denominator)
        ]


def quantile(dist: StepDistribution, beta: ScalarLike) -> Fraction:
    """Module-level alias for :meth:`StepDistribution.quantile`."""
    return dist.quantile(beta)


def distribution_of_function(
    nu: DiscreteMeasure, values: Sequence[ScalarLike]
) -> StepDistribution:
    """Step distribution F(y) = nu({ value <= y }) of a nonnegative vector.

    Zero-mass jumps (elements of zero nu-weight) are dropped, so the
    representation is canonical with at most m breakpoints.
    """
    vals = [as_scalar(x) for x in values]
    if len(vals) != nu.ground.size:
        raise ValueError(f"one value per ground element required: "
                         f"got {len(vals)} for m = {nu.ground.size}")
    if any(x < 0 for x in vals):
        raise NegativeValues("distribution requires nonnegative values")
    return StepDistribution._from_image(_distribution_image(vals, int_image(nu.weights)))


def _function_image(w: WeightedSpace, f: SimpleFunction) -> _StepImage:
    """Image of f's distribution under w's nu; f must live on w's ground set."""
    if f.ground != w.ground:
        raise ValueError("integrand lives on a different ground set")
    return _distribution_image(f.values, w._nu_image)


def distribution_of_density(w: WeightedSpace) -> StepDistribution:
    """The distribution of w's density; built once per space."""
    return w._density_distribution


def distribution_integral(dist: StepDistribution, upto: ScalarLike) -> Fraction:
    """Exact integral of F over [0, upto]."""
    upto = as_scalar(upto)
    if upto < 0:
        raise ValueError("upper limit must be nonnegative")
    img = dist._image
    un, ud = upto.numerator, upto.denominator
    j = bisect_right(img.bps, un * img.bden // ud)  # breakpoints <= upto
    if not j:
        return ZERO
    rest = img.lvs[j - 1] * (un * img.bden - img.bps[j - 1] * ud)
    return Fraction(img.below[j - 1] * ud + rest, img.den * ud)


def _inverse_area(img: _StepImage, x: Fraction) -> tuple[int, int]:
    """Integral of the inverse over [0, x], as (numerator, denominator)."""
    xn, xd = x.numerator, x.denominator
    j = bisect_right(img.lvs, xn * img.lden // xd)  # levels <= x
    if j == len(img.lvs):
        return img.inverse_below[j], img.den
    prev = img.lvs[j - 1] if j else 0
    return img.inverse_below[j] * xd + img.bps[j] * (xn * img.lden - prev * xd), img.den * xd


def quantile_integral(
    dist: StepDistribution, lo: ScalarLike, hi: ScalarLike
) -> Fraction:
    """Exact integral of the right-continuous inverse over [lo, hi)."""
    lo, hi = as_scalar(lo), as_scalar(hi)
    if not 0 <= lo <= hi <= dist.total:
        raise BetaOutOfRange(
            f"integration range must sit inside [0, {dist.total}]"
        )
    (hn, hd), (ln, ld) = _inverse_area(dist._image, hi), _inverse_area(dist._image, lo)
    return Fraction(hn * ld - ln * hd, hd * ld)


def v_mu(w: WeightedSpace, a_mask: int) -> Fraction:
    """Value at A of the law-invariant function built from the density."""
    img, cap = w._density_distribution._image, w.nu.mass(a_mask)
    cd = cap.denominator
    return Fraction(img.survival_min(cap.numerator, cd), cd * img.den)


def v_mu_set_function(w: WeightedSpace) -> SetFunction:
    """Materialize the law-invariant function on the whole subset lattice.

    v(A) depends on A only through nu(A), so each distinct subset mass is
    integrated once, by one bisect, and every value is over one
    denominator.
    """
    img = w._density_distribution._image
    ints, den = w._nu_image
    sums = subset_sums(ints)
    by_mass = {s: img.survival_min(s, den) for s in set(sums)}
    return SetFunction.from_image(w.ground, [by_mass[s] for s in sums], den * img.den)


def v_mu_via_quantile(w: WeightedSpace, a_mask: int) -> Fraction:
    """Quantile form: integral of the inverse distribution over the top nu(A) mass."""
    dist = distribution_of_density(w)
    nu_a = w.nu.mass(a_mask)
    return quantile_integral(dist, dist.total - nu_a, dist.total)


def v_mu_integral(w: WeightedSpace, f: SimpleFunction) -> Fraction:
    """Choquet integral of f against the law-invariant function, by layers."""
    return _layer_integral(w._density_distribution._image, _function_image(w, f))


def _layer_integral(d: _StepImage, g: _StepImage) -> Fraction:
    """Layer-cake integral of f, with f's image g, against the function of d.

    v(A) depends on A only through nu(A), so the layers {f >= x} of f's
    values x without nu-mass merge into the next value up. The layer of
    breakpoint j of g has nu-mass nu(full) less level j - 1, and
    coefficient x_j less x_(j-1) (x_0 itself for the first).
    """
    total = 0
    top = g.lvs[-1]
    for x, prev, lv in zip(g.bps, [0] + g.bps, [0] + g.lvs):
        total += (x - prev) * d.survival_min(top - lv, g.lden)
    return Fraction(total, g.bden * g.lden * d.den)


def choquet_product_formula(w: WeightedSpace, f: SimpleFunction) -> Fraction:
    """Quantile product form of the integral for nonnegative f.

    Integrates quantile(density) * quantile(f) over [0, nu(full)); equals
    the layer-cake integral of f against the law-invariant function.
    """
    g = _function_image(w, f)
    if not f.is_nonnegative():
        raise NegativeValues("product formula requires f >= 0")
    d = w._density_distribution._image
    # Both inverses are constant between consecutive levels, which share
    # the nu image's denominator and end at nu(full): merge the two lists.
    total = lo = i = j = 0
    while i < len(d.lvs):
        hi = min(d.lvs[i], g.lvs[j])
        total += d.bps[i] * g.bps[j] * (hi - lo)
        lo = hi
        i += d.lvs[i] == hi
        j += g.lvs[j] == hi
    return Fraction(total, d.bden * g.bden * d.lden)


def comonotone_check(f: SimpleFunction, g: SimpleFunction) -> bool:
    """True iff no pair i, j has f(i) < f(j) while g(i) > g(j).

    Equivalent to the sublevel sets of f and g nesting into one chain.
    Sorted by (g, f), two neighbours with f descending have g strictly
    ascending, a crossing pair; and a crossing pair forces such a descent.
    """
    if f.ground != g.ground:
        raise ValueError("ground sets differ")
    fs = [x for _, x in sorted(zip(g.values, f.values))]
    return all(a <= b for a, b in zip(fs, fs[1:]))


def rearrangement_sup(
    w: WeightedSpace, f: SimpleFunction
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Supremum of the integral of f over the equal-distribution class.

    The class holds the densities whose level sets carry the same
    nu-masses as w's; elements of zero nu-weight keep their density, since
    it affects no mass or integral. The class is finite, so the supremum
    is attained. Returns the value and the first best density in the
    order that assigns levels to the positive-weight elements in index
    order, smallest level first.

    It runs on the space's integer images of nu and the density and on
    f's image over the positive-weight elements; only the result becomes
    a Fraction. A memoized DP over the vector of level masses still to be
    assigned finds the optimum. Once every element left has one mass (the
    forced tail), each level takes its remaining mass over that mass in
    elements, and by the rearrangement inequality the ascending gains pair
    best with the ascending levels: one prefix-sum lookup per level, so
    the tail memoizes nothing. Other weights can reach far more vectors
    before the tail, so past 2^19 it raises :class:`SearchTooLarge`. The
    forward pass picks, element by element before the tail, the smallest
    level whose completion attains the optimum; the tail's elements,
    sorted by (gain, index), then take its slots smallest level first.
    A uniform nu is all tail, so it searches nothing and costs
    O(m log m): with the ground-set cap patched, about 0.3 ms at m = 100,
    2 ms at m = 1000 and 0.4 s at m = 10^5 on a 2-vCPU VM.
    """
    if f.ground != w.ground:
        raise ValueError("integrand lives on a different ground set")
    positive, gains, gden = _gains(w, f)
    ws, _ = w._nu_image
    ds, hden = w._density_image
    level_of = {ds[i]: w.density[i] for i in positive}
    heights = sorted(level_of)
    levels = [level_of[h] for h in heights]
    rank = {h: lv for lv, h in enumerate(heights)}
    masses = [ws[i] for i in positive]
    start = [0] * len(heights)
    for i, mk in zip(positive, masses):
        start[rank[ds[i]]] += mk
    n = len(positive)
    # Elements tail.. all have the mass unit; order holds them by (gain,
    # index), and prefix[c] is the sum of the c smallest of their gains.
    unit, tail = masses[-1], n - 1
    while tail and masses[tail - 1] == unit:
        tail -= 1
    order = sorted(range(tail, n), key=lambda k: (gains[k], k))
    prefix = [0, *accumulate(gains[k] for k in order)]
    memo: dict[tuple[int, ...], int | None] = {}

    def best(k, need):
        """Best integer completion of elements k.. (k <= tail), None if infeasible."""
        if k == tail:
            # The sorted-pairing completion: level lv takes the next
            # need[lv] / unit smallest gains.
            total = taken = 0
            for h, left in zip(heights, need):
                count, rest = divmod(left, unit)
                if rest:
                    return None
                total += h * (prefix[taken + count] - prefix[taken])
                taken += count
            return total
        # The masses still to assign sum to the weight of elements k..,
        # which decreases strictly in k, so need alone keys the memo.
        if need in memo:
            return memo[need]
        if len(memo) >= _SEARCH_LIMIT:
            raise SearchTooLarge(
                f"rearrangement_sup: more than {_SEARCH_LIMIT} level-mass vectors"
            )
        mk, gk, top = masses[k], gains[k], None
        for lv, left in enumerate(need):
            if left >= mk:
                rest = best(k + 1, need[:lv] + (left - mk,) + need[lv + 1:])
                if rest is not None and (top is None or gk * heights[lv] + rest > top):
                    top = gk * heights[lv] + rest
        memo[need] = top
        return top

    need = tuple(start)
    top = best(0, need)
    density = list(w.density)
    for k in range(tail):
        target, mk = best(k, need), masses[k]
        for lv, left in enumerate(need):
            if left >= mk:
                after = need[:lv] + (left - mk,) + need[lv + 1:]
                rest = best(k + 1, after)
                if rest is not None and gains[k] * heights[lv] + rest == target:
                    break
        density[positive[k]], need = levels[lv], after
    # The tail in closed form: its elements, by (gain, index), take the
    # slots left, smallest level first.
    slots = [lv for lv, left in enumerate(need) for _ in range(left // unit)]
    for k, lv in zip(order, slots):
        density[positive[k]] = levels[lv]
    return Fraction(top, gden * hden), tuple(density)


def _gains(w: WeightedSpace, f: SimpleFunction) -> tuple[list[int], list[int], int]:
    """The positive-weight elements of w, f times nu on each as integers
    (f's image over those elements times nu's), and their denominator."""
    ws, mden = w._nu_image
    positive = [i for i, x in enumerate(ws) if x > 0]
    fs, fden = int_image([f.values[i] for i in positive])
    return positive, [fk * ws[i] for fk, i in zip(fs, positive)], fden * mden


def _paired_integral(w: WeightedSpace, f: SimpleFunction) -> Fraction:
    """The integral of f against mu, from the integers of :func:`_gains`
    and the space's density image."""
    positive, gains, gden = _gains(w, f)
    ds, hden = w._density_image
    return Fraction(sum(g * ds[i] for g, i in zip(gains, positive)), gden * hden)


def _check_chain_hypothesis(w: WeightedSpace) -> None:
    """Densities distinct where nu > 0; every subset nu-mass a level of F or 0."""
    ints, den = w._nu_image  # the levels' denominator too
    weighted = [d for d, x in zip(w.density, ints) if x]
    if len(set(weighted)) != len(weighted):
        raise TiedDensities("density values must be pairwise distinct")
    missing = set(subset_sums(ints)) - {0, *w._density_distribution._image.lvs}
    if missing:
        raise ChainConditionError(
            f"distribution image misses the subset mass {Fraction(min(missing), den)}; "
            "the attainment hypothesis fails"
        )


def comonotone_attainment(
    w: WeightedSpace, f: SimpleFunction
) -> tuple[Fraction, Fraction, Fraction]:
    """The three coinciding values for f comonotone with the density.

    Returns (Choquet integral of f, integral of f against mu, supremum
    over the equal-distribution class), read off :func:`domination_report`
    and asserted equal. The hypothesis is checked on the inputs: the
    densities of the elements of positive nu-weight are pairwise distinct,
    and every subset nu-mass is a value of the density's distribution
    function F, 0 (the empty level set) included. With distinct densities
    that holds exactly when the positive nu-weights are all equal. Elements
    of zero weight may take any density, a tied one included, as they
    change no mass or integral.
    """
    if f.ground != w.ground:
        raise ValueError("integrand lives on a different ground set")
    if not f.is_nonnegative():
        raise NegativeValues("attainment requires f >= 0")
    _check_chain_hypothesis(w)
    if not comonotone_check(f, w.density_function()):
        raise NotComonotone("f has a crossing pair against the density")
    report = domination_report(w, f)
    choq, paired = report.choquet_value, report.paired_integral
    sup = report.rearrangement_supremum
    if not choq == paired == sup:
        raise InternalConsistencyError(
            f"attainment failed: choquet={choq}, paired={paired}, sup={sup}"
        )
    return choq, paired, sup


class DominationReport(_Record):
    """How the Choquet value sits above the equal-distribution class.

    The chain-side supremum (the Choquet value itself, by the chain
    representation of this submodular function) always dominates the
    class supremum, which dominates the integral against the original
    pairing; the gaps quantify the two open ends.
    """

    choquet_value: Fraction
    rearrangement_supremum: Fraction
    best_density: tuple[Fraction, ...]
    paired_integral: Fraction

    @property
    def gap_to_supremum(self) -> Fraction:
        return self.choquet_value - self.rearrangement_supremum

    @property
    def gap_to_paired(self) -> Fraction:
        return self.choquet_value - self.paired_integral


def domination_report(w: WeightedSpace, f: SimpleFunction) -> DominationReport:
    """Compare the Choquet value with the equal-distribution suprema, f >= 0.

    The Choquet value is the layer integral, and the supremum and its
    first best density come from :func:`rearrangement_sup`. The integral
    of f against mu is summed over the same integers as the supremum's
    gains and levels: the space's nu and density images and f's image.
    """
    if not f.is_nonnegative():
        raise NegativeValues("domination report requires f >= 0")
    choq = v_mu_integral(w, f)
    sup, best = rearrangement_sup(w, f)
    paired = _paired_integral(w, f)
    if choq < sup or sup < paired:
        raise InternalConsistencyError(
            f"domination violated: choquet={choq}, sup={sup}, paired={paired}"
        )
    return DominationReport(choq, sup, best, paired)


class SpectralMeasure(_Record):
    """Discrete probability measure on (0, 1]; atoms sorted by level, descending."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        atoms = tuple(
            (as_scalar(a), as_scalar(m)) for a, m in self.atoms
        )
        atoms = tuple(sorted(atoms, key=lambda t: t[0], reverse=True))
        object.__setattr__(self, "atoms", atoms)
        if any(not 0 < a <= 1 for a, _ in atoms):
            raise ValueError("atom levels must lie in (0, 1]")
        if any(m <= 0 for _, m in atoms):
            raise ValueError("atom masses must be positive")
        if len({a for a, _ in atoms}) != len(atoms):
            raise ValueError("atom levels must be distinct")
        if sum((m for _, m in atoms), ZERO) != 1:
            raise ValueError("atom masses must sum to one")

    def tail_harmonic(self, gamma: ScalarLike) -> Fraction:
        """Sum of mass/level over atoms with level >= 1 - gamma."""
        gamma = as_scalar(gamma)
        cut = ONE - gamma
        return sum((m / a for a, m in self.atoms if a >= cut), ZERO)


def kusuoka_measure(w: WeightedSpace) -> SpectralMeasure:
    """Spectral measure of the law-invariant function.

    The cumulative mass on (0, gamma] is the tail integral of the
    density's survival function, started where the survival first drops
    to gamma * nu(full) and normalized by mu(full). The result is a
    probability measure whose atoms sit at the survival values scaled by
    nu(full); its tail harmonic sums reproduce the density quantiles:

        tail_harmonic(gamma) = nu(full)/mu(full) * quantile(nu(full)*gamma)

    for gamma in [0, 1).
    """
    if w.mu_total == 0:
        raise ZeroTotalMass("spectral measure undefined: mu(full) = 0")
    return w._spectral_measure


def cvar_component(
    w: WeightedSpace, f: SimpleFunction, alpha: ScalarLike
) -> Fraction:
    """Normalized tail average of f at level alpha, scaled by mu(full).

    At alpha = 1 this is mu(full)/nu(full) times the plain nu-integral of
    f; as alpha shrinks it weights the largest values of f ever more.
    """
    alpha = as_scalar(alpha)
    if not 0 < alpha <= 1:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1], got {alpha}")
    g = _function_image(w, f)
    if not f.is_nonnegative():
        raise NegativeValues("tail component requires f >= 0")
    cap = alpha * w.nu.total
    return _tail_component(w.mu_total, g, cap.numerator, cap.denominator)[1]


def _tail_component(mu: Fraction, g: _StepImage, cn: int, cd: int) -> tuple[int, Fraction]:
    """f's survival integral at the cap cn / cd, over ``cd * g.den``, and
    mu(full) / cap times it: f's tail component at that cap."""
    area = g.survival_min(cn, cd)
    return area, Fraction(mu.numerator * area, mu.denominator * cn * g.den)


class SpectralDecompositionReport(_Record):
    """Both sides of the spectral identity, with per-atom components."""

    direct: Fraction
    by_components: Fraction
    components: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (alpha, mass, value)

    @property
    def agrees(self) -> bool:
        return self.direct == self.by_components


def spectral_decomposition_check(
    w: WeightedSpace, f: SimpleFunction
) -> SpectralDecompositionReport:
    """Check v(f) = sum of mass * tail component over the spectral atoms."""
    if not f.is_nonnegative():
        raise NegativeValues("spectral decomposition requires f >= 0")
    d, g = w._density_distribution._image, _function_image(w, f)
    direct = _layer_integral(d, g)
    spectral = kusuoka_measure(w)
    mu = w.mu_total
    # Atom p (see WeightedSpace._spectral_measure) sits at the cap
    # surv[p] / lden of the density's survival, and mass times component is
    # lengths[p] times f's survival integral there: one integer numerator.
    components = []
    total = 0
    for (alpha, mass), s, n in zip(spectral.atoms, d.surv, d.lengths):
        area, component = _tail_component(mu, g, s, d.lden)
        total += n * area
        components.append((alpha, mass, component))
    acc = Fraction(total, d.den * g.den)
    report = SpectralDecompositionReport(direct, acc, tuple(components))
    if not report.agrees:
        raise InternalConsistencyError(
            f"spectral decomposition mismatch: direct={direct}, "
            f"components={acc}"
        )
    return report
