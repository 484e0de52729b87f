"""The chain-supremum transform iterated to its submodular fixed point.

One step replaces v by  w(A) = max over all chains of the telescoped
measure of A.  The step never decreases any value, fixes the empty and
full sets, and has exactly the submodular functions as fixed points; on
three elements a single step always suffices, and for functions that
depend only on cardinality the closed form below ends the recursion in
one step for every ground size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import chain_opt_tails, indicator, int_image, require_sweepable
from .errors import InternalConsistencyError, MaxStepsExceeded, ProfileNotMonotone
from .setfn import GroundSet, SetFunction, as_scalar, is_submodular, require_monotone


def recursion_step(v: SetFunction) -> SetFunction:
    """One chain-supremum step; requires monotone v with v(empty) = 0."""
    require_sweepable(v.ground)
    require_monotone(v, "the recursion step")
    values, den = int_image(v.values)
    m = v.ground.size
    out = tuple(
        Fraction(chain_opt_tails(values, indicator(a, m), maximize=True)[0], den)
        for a in v.ground.subsets()
    )
    return SetFunction(v.ground, out)


@dataclass(frozen=True)
class RecursionTrace:
    """All iterates of the transform, with per-step submodularity flags.

    ``fixed_point_index`` is the first n with step(v_n) = v_n, or None if
    the cap interrupted the run. Iterates are pointwise non-decreasing
    and share the values at the empty and full sets.
    """

    iterates: tuple[SetFunction, ...]
    submodular_flags: tuple[bool, ...]
    fixed_point_index: int | None

    @property
    def reached_fixed_point(self) -> bool:
        return self.fixed_point_index is not None

    @property
    def fixed_point(self) -> SetFunction | None:
        if self.fixed_point_index is None:
            return None
        return self.iterates[self.fixed_point_index]


def iterate_to_fixed_point(
    v0: SetFunction, max_steps: int | None = None
) -> RecursionTrace:
    """Iterate the transform until the values stop changing.

    Equality is exact over all 2^m rationals. The default cap is 2^m
    steps; hitting it raises :class:`MaxStepsExceeded` with the partial
    trace attached. A reached fixed point is always submodular; that is
    re-checked and a failure would be a bug.
    """
    require_monotone(v0, "the recursion")
    if max_steps is None:
        max_steps = 1 << v0.ground.size
    iterates = [v0]
    flags = [is_submodular(v0)[0]]
    for _ in range(max_steps):
        nxt = recursion_step(iterates[-1])
        if nxt.values == iterates[-1].values:
            idx = len(iterates) - 1
            if not flags[idx]:
                raise InternalConsistencyError(
                    "reached a fixed point that is not submodular"
                )
            return RecursionTrace(tuple(iterates), tuple(flags), idx)
        iterates.append(nxt)
        flags.append(is_submodular(nxt)[0])
    raise MaxStepsExceeded(
        f"no fixed point within {max_steps} steps",
        RecursionTrace(tuple(iterates), tuple(flags), None),
    )


@dataclass(frozen=True)
class CardinalityProfile:
    """Values g(0..m) of a set function that depends only on cardinality.

    Must start at zero and be non-decreasing.
    """

    levels: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_scalar(x) for x in self.levels)
        object.__setattr__(self, "levels", vals)
        if len(vals) < 2:
            raise ValueError("profile needs at least g(0) and g(1)")
        if vals[0] != 0:
            raise ProfileNotMonotone("profile must start at g(0) = 0")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ProfileNotMonotone("profile must be non-decreasing")

    @property
    def size(self) -> int:
        return len(self.levels) - 1

    def increments(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.levels, self.levels[1:]))

    def to_set_function(self, ground: GroundSet | None = None) -> SetFunction:
        ground = ground or GroundSet.of_size(self.size)
        if ground.size != self.size:
            raise ValueError("ground set size does not match the profile")
        return SetFunction(
            ground,
            tuple(self.levels[bin(s).count('1')] for s in ground.subsets()),
        )


def symmetric_step(
    profile: CardinalityProfile, ground: GroundSet | None = None
) -> SetFunction:
    """Closed-form single step for cardinality-profile functions.

    Sorting the profile increments in non-increasing order and summing
    the largest |A| of them gives the value at A after one transform
    step; the result is submodular, hence the recursion ends here. The
    submodularity is re-checked and a failure would be a bug.
    """
    ground = ground or GroundSet.of_size(profile.size)
    if ground.size != profile.size:
        raise ValueError("ground set size does not match the profile")
    inc = sorted(profile.increments(), reverse=True)
    running = [Fraction(0)]
    for d in inc:
        running.append(running[-1] + d)
    out = SetFunction(
        ground, tuple(running[bin(s).count('1')] for s in ground.subsets())
    )
    ok, _ = is_submodular(out)
    if not ok:
        raise InternalConsistencyError(
            "sorted-increment step produced a non-submodular function"
        )
    return out
