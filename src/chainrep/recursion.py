"""The chain-supremum transform iterated to its submodular fixed point.

One step replaces v by  w(A) = max over all chains of the telescoped
measure of A.  The step never decreases any value, fixes the empty and
full sets, and has exactly the submodular functions as fixed points; on
three elements a single step always suffices, and for functions that
depend only on cardinality the closed form below ends the recursion in
one step for every ground size.

A step computes every value at once from one table of chain optima
(:func:`chainrep.chains.chain_opt_all`) on the integer image of v, whose
rows are packed lanes: O(3^m * m) lane operations, against m! chains for
each subset in the literal sweep, which the tests keep as the oracle. The
table refuses ground sets of more than 14 elements (``TABLE_LIMIT``), so a
step does too; its cost and memory are stated on the table. An iteration
builds one table per non-submodular iterate, up to its cap (2^m by default),
and a run that the cap stops returns its partial trace.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .chains import chain_opt_all
from .errors import InternalConsistencyError, ProfileNotMonotone
from .setfn import (
    GroundSet, SetFunction, _Record, as_scalar, is_submodular, require_monotone,
)


def recursion_step(v: SetFunction) -> SetFunction:
    """One chain-supremum step; requires monotone v with v(empty) = 0."""
    require_monotone(v, "the recursion step")
    ints, den = v.image
    return SetFunction.from_image(v.ground, chain_opt_all(ints), den)


class RecursionTrace(_Record):
    """The iterates of the transform, and where the run ended.

    ``fixed_point_index`` is the first n with v_n submodular, that is with
    step(v_n) = v_n, or None if the cap interrupted the run; no earlier
    iterate is submodular. Iterates are pointwise non-decreasing and share
    the values at the empty and full sets.
    """

    iterates: tuple[SetFunction, ...]
    fixed_point_index: int | None

    @property
    def reached_fixed_point(self) -> bool:
        return self.fixed_point_index is not None

    @property
    def fixed_point(self) -> SetFunction | None:
        if self.fixed_point_index is None:
            return None
        return self.iterates[self.fixed_point_index]

    @property
    def submodular_flags(self) -> tuple[bool, ...]:
        return (False,) * (len(self.iterates) - 1) + (self.reached_fixed_point,)


def iterate_to_fixed_point(
    v0: SetFunction, max_steps: int | None = None
) -> RecursionTrace:
    """Iterate the transform until an iterate is submodular.

    Submodular functions are exactly the step's fixed points, so the first
    submodular iterate ends the run and no step confirms it. ``max_steps``
    (2^m by default) caps the steps built; a run that reaches the cap first
    returns its partial trace, with ``fixed_point_index`` None. Each iterate
    gets one exchange test. A step that returns its non-submodular input
    would be a bug, and raises.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    require_monotone(v0, "the recursion")
    if max_steps is None:
        max_steps = 1 << v0.ground.size
    iterates = [v0]
    while not is_submodular(iterates[-1])[0]:
        if len(iterates) > max_steps:
            return RecursionTrace(tuple(iterates), None)
        nxt = recursion_step(iterates[-1])
        if nxt == iterates[-1]:
            raise InternalConsistencyError(
                "reached a fixed point that is not submodular"
            )
        iterates.append(nxt)
    return RecursionTrace(tuple(iterates), len(iterates) - 1)


class CardinalityProfile(_Record):
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
    inc = sorted(profile.increments(), reverse=True)
    running = CardinalityProfile(tuple(accumulate(inc, initial=Fraction(0))))
    out = running.to_set_function(ground)
    ok, _ = is_submodular(out)
    if not ok:
        raise InternalConsistencyError(
            "sorted-increment step produced a non-submodular function"
        )
    return out
