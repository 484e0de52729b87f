"""Exception types shared across the library."""

from __future__ import annotations


class ChainrepError(Exception):
    """Base class for all chainrep errors."""


class GroundSetTooLarge(ChainrepError):
    """Ground set exceeds the permutation-sweep limit for chain operations."""


class NotMonotone(ChainrepError, ValueError):
    """Operation requires a monotone set function."""


class NonMonotoneAlongChain(ChainrepError):
    """A telescoped increment along the chain is negative."""


class NotNested(ChainrepError):
    """The inner set is not contained in the outer set."""


class NotSubmodular(ChainrepError):
    """Operation requires a submodular set function."""


class ZeroTotalMass(ChainrepError):
    """Operation requires strictly positive total mass."""


class NegativeValues(ChainrepError):
    """Operation requires a non-negative function."""


class ProfileNotMonotone(ChainrepError):
    """Cardinality profile must start at zero and be non-decreasing."""


class BetaOutOfRange(ChainrepError):
    """Quantile argument outside [0, total mass)."""


class AlphaOutOfRange(ChainrepError):
    """Tail level must lie in (0, 1]."""


class NotComonotone(ChainrepError):
    """The two functions have a crossing pair of values."""


class TiedDensities(ChainrepError):
    """Density values must be pairwise distinct."""


class ChainConditionError(ChainrepError):
    """The density level sets do not satisfy the chain/image hypothesis."""


class InternalConsistencyError(ChainrepError):
    """Two routes that must agree exactly disagreed; indicates a bug."""


class DocumentError(ChainrepError):
    """A document failed to parse or violates its schema."""


class MaxStepsExceeded(ChainrepError):
    """Recursion hit the step cap before reaching a fixed point.

    Carries the partial trace computed so far in ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
