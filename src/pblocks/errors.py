"""Exception types raised across the package.

Every failure mode that a caller can reasonably branch on gets its own
class; all inherit from BlockEngineError so whole-pipeline drivers can
distinguish "computation refused / inconsistent" from ordinary bugs.
"""

from __future__ import annotations


class BlockEngineError(ValueError):
    """Base class for all package-specific errors."""


# -- finite fields / linear algebra ----------------------------------------

class CompositeCharacteristic(BlockEngineError):
    """Field construction was asked for a non-prime characteristic."""


class BudgetExceeded(BlockEngineError):
    """A configured size or work budget was exceeded."""


class ShapeMismatch(BlockEngineError):
    """Matrix operands have incompatible shapes or fields."""


# -- permutation groups ------------------------------------------------------

class NotAPermutation(BlockEngineError):
    """An image array is not a bijection on its points."""


class EnumerationRequired(BlockEngineError):
    """The operation needs the full element list, which was not built
    because the group order exceeds the enumeration cap."""


class NotNormal(BlockEngineError):
    """The given subgroup is not normal in its parent."""


class CapExceeded(BlockEngineError):
    """A structure exceeds the documented size cap for this operation."""


# -- character tables ---------------------------------------------------------

class LiftingPrimeNotFound(BlockEngineError):
    """No suitable congruence prime exists below the search bound."""


class FusionInconsistent(BlockEngineError):
    """A subgroup class maps to a parent class of a different element order."""


# -- modular representations --------------------------------------------------

class RandomBudgetExceeded(BlockEngineError):
    """Randomized search (irreducibility or isomorphism) hit its budget."""


class NotSemisimpleElement(BlockEngineError):
    """Eigenspace dimensions do not fill the module; the element is not
    diagonalizable over the working field."""


class ClosureStalled(BlockEngineError):
    """Tensor-and-chop closure stopped producing new composition factors
    before reaching the expected count.  Carries the partial list."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial or []


class NonIntegralSolution(BlockEngineError):
    """An exact linear solve that must be nonnegative-integral is not."""


# -- blocks --------------------------------------------------------------------

class ReductionInconsistent(BlockEngineError):
    """Reduced central characters failed a multiplicativity spot check."""


class DefectMismatch(BlockEngineError):
    """The constructed defect group order disagrees with the defect."""


class CrossBlockEntry(BlockEngineError):
    """A decomposition entry links one modular character to two blocks."""


class DimMismatch(BlockEngineError):
    """The two independent block-dimension computations disagree."""


class AmbiguousInduction(BlockEngineError):
    """An induced central function matches more than one block."""


# -- harness --------------------------------------------------------------------

class BindingUnsatisfiable(BlockEngineError):
    """A configured cross-group check's hypotheses fail on the given data."""
