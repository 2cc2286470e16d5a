"""Exception types shared across the package."""


class HomrecError(ValueError):
    """Base class for all homrec errors."""


class InvalidPairError(HomrecError):
    """A vertex pair is degenerate (x == y) or out of range."""


class DimensionMismatchError(HomrecError):
    """Two objects live on different vertex counts."""


class TooSmallError(HomrecError):
    """The vertex set is below the operation's minimum size."""


class InvalidSubsetError(HomrecError):
    """A vertex subset has duplicates, is unsorted, or is out of range."""


class InvalidLengthError(HomrecError):
    """A generator was asked for an unsupported path/cycle length."""


class DegenerateInputError(HomrecError):
    """An input that must be nonempty was empty."""


class PreconditionError(HomrecError):
    """A documented precondition does not hold for the given inputs."""


class ConsistencyError(HomrecError):
    """An internal consistency check failed: a bug, not bad input."""


class BudgetError(HomrecError):
    """The request exceeds the ceiling of the exhaustive search or the scans."""


class NotApplicableError(HomrecError):
    """The query is undefined for this input (e.g. minimal witnesses of a
    coloring that has only trivial reconstructions)."""


class FixtureError(HomrecError):
    """A fixture name or its parameters could not be parsed or built."""
