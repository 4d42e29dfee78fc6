"""Exception hierarchy shared across the package."""


class MagnitudeError(Exception):
    """Base class for every error raised by maghom."""


class InvalidSpaceError(MagnitudeError):
    """A distance matrix violates a quasimetric axiom."""


class NonzeroDiagonal(InvalidSpaceError):
    pass


class ZeroOffDiagonal(InvalidSpaceError):
    pass


class TriangleViolation(InvalidSpaceError):
    pass


class InvalidInput(MagnitudeError, ValueError):
    """An input file or literal that cannot be read or parsed."""


class UnknownPoint(MagnitudeError):
    pass


class InvalidField(MagnitudeError):
    pass


class NotAComplex(MagnitudeError):
    """The two maps handed to a homology computation do not compose to zero."""


class UnvalidatedModule(MagnitudeError):
    """Operation requires a module that passed validate_module."""


class ResolutionTooShort(MagnitudeError):
    """Requested bidegree falls outside a truncated resolution."""


class NotACocycle(MagnitudeError):
    pass


class SpaceMismatch(MagnitudeError):
    pass


class DimensionMismatch(MagnitudeError):
    """Path-algebra quotient dimensions disagree with distance counts."""


class UnsupportedFormat(MagnitudeError):
    pass
