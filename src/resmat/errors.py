"""Exception types shared across the package."""


class ResmatError(Exception):
    """Base class for every error raised by this package."""


class BadShape(ResmatError):
    """Input data has the wrong dimensions or an inconsistent layout."""


class NonPositiveBound(ResmatError):
    """A box bound or a degree is smaller than 1."""


class OrderingViolated(ResmatError):
    """Rows 0..n-1 of the bounds are not coordinatewise nondecreasing."""


class SingularGenerators(ResmatError):
    """The generator matrix has determinant 0."""


class PointOutOfRange(ResmatError):
    """A lattice point lies outside the half-open point window of the system."""


class NotClosed(ResmatError):
    """A matrix row generates a column point missing from the point set.

    Carries a witness pair (row_point, missing_column_point).
    """

    def __init__(self, row_point, missing_point):
        self.row_point = row_point
        self.missing_point = missing_point
        super().__init__(
            f"point set is not closed under column supports: row {row_point} "
            f"needs column {missing_point}"
        )


class UnsupportedFormat(ResmatError):
    """Unknown export format name."""


class InvariantViolated(ResmatError):
    """An internal invariant of the subdivision does not hold."""


class NotPrime(ResmatError):
    """The requested modulus is not a (verified) prime."""


class SpecParse(ResmatError):
    """A system description file could not be parsed."""


class SpecInvalid(ResmatError):
    """A system description file parsed but failed validation."""
