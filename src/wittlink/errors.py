"""Exception hierarchy shared across the library.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error reports.
"""


class WittLinkError(ValueError):
    """Base class for all domain errors raised by this library."""

    code = "error"


class NotSquareError(WittLinkError):
    code = "not_square"


class NotSymmetricError(WittLinkError):
    code = "not_symmetric"


class NotIntegerError(WittLinkError):
    code = "not_integer"


class DegenerateError(WittLinkError):
    code = "degenerate"


class ZeroEntryError(WittLinkError):
    code = "zero_entry"


class NotPrimeError(WittLinkError):
    code = "not_prime"


class PrimeMismatchError(WittLinkError):
    code = "prime_mismatch"


class NotCoprimeError(WittLinkError):
    code = "not_coprime"


class CertificationBoundError(WittLinkError):
    code = "certification_bound"


class LengthMismatchError(WittLinkError):
    code = "length_mismatch"


class GroupTooLargeError(WittLinkError):
    code = "group_too_large"


class NotEvenError(WittLinkError):
    code = "not_even"


class DeterminantTooLargeError(WittLinkError):
    code = "determinant_too_large"


class InvalidSeifertError(WittLinkError):
    code = "invalid_seifert"


class DegenerateParameterError(WittLinkError):
    code = "degenerate_parameter"


class NotFoundError(WittLinkError):
    code = "not_found"
