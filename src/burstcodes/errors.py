"""Exception types shared across the package.

Decoding problems are kept distinct from caller mistakes: a malformed word
or an impossible parameter raises ValueError, while a received word that
cannot be explained (or is explained twice) raises a DecodingError subclass.
"""

__all__ = ["DecodingError", "DecodeFailure", "DecodeAmbiguity", "DivisibilityError", "GuardLimit"]


class DecodingError(Exception):
    """Base class for decode-time failures."""


class DecodeFailure(DecodingError):
    """No syndrome-consistent candidate explains the received word."""


class DecodeAmbiguity(DecodingError):
    """More than one syndrome-consistent candidate survived filtering."""


class DivisibilityError(ValueError):
    """Not raised by the package; kept so that code catching it still runs."""


class GuardLimit(Exception):
    """A requested enumeration exceeds the configured resource guard."""
