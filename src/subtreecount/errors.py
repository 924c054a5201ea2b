"""Exception types shared by every module in this package."""


class SubtreeCountError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(SubtreeCountError):
    """Malformed textual input (edge list, polynomial text or JSON)."""


class NotATree(SubtreeCountError):
    """Edge data does not describe a tree (cycle, disconnection, duplicate)."""


class UnknownVertex(SubtreeCountError):
    """A vertex label is not present in the tree."""


class SameVertex(SubtreeCountError):
    """Two anchor vertices were required to be distinct but are equal."""


class InvalidArgument(SubtreeCountError, ValueError):
    """An argument outside the operation's domain; a ValueError as well."""


class TooManyAnchors(SubtreeCountError, ValueError):
    """More than two anchor vertices were given; a ValueError as well."""


class LengthMismatch(SubtreeCountError):
    """Weight vectors of incompatible lengths were combined."""


class NegativeCoefficient(SubtreeCountError):
    """Polynomial subtraction would produce a negative coefficient."""


class KTooSmall(SubtreeCountError):
    """The degree bound k is below the minimum the operation supports."""


class TooLarge(SubtreeCountError):
    """Input exceeds a size bound: the CLI's input length or the
    brute-force oracle's vertex count."""
