"""Errors and negative search outcomes shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class EllentuckError(Exception):
    """Base class for every error raised by this package."""


class EmptySequenceError(EllentuckError, ValueError):
    """The empty sequence carries no rank."""


class LevelOutOfRangeError(EllentuckError, ValueError):
    """Projection level outside 0..len(node)."""


class MalformedNodeError(EllentuckError, ValueError):
    """A tree node does not decode to a prefix chain of the well-order."""

    def __init__(self, node, reason):
        self.node = node
        self.reason = reason
        super().__init__(f"node {node!r}: {reason}")


class TruncationExhaustedError(EllentuckError, LookupError):
    """The truncation is too short to answer the query."""


class _Falsy:
    """Base of the shortfalls below. They are ordinary return values, not
    exceptions: running out of finite data is an expected outcome for most
    searches here. They are all falsy so callers can write `if result:` to
    test for success."""

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Exhausted(_Falsy):
    reason: str = "supply"
    detail: str = ""


@dataclass(frozen=True)
class NotIsomorphic(_Falsy):
    reason: str = ""


@dataclass(frozen=True)
class AmbiguousAtScale(_Falsy):
    """More than one canonical form fits the truncated data."""

    candidates: tuple = ()


@dataclass(frozen=True)
class NotCanonicalAtScale(_Falsy):
    """No projection vector fits the relation on the available data."""

    vectors_checked: int = 0


@dataclass(frozen=True)
class DisagreeWitness(_Falsy):
    """Pair of approximations on which two maps part ways."""

    a: object = None
    b: object = None
    detail: str = ""
