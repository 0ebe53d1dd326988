"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything from this package with a single handler while
still being able to discriminate the failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this package."""


class ParseError(ReproError):
    """A database or formula string could not be parsed.

    Attributes:
        text: the offending input fragment.
        position: character offset of the error in the original input,
            or ``None`` when not applicable.
    """

    def __init__(self, message: str, text: str = "", position: "int | None" = None):
        super().__init__(message)
        self.text = text
        self.position = position


class NotStratifiedError(ReproError):
    """A stratification-requiring operation was applied to an
    unstratifiable database (e.g. ICWA on a database with a negative
    dependency cycle)."""


class NotPositiveError(ReproError):
    """An operation defined only for positive databases (no negation in
    rule bodies) was applied to a database containing negation."""


class PartitionError(ReproError):
    """An invalid ``(P; Q; Z)`` partition of the vocabulary was supplied
    (overlapping blocks, atoms outside the vocabulary, or missing atoms)."""


class SolverError(ReproError):
    """Internal invariant violation inside a solver component."""


class BudgetExceededError(ReproError):
    """A solver exceeded an explicitly configured resource budget
    (conflicts, oracle calls, or enumerated models)."""


class GroundTruthCapError(ReproError):
    """A definitional (brute-force) procedure refused an instance above
    its safety bound — e.g. PWS split enumeration past ``MAX_SPLITS``.

    Distinct from validation errors: the instance is *legal*, only the
    ground-truth enumeration is too large.  Differential harnesses treat
    this as "ground truth unavailable" rather than an engine
    disagreement."""
