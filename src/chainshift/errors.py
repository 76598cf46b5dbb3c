"""Exception hierarchy shared across the package.

Every error raised by library code derives from one of the classes below,
and each class carries the process exit code the CLI returns for it
(``exit_code``), inherited by its subclasses.
"""

from __future__ import annotations


class ChainshiftError(Exception):
    """Base class for all library errors; it and ``DomainError`` exit 4."""

    exit_code = 4


class ParseError(ChainshiftError):
    """Malformed substitution input text."""

    exit_code = 2


class NoPrimitiveChainError(ChainshiftError):
    """The substitution has no chain of primitive components.

    ``diagnostic`` names the obstruction: either a pair of strongly connected
    components that are incomparable under reachability, or a component whose
    diagonal block is not primitive.
    """

    exit_code = 3

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class DomainError(ChainshiftError):
    """Invalid argument for an otherwise well-formed system."""


class WordNotInLevelLanguage(DomainError):
    """Queried word does not belong to the level's language."""


class MeasureTypeCounting(DomainError):
    """Cylinder evaluation requested on a counting-type level."""


class LambdaNotDominant(DomainError):
    """Eigenvector data requested while the global growth rate is <= 1."""


class ThetaNotAboveOne(DomainError):
    """Limit data requested for a level whose block eigenvalue equals 1."""


class BudgetExceeded(ChainshiftError):
    """A streaming or expansion budget was exhausted."""

    exit_code = 5


class InternalInvariantError(ChainshiftError):
    """A computed result failed its own check."""

    exit_code = 6
