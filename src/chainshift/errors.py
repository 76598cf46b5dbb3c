"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so every error raised by library
code should derive from one of the classes below.
"""

from __future__ import annotations


class ChainshiftError(Exception):
    """Base class for all library errors."""


class ParseError(ChainshiftError):
    """Malformed substitution input text (exit code 2)."""


class NoPrimitiveChainError(ChainshiftError):
    """The substitution has no chain of primitive components (exit code 3).

    ``diagnostic`` names the obstruction: either a pair of strongly connected
    components that are incomparable under reachability, or a component whose
    diagonal block is not primitive.
    """

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class DomainError(ChainshiftError):
    """Invalid argument for an otherwise well-formed system (exit code 4)."""


class WordNotInLevelLanguage(DomainError):
    """Queried word does not belong to the level's language."""


class MeasureTypeCounting(DomainError):
    """Cylinder evaluation requested on a counting-type level."""


class LambdaNotDominant(DomainError):
    """Eigenvector data requested while the global growth rate is <= 1."""


class ThetaNotAboveOne(DomainError):
    """Limit data requested for a level whose block eigenvalue equals 1."""


class BudgetExceeded(ChainshiftError):
    """A streaming or expansion budget was exhausted (exit code 5)."""


class InternalInvariantError(ChainshiftError):
    """A computed result failed its own check (exit code 6)."""
