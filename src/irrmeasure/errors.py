"""Exception taxonomy for the package.

Raise sites tag the operation they came from (``origin``) so reports and
the command-line surface can name the analysis step that failed; the
exit-code mapping lives in the CLI.
"""

from __future__ import annotations


class LabError(Exception):
    """Base for all package errors; ``origin`` names module.operation."""

    def __init__(self, message: str, *, origin: str = "") -> None:
        self.origin = origin
        super().__init__(f"[{origin}] {message}" if origin else message)


class DepthExhausted(LabError):
    """A finite coefficient backing is shorter than the requested depth."""


class DepthCapExceeded(LabError):
    """Coefficient access hit the hard depth cap."""


class UndecidedComparison(LabError):
    """Two enclosures still overlap after the refinement budget.

    The values may be equal (dependent inputs) or the budget too small;
    the caller decides, the comparison never guesses.
    """

    def __init__(self, message: str, *, origin: str = "",
                 left=None, right=None) -> None:
        super().__init__(message, origin=origin)
        self.left = left
        self.right = right


class UndecidedOrdering(LabError):
    """A tuple ordering could not be certified at some time."""

    def __init__(self, message: str, *, origin: str = "",
                 time: int | None = None,
                 pair: tuple[int, int] | None = None) -> None:
        super().__init__(message, origin=origin)
        self.time = time
        self.pair = pair


class PrecisionInsufficient(LabError):
    """An input enclosure is too wide to certify the requested result."""


class DependentTuple(LabError):
    """Two tuple members were proven dependent (sum or difference in Z)."""


class WindowTooShort(LabError):
    """The observation window is too small for the requested analysis.

    ``burn_in`` is the burn-in time when that is what does not fit."""

    def __init__(self, message: str, *, origin: str = "",
                 burn_in: int | None = None) -> None:
        super().__init__(message, origin=origin)
        self.burn_in = burn_in


class OutOfHorizon(LabError):
    """A query time lies beyond the materialized trajectory horizon."""


class RadicandError(LabError):
    """A radicand is unusable: non-positive, a perfect square, or too
    large for trial factoring to certify square-freeness."""


class VerificationFailed(LabError):
    """A bound check failed even after the horizon-doubling retries."""


class SpecFileError(LabError):
    """Base for tuple-spec file problems (usage errors, exit code 2)."""


class SpecSyntaxError(SpecFileError):
    def __init__(self, message: str, *, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}",
                         origin="specfile.parse_spec")
        self.line = line
        self.column = column


class SpecSemanticError(SpecFileError):
    def __init__(self, message: str, *, entity: str = "") -> None:
        prefix = f"[{entity}] " if entity else ""
        super().__init__(prefix + message, origin="specfile.parse_spec")
        self.entity = entity
