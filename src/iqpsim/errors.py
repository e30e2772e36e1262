"""Exception taxonomy shared across the package.

Three families matter to callers: InputError for malformed or
out-of-contract inputs, BudgetError for computations that would exceed a
configured size budget, and NumericalInconsistency for results that
violate a mathematical guarantee by more than float noise. The command
line layer maps the families to distinct exit codes.
"""


class SimulationError(Exception):
    """Base class for every package-specific error."""


class InputError(SimulationError):
    """Invalid or out-of-contract input."""


class DimensionMismatch(InputError):
    """Operands whose shapes do not agree."""


class ZeroDirection(InputError):
    """Row projection along the zero vector is undefined."""


class NotIdempotent(InputError):
    """A projector matrix must satisfy M*M = M."""


class UnsupportedAngle(InputError):
    """The operation needs an exact dyadic multiple of pi."""


class ColumnBoundViolated(InputError):
    """A column of the gate matrix exceeds the promised weight bound."""


class RowWeightViolated(InputError):
    """A row of the gate matrix exceeds the promised weight bound."""


class SupportTooLarge(InputError):
    """The projector touches more bits than the method supports."""


class ParseError(InputError):
    """Input file or argument text that cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedHeader(ParseError):
    """Matrix file header is not 'n l' or the row block is inconsistent."""


class BadRowLength(ParseError):
    """Matrix file row with the wrong number of characters."""


class BadCharacter(ParseError):
    """Matrix file row containing a character other than 0 or 1."""


class BadAngle(ParseError):
    """Angle text that is neither 'a/b' nor 'rad:<float>'."""


class BudgetError(SimulationError):
    """A computation would exceed a configured size budget."""


class RankTooLarge(BudgetError):
    """Codeword enumeration over 2^r entries is out of budget."""


class TooManyRows(BudgetError):
    """More rows than an exact Tutte expansion allows."""


class BudgetExceeded(BudgetError):
    """A memo table grew past its configured limit."""


class RangeTooLarge(BudgetError):
    """The projector range is too large to transform over."""


class DomainTooLarge(BudgetError):
    """The full output domain 2^l is too large to materialize."""


class TooManyQubits(BudgetError):
    """The dense statevector would not fit the oracle budget."""


class NumericalInconsistency(SimulationError):
    """A result violates an exact identity beyond float tolerance."""
