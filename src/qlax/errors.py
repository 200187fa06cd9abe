"""Exception types shared across the kernel and the CLI."""


class QlaxError(Exception):
    """Base class for every error this package raises on purpose."""


class TruncationMismatch(QlaxError):
    """Two q-series with different truncation orders were combined.

    Mixing moduli silently would corrupt every coefficient, so this is a hard
    error rather than an implicit re-truncation.
    """


class ShapeMismatch(QlaxError):
    """Two matrices of different sizes were added or multiplied.

    Pairing entries by position would silently drop the rows and columns
    one side lacks, so this is a hard error.
    """


class ValuationError(QlaxError):
    """A series violates the q-valuation precondition of an operation."""


class PrecisionExhausted(QlaxError):
    """A symbol coefficient below the tracked precision floor was requested,
    or a composition with infinitely many orders was attempted without a
    working floor."""


class DegreeOverflow(QlaxError):
    """A product of differential polynomials would pass the largest degree
    a packed monomial holds (``diffpoly.MAX_DEGREE``)."""


class ParseError(QlaxError):
    """Syntax error in the operator DSL, carrying the source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnboundIdentifier(ParseError):
    """An identifier the DSL does not know in the current context."""


class ProblemFileError(QlaxError):
    """A problem file failed validation; the message names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field
