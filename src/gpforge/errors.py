"""Exception hierarchy shared by all gpforge modules."""


class GpforgeError(Exception):
    """Base class for all errors raised by gpforge."""


class AlphabetMismatchError(GpforgeError):
    """A word uses a symbol that does not belong to the ambient alphabet."""


class PartialMapError(GpforgeError):
    """A substitution map is missing a symbol that occurs in the word."""


class ParseError(GpforgeError):
    """Syntax error in a textual format; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class DegenerateEdgeError(GpforgeError):
    """An amalgam identification pair contains an empty word."""


class StableLetterError(GpforgeError):
    """The requested HNN stable letter clashes with a base generator."""


class UnsupportedEdgeError(GpforgeError):
    """A Baumslag-Solitar rewrite system was given a zero parameter."""


class InvalidInputError(GpforgeError):
    """User-supplied data fails a precondition (e.g. an empty relator)."""


class SearchBudgetError(GpforgeError):
    """A computation would pass one of its fixed budgets: candidates a
    search tries, bits of a Britton segment, cells of a complex, digits of
    a printed integer."""


class InvalidComplexError(GpforgeError):
    """Chain-complex or simplicial-complex invariants are violated."""


class ConstructionIntegrityError(GpforgeError):
    """A build-time verification that should be impossible to fail, failed."""


class InternalError(GpforgeError):
    """An internal invariant was violated; indicates a bug, not bad input."""
