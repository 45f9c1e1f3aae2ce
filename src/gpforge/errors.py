"""Exception hierarchy shared by all gpforge modules.

Each class is here because some caller tells it apart from the others:
  * GpforgeError: `cli.main` catches it last and exits 2 (input error).
  * AlphabetMismatchError: `presentations.parse` catches it and raises a
    ParseError that names the relator's line; otherwise exit 2.
  * ParseError: `cli` catches it in `--bs`, `--query` and `--oracle`
    values and exits 1 (usage error); the `.grp` and word readers catch it
    to add the line and column; otherwise exit 2.
  * InvalidInputError: the one class for a refused input (an empty
    amalgam word, a clashing stable letter, an unknown predicate, ...)
    that library callers catch; exit 2.
  * SearchBudgetError: a fixed budget was passed; exit 2.
  * InvalidComplexError, InternalError: `cli.main` exits 3 (internal
    invariant violation).
"""


class GpforgeError(Exception):
    """Base class for all errors raised by gpforge."""


class AlphabetMismatchError(GpforgeError):
    """A word uses a symbol that does not belong to the ambient alphabet."""


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


class InvalidInputError(GpforgeError):
    """User-supplied data fails a precondition (e.g. an empty relator)."""


class SearchBudgetError(GpforgeError):
    """A computation would pass one of its fixed budgets: candidates a
    search tries, bits of a Britton segment, cells of a complex, digits of
    a printed integer."""


class InvalidComplexError(GpforgeError):
    """Chain-complex or simplicial-complex invariants are violated."""


class InternalError(GpforgeError):
    """An internal invariant was violated; indicates a bug, not bad input."""
