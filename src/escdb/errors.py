"""Exception hierarchy for the engine.

Every error raised on a user-facing path derives from EscdbError and
carries a ``phase`` label (parse / analyze / plan / execute / storage)
so the CLI can report where a query failed.
"""

from __future__ import annotations


class EscdbError(Exception):
    """Base class for all engine errors."""

    phase = "engine"


class StorageError(EscdbError):
    phase = "storage"


class DuplicateTable(StorageError):
    pass


class EmptySchema(StorageError):
    pass


class ArityMismatch(StorageError):
    pass


class TypeMismatch(StorageError):
    pass


class LengthMismatch(StorageError):
    pass


class CsvError(StorageError):
    pass


class ParseError(EscdbError):
    """Syntax error; carries 1-based line/column of the offending token."""

    phase = "parse"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnsupportedConstruct(ParseError):
    pass


class AnalysisError(EscdbError):
    phase = "analyze"


class UnknownTable(AnalysisError):
    pass


class UnknownColumn(AnalysisError):
    pass


class AmbiguousColumn(AnalysisError):
    pass


class UnknownFunction(AnalysisError):
    pass


class DuplicateFunction(AnalysisError):
    pass


class UnsupportedPredicate(AnalysisError):
    pass


class PlanError(EscdbError):
    phase = "plan"


class CartesianProductRequired(PlanError):
    pass


class ExecutionError(EscdbError):
    phase = "execute"


class UnsupportedColumnKind(EscdbError):
    pass


class Inestimable(EscdbError):
    """Raised when a predicate contains atoms no histogram can estimate."""

    pass


class ScaleTooSmall(EscdbError):
    pass


class UsageError(EscdbError):
    phase = "cli"
