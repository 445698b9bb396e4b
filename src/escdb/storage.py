"""Columnar in-memory tables.

All column kinds are backed by dense ``int64`` vectors plus a null mask:
DECIMAL(p, s) is stored as the value scaled by 10**s, DATE as days since
1970-01-01, and TEXT as codes into a per-column dictionary.  Tables are
immutable once loaded; "appending" returns a grown copy so loaders can
batch without mutating anything a reader might hold.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date as _date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    CsvError,
    EmptySchema,
    LengthMismatch,
    StorageError,
    TypeMismatch,
)

EPOCH = _date(1970, 1, 1)

INT64 = "INT64"
DATE = "DATE"
TEXT = "TEXT"


@dataclass(frozen=True)
class ColumnKind:
    """Column type tag.  ``scale`` / ``precision`` are set for DECIMAL only."""

    name: str
    precision: int = 0
    scale: int = 0

    def __str__(self):
        if self.name == "DECIMAL":
            return f"DECIMAL({self.precision},{self.scale})"
        return self.name

    @property
    def is_text(self):
        return self.name == TEXT

    @property
    def is_decimal(self):
        return self.name == "DECIMAL"


# the largest precision whose values, scaled, always fit in int64
MAX_DECIMAL_PRECISION = 18


def decimal(precision: int, scale: int) -> ColumnKind:
    if not (1 <= precision <= MAX_DECIMAL_PRECISION and 0 <= scale <= precision):
        raise TypeMismatch(
            f"DECIMAL({precision},{scale}): need 1 <= precision <= "
            f"{MAX_DECIMAL_PRECISION} and 0 <= scale <= precision"
        )
    return ColumnKind("DECIMAL", precision, scale)


KIND_INT64 = ColumnKind(INT64)
KIND_DATE = ColumnKind(DATE)
KIND_TEXT = ColumnKind(TEXT)


def parse_kind(text: str) -> ColumnKind:
    """Parse a schema-spec type like ``int64`` or ``decimal(15,2)``."""
    t = text.strip().upper()
    if t == INT64:
        return KIND_INT64
    if t == DATE:
        return KIND_DATE
    if t == TEXT:
        return KIND_TEXT
    if t.startswith("DECIMAL(") and t.endswith(")"):
        body = t[len("DECIMAL(") : -1]
        parts = body.split(",")
        if len(parts) == 2:
            try:
                return decimal(int(parts[0]), int(parts[1]))
            except ValueError:
                pass
    raise TypeMismatch(f"unknown column kind {text!r}")


def date_to_days(text: str) -> int:
    try:
        return (_date.fromisoformat(text) - EPOCH).days
    except ValueError as exc:
        raise TypeMismatch(f"bad DATE literal {text!r}: {exc}") from None


def days_to_date(days: int) -> str:
    return (_date.fromordinal(EPOCH.toordinal() + int(days))).isoformat()


def parse_decimal_scaled(text: str, scale: int) -> int:
    """Parse ``"12.34"`` into the scaled integer for a column of ``scale``.

    Rejects values with more fractional digits than the column keeps; the
    loader never rounds silently.
    """
    t = text.strip()
    neg = t.startswith("-")
    if neg or t.startswith("+"):
        t = t[1:]
    whole, _, frac = t.partition(".")
    if not (whole or frac) or not (whole + frac).isdigit():
        raise TypeMismatch(f"bad DECIMAL literal {text!r}")
    if len(frac) > scale:
        raise TypeMismatch(f"DECIMAL literal {text!r} exceeds scale {scale}")
    frac = frac.ljust(scale, "0")
    value = int(whole or "0") * 10**scale + int(frac or "0")
    return -value if neg else value


def format_decimal(scaled: int, scale: int) -> str:
    if scale == 0:
        return str(int(scaled))
    sign = "-" if scaled < 0 else ""
    mag = abs(int(scaled))
    return f"{sign}{mag // 10**scale}.{mag % 10**scale:0{scale}d}"


class Dictionary:
    """Bijection between distinct strings and codes 0..D-1."""

    def __init__(self):
        self._code_of: dict[str, int] = {}
        self._strings: list[str] = []

    def __len__(self):
        return len(self._strings)

    def encode(self, s: str) -> int:
        code = self._code_of.get(s)
        if code is None:
            code = len(self._strings)
            self._code_of[s] = code
            self._strings.append(s)
        return code

    def lookup(self, s: str) -> int | None:
        """Code for ``s`` if already present, else None (never inserts)."""
        return self._code_of.get(s)

    def decode(self, code: int) -> str:
        return self._strings[code]

    def strings(self) -> list[str]:
        return list(self._strings)


@dataclass
class Column:
    """One typed column: values vector + null mask (True = NULL).

    ``values`` at null positions are 0 and must not be interpreted.
    """

    name: str
    kind: ColumnKind
    values: np.ndarray
    null_mask: np.ndarray
    dictionary: Dictionary | None = None

    def __post_init__(self):
        if self.kind.is_text and self.dictionary is None:
            self.dictionary = Dictionary()

    def __len__(self):
        return len(self.values)

    def take(self, indices: np.ndarray) -> "Column":
        """Gather by row index; TEXT shares the source dictionary by reference."""
        return Column(
            self.name,
            self.kind,
            self.values[indices],
            self.null_mask[indices],
            self.dictionary,
        )

    def decode_value(self, i: int):
        """Python value for row ``i`` (None when NULL)."""
        if self.null_mask[i]:
            return None
        v = int(self.values[i])
        if self.kind.is_text:
            return self.dictionary.decode(v)
        if self.kind.name == DATE:
            return days_to_date(v)
        if self.kind.is_decimal:
            return format_decimal(v, self.kind.scale)
        return v


def _empty_column(name: str, kind: ColumnKind) -> Column:
    return Column(
        name, kind, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    )


class ColumnTable:
    """Immutable columnar relation: named, typed columns of equal length."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise EmptySchema(f"table {name!r} must have at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise LengthMismatch(
                f"table {name!r}: column lengths differ: "
                + ", ".join(f"{c.name}={len(c)}" for c in columns)
            )
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise StorageError(f"table {name!r}: duplicate column names")
        self.name = name
        self.columns = list(columns)
        self.row_count = lengths.pop()
        self._by_name = {c.name: c for c in self.columns}

    @classmethod
    def empty(cls, name: str, schema: Sequence[tuple[str, ColumnKind]]) -> "ColumnTable":
        if not schema:
            raise EmptySchema(f"table {name!r} must have at least one column")
        return cls(name, [_empty_column(n, k) for n, k in schema])

    @property
    def schema(self) -> list[tuple[str, ColumnKind]]:
        return [(c.name, c.kind) for c in self.columns]

    def column(self, name: str) -> Column:
        return self._by_name[name]

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def row(self, i: int) -> tuple:
        return tuple(c.decode_value(i) for c in self.columns)


# Python ints: np.iinfo's min/max are properties, too slow to read per cell
_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _convert_cell(raw, kind: ColumnKind, dictionary: Dictionary) -> tuple[int, bool]:
    """Convert one python/text cell to (int64 value, is_null)."""
    if raw is None:
        return 0, True
    if kind.is_text:
        if not isinstance(raw, str):
            raise TypeMismatch(f"expected TEXT value, got {raw!r}")
        return dictionary.encode(raw), False
    if kind.name == DATE:
        if isinstance(raw, str):
            return date_to_days(raw), False
        if isinstance(raw, int):
            return raw, False
        raise TypeMismatch(f"expected DATE value, got {raw!r}")
    if kind.is_decimal:
        if isinstance(raw, str):
            return parse_decimal_scaled(raw, kind.scale), False
        if isinstance(raw, int):
            # already scaled
            return raw, False
        raise TypeMismatch(f"expected DECIMAL value, got {raw!r}")
    # INT64
    if isinstance(raw, (int, np.integer)) and not isinstance(raw, bool):
        return int(raw), False
    if isinstance(raw, str):
        try:
            return int(raw.strip()), False
        except ValueError:
            raise TypeMismatch(f"expected INT64 value, got {raw!r}") from None
    raise TypeMismatch(f"expected INT64 value, got {raw!r}")


def append_rows(
    table: ColumnTable, rows: Iterable[Sequence], first_row_number: int = 1
) -> ColumnTable:
    """Return a new table with ``rows`` appended.

    TEXT values are dictionary-encoded on insert; strings parse per the
    column kind, and a DECIMAL may hold at most ``precision`` digits.
    Raises ArityMismatch/TypeMismatch on bad input, citing the offending
    row number (``first_row_number`` labels the first row, so loaders can
    report file line numbers).
    """
    rows = list(rows)
    width = len(table.columns)
    fresh = []
    for col in table.columns:
        values = np.empty(len(rows), dtype=np.int64)
        nulls = np.zeros(len(rows), dtype=bool)
        fresh.append((values, nulls))
    for rix, row in enumerate(rows):
        if len(row) != width:
            raise ArityMismatch(
                f"table {table.name!r}: row {first_row_number + rix}: "
                f"has {len(row)} values, expected {width}"
            )
        for cix, col in enumerate(table.columns):
            try:
                value, is_null = _convert_cell(row[cix], col.kind, col.dictionary)
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise TypeMismatch(
                        f"{col.kind} value {row[cix]!r} does not fit in int64"
                    )
            except TypeMismatch as exc:
                raise TypeMismatch(
                    f"table {table.name!r}: row {first_row_number + rix}, "
                    f"column {col.name!r}: {exc}"
                ) from None
            fresh[cix][0][rix] = value
            fresh[cix][1][rix] = is_null
    for cix, col in enumerate(table.columns):
        if col.kind.is_decimal:
            limit = 10**col.kind.precision  # NULL cells hold 0
            values = fresh[cix][0]
            bad = np.flatnonzero((values >= limit) | (values <= -limit))
            if bad.size:
                rix = int(bad[0])
                raise TypeMismatch(
                    f"table {table.name!r}: row {first_row_number + rix}, "
                    f"column {col.name!r}: {col.kind} value {rows[rix][cix]!r} "
                    f"has more than {col.kind.precision} digits"
                )
    merged = [
        Column(
            c.name,
            c.kind,
            np.concatenate([c.values, fresh[i][0]]),
            np.concatenate([c.null_mask, fresh[i][1]]),
            c.dictionary,
        )
        for i, c in enumerate(table.columns)
    ]
    return ColumnTable(table.name, merged)


# ---------------------------------------------------------------------------
# CSV load / dump
# ---------------------------------------------------------------------------

NULL_TOKEN = r"\N"


def load_csv(
    text_or_file,
    name: str,
    schema: Sequence[tuple[str, ColumnKind]],
    has_header: bool = False,
) -> ColumnTable:
    """Build a table from RFC-4180 CSV. ``\\N`` denotes NULL, DATE is ISO."""
    if isinstance(text_or_file, str):
        stream = io.StringIO(text_or_file)
    else:
        stream = text_or_file
    reader = csv.reader(stream)
    table = ColumnTable.empty(name, schema)
    rows = []
    for lineno, record in enumerate(reader, start=1):
        if has_header and lineno == 1:
            continue
        if len(record) != len(schema):
            raise CsvError(
                f"{name}: row {lineno}: expected {len(schema)} fields, got {len(record)}"
            )
        rows.append([None if cell == NULL_TOKEN else cell for cell in record])
    try:
        return append_rows(table, rows, first_row_number=2 if has_header else 1)
    except TypeMismatch as exc:
        raise CsvError(str(exc)) from exc


def dump_csv(table: ColumnTable, include_header: bool = False) -> str:
    """Serialize a table back to the loader's CSV format (byte-stable)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if include_header:
        writer.writerow([c.name for c in table.columns])
    for i in range(table.row_count):
        row = []
        for c in table.columns:
            v = c.decode_value(i)
            row.append(NULL_TOKEN if v is None else str(v))
        writer.writerow(row)
    return out.getvalue()
