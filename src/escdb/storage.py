"""Columnar in-memory tables.

All column kinds are backed by dense ``int64`` vectors plus a null mask:
DECIMAL(p, s) is stored as the value scaled by 10**s, DATE as days since
1970-01-01, and TEXT as codes into a per-column dictionary.  Tables are
immutable once built.

CSV loads and dumps go a column at a time.  ``load_csv`` converts each
column with one operation per kind.  A column with a cell in another form,
or a bad cell, is parsed cell by cell, that column alone, which finds
its first bad row.  The first bad cell in row-major order is reported with
its row and column; DECIMAL precision is checked after that, column by
column.  ``dump_csv`` decodes each column to strings once.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date as _date
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
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


# The one DATE form.  date.fromisoformat alone also reads 20200101 and
# 2020-W01-1 from Python 3.11 on, and numpy's datetime64 parser reads 2020-01
# as a date and 20200101 as the year 20200101.
_ISO_DATE = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_ISO_DATE_RE = re.compile(_ISO_DATE)


def date_to_days(text: str) -> int:
    """Days since 1970-01-01 of a ``YYYY-MM-DD`` date."""
    try:
        day = _date.fromisoformat(text)
    except ValueError as exc:
        raise TypeMismatch(f"bad DATE literal {text!r}: {exc}") from None
    if not _ISO_DATE_RE.fullmatch(text):
        raise TypeMismatch(
            f"bad DATE literal {text!r}: Invalid isoformat string: {text!r}"
        )
    return (day - EPOCH).days


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
    if not (whole or frac) or not (whole + frac).isdecimal():
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
    """Bijection between distinct strings and codes 0..D-1.

    Codes are handed out in order of first appearance and never change,
    and strings are only ever added, so the sort order that ``ranked``
    returns is still right for the codes it covers and is rebuilt only
    when the dictionary has grown.
    """

    def __init__(self):
        self._code_of: dict[str, int] = {}
        self._strings: list[str] = []
        # (size, sorted strings, rank per code) as of ``size`` strings: one
        # tuple, so a query racing a rebuild reads one consistent version
        self._ranked: tuple[int, list[str], np.ndarray] = (
            0, [], np.empty(0, dtype=np.int64)
        )

    def __len__(self):
        return len(self._strings)

    def encode_all(self, strings: Sequence[str]) -> np.ndarray:
        """Codes for ``strings``, inserting the new ones: they get the next
        codes in order of first appearance."""
        new = [s for s in dict.fromkeys(strings) if s not in self._code_of]
        first = len(self._strings)
        self._code_of.update(zip(new, range(first, first + len(new))))
        self._strings.extend(new)
        return np.fromiter(
            map(self._code_of.__getitem__, strings), np.int64, len(strings)
        )

    def lookup(self, s: str) -> int | None:
        """Code for ``s`` if already present, else None (never inserts)."""
        return self._code_of.get(s)

    def decode(self, code: int) -> str:
        return self._strings[code]

    def strings(self) -> list[str]:
        return list(self._strings)

    def ranked(self) -> tuple[list[str], np.ndarray]:
        """The strings in sorted order, and each code's position in it:
        ``sorted_strings[rank[code]] == decode(code)``."""
        size, sorted_strings, rank = self._ranked
        if size != len(self._strings):
            strings = list(self._strings)
            order = sorted(range(len(strings)), key=strings.__getitem__)
            sorted_strings = [strings[i] for i in order]
            rank = np.empty(len(strings), dtype=np.int64)
            rank[order] = np.arange(len(strings))
            self._ranked = (len(strings), sorted_strings, rank)
        return sorted_strings, rank


@dataclass
class Column:
    """One typed column: values vector + null mask (True = NULL).

    ``values`` at null positions are 0 and must not be interpreted.  They
    must be 0 because the executor indexes a TEXT column's lookup table
    with the stored codes, NULL slots included, before it drops the NULL
    rows; code 0 is in range whenever the dictionary is not empty.
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

    @cached_property
    def has_nulls(self) -> bool:
        """Whether any row is NULL; cached, as a loaded column never changes."""
        return bool(self.null_mask.any())

    @cached_property
    def bounds(self) -> tuple[int, int] | None:
        """``(min, max)`` of the stored values, NULL slots' 0 included, as
        Python ints; None when empty.  Cached like ``has_nulls``."""
        if not self.values.size:
            return None
        return int(self.values.min()), int(self.values.max())

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

    def row(self, i: int) -> tuple:
        return tuple(c.decode_value(i) for c in self.columns)


_EPOCH_ORDINAL = EPOCH.toordinal()
# Python ints: np.iinfo's min/max are properties, too slow to read per cell
_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _column_text(value: str, cells: list[str]) -> str | None:
    """``cells`` joined by newlines if each one is a full match of the
    regex ``value`` (which matches no newline), else None: one regex pass
    checks the whole column."""
    text = "\n".join(cells)
    if text.count("\n") != len(cells) - 1:
        return None  # a cell holds a newline
    if re.fullmatch(f"{value}(?:\n{value})*", text) is None:
        return None
    return text


def _decimal_form(scale: int) -> str:
    """The form ``format_decimal`` writes, the one DECIMAL form read a
    column at a time: an optional minus, digits, and exactly ``scale``
    decimals."""
    return f"-?[0-9]+\\.[0-9]{{{scale}}}" if scale else "-?[0-9]+"


def _convert_column(cells: list[str], kind: ColumnKind) -> np.ndarray | None:
    """A numeric column's non-NULL CSV cells converted with one operation.
    Returns None, or raises ValueError or OverflowError, when some cell
    needs ``_parse_cell``: a form read only there, or a value past int64."""
    if not cells:
        return np.empty(0, dtype=np.int64)
    if kind.name == INT64:
        # int() strips what _parse_cell's strip() strips, except \x1c-\x1f:
        # there it raises, and the column goes per cell
        return np.fromiter(map(int, cells), np.int64, len(cells))
    if kind.name == DATE:
        if _column_text(_ISO_DATE, cells) is None:
            return None
        days = map(_date.toordinal, map(_date.fromisoformat, cells))
        return np.fromiter(days, np.int64, len(cells)) - _EPOCH_ORDINAL
    text = _column_text(_decimal_form(kind.scale), cells)
    if text is None:
        return None
    scaled = map(int, text.replace(".", "").split("\n"))
    return np.fromiter(scaled, np.int64, len(cells))


def _parse_cell(cell: str, kind: ColumnKind) -> int:
    """One non-NULL numeric cell as its stored int64."""
    if kind.name == DATE:
        return date_to_days(cell)
    if kind.is_decimal:
        value = parse_decimal_scaled(cell, kind.scale)
    else:
        try:
            value = int(cell.strip())
        except ValueError:
            raise TypeMismatch(f"expected INT64 value, got {cell!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise TypeMismatch(f"{kind} value {cell!r} does not fit in int64")
    return value


class _BadCell(Exception):
    """A column's first cell that does not parse; args are its row index
    and the parser's message."""


def _load_column(col: Column, cells: Sequence[str | None]) -> Column:
    """The empty ``col`` with its CSV ``cells`` (None for NULL) loaded: with
    one operation when ``_convert_column`` takes the column, else cell by
    cell, raising _BadCell at the first bad cell."""
    nulls = np.zeros(len(cells), dtype=bool)
    present = cells
    if None in cells:
        nulls = np.array([c is None for c in cells], dtype=bool)
        present = [c for c in cells if c is not None]
    if col.kind.is_text:
        values = col.dictionary.encode_all(present)
    else:
        try:
            values = _convert_column(present, col.kind)
        except (ValueError, OverflowError):
            values = None
    full = np.zeros(len(cells), dtype=np.int64)
    if values is not None:
        full[~nulls] = values
    else:
        for rix, cell in enumerate(cells):
            if cell is not None:
                try:
                    full[rix] = _parse_cell(cell, col.kind)
                except TypeMismatch as exc:
                    raise _BadCell(rix, str(exc)) from None
    return Column(col.name, col.kind, full, nulls, col.dictionary)


def _load_columns(
    table: ColumnTable, cols: list[Sequence[str | None]], first_row_number: int
) -> ColumnTable:
    """The empty ``table`` with the transposed CSV cells ``cols`` loaded a
    column at a time.  Of the bad cells, the first in row-major order is
    reported; only when there is none is DECIMAL precision checked, column
    by column."""
    columns, bad = [], []
    for cix, (col, cells) in enumerate(zip(table.columns, cols)):
        try:
            columns.append(_load_column(col, cells))
        except _BadCell as exc:
            rix, message = exc.args
            bad.append((rix, cix, message))
    if bad:
        rix, cix, message = min(bad)
        raise TypeMismatch(
            f"table {table.name!r}: row {first_row_number + rix}, "
            f"column {table.columns[cix].name!r}: {message}"
        )
    for cix, col in enumerate(columns):
        if col.kind.is_decimal:
            limit = 10**col.kind.precision  # NULL cells hold 0
            over = np.flatnonzero((col.values >= limit) | (col.values <= -limit))
            if over.size:
                rix = int(over[0])
                raise TypeMismatch(
                    f"table {table.name!r}: row {first_row_number + rix}, "
                    f"column {col.name!r}: {col.kind} value {cols[cix][rix]!r} "
                    f"has more than {col.kind.precision} digits"
                )
    return ColumnTable(table.name, columns)


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
    """Build a table from RFC-4180 CSV. ``\\N`` denotes NULL, DATE is ISO.

    Malformed CSV, and bytes that the stream's encoding cannot decode,
    raise CsvError naming the line."""
    if isinstance(text_or_file, str):
        stream = io.StringIO(text_or_file)
    else:
        stream = text_or_file
    reader = csv.reader(stream)
    table = ColumnTable.empty(name, schema)
    records = []
    try:
        for lineno, record in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if len(record) != len(schema):
                raise CsvError(
                    f"{name}: row {lineno}: expected {len(schema)} fields, "
                    f"got {len(record)}"
                )
            records.append(record)
    except csv.Error as exc:
        raise CsvError(f"{name}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the decoder failed on a chunk that starts within the line after
        # the last one read; count the chunk's newlines before the bad byte
        line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
        bad = exc.object[exc.start]
        raise CsvError(
            f"{name}: line {line}: byte 0x{bad:02x} is not valid "
            f"{exc.encoding} ({exc.reason})"
        ) from exc
    cols = [
        [None if cell == NULL_TOKEN else cell for cell in col]
        if NULL_TOKEN in col
        else col
        for col in zip(*records)
    ] or [()] * len(schema)
    try:
        return _load_columns(table, cols, 2 if has_header else 1)
    except TypeMismatch as exc:
        raise CsvError(str(exc)) from exc


def _column_strings(col: Column) -> list[str]:
    """The column's cells as ``dump_csv`` writes them, NULL as ``\\N``."""
    nulls = col.null_mask
    has_null = col.has_nulls
    items = (col.values[~nulls] if has_null else col.values).tolist()
    if col.kind.is_text:
        strings = list(map(col.dictionary.decode, items))
    elif col.kind.name == DATE:
        ordinals = map(_EPOCH_ORDINAL.__add__, items)
        strings = list(map(_date.isoformat, map(_date.fromordinal, ordinals)))
    elif col.kind.is_decimal:
        strings = [format_decimal(v, col.kind.scale) for v in items]
    else:
        strings = list(map(str, items))
    if not has_null:
        return strings
    present = iter(strings)
    return [NULL_TOKEN if null else next(present) for null in nulls.tolist()]


def dump_csv(table: ColumnTable, include_header: bool = False) -> str:
    """Serialize a table back to the loader's CSV format (byte-stable)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if include_header:
        writer.writerow([c.name for c in table.columns])
    writer.writerows(zip(*map(_column_strings, table.columns)))
    return out.getvalue()
