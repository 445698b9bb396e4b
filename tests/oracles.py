"""Independent oracles the engine is checked against.

These interpret resolved predicates row by row over plain Python
values — no numpy, no shared code with the executor beyond the storage
containers themselves.  Semantics mirrored deliberately:

* an atom is unknown (None) when any operand is NULL,
* AND/OR/NOT are SQL's three-valued connectives over True/False/None,
  written out per value (the engine derives them from a negated pass),
  and a row qualifies only where the predicate is True,
* TEXT atoms compare decoded strings, each bound a stored code decoded
  (the engine compares the codes: they agree only because a code is its
  string's rank in the column's dictionary),
* UDFs receive float arguments: DECIMAL descaled by 10**-scale, DATE as
  epoch days, and a result of None or NaN is NULL.

``load_cells`` is the per-cell reference for ``load_csv``, and
``load_rows`` builds the tables the tests run on.
"""

from __future__ import annotations

import csv
import io
from collections import Counter

import numpy as np

from escdb import expr as ex
from escdb.errors import TypeMismatch
from escdb.storage import (
    DATE,
    NULL_TOKEN,
    Column,
    ColumnKind,
    ColumnTable,
    Dictionary,
    date_to_days,
    load_csv,
    parse_decimal_scaled,
)


def load_rows(name, schema, rows) -> ColumnTable:
    """``rows`` loaded through ``load_csv``: None as NULL, other values
    written with ``str``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [NULL_TOKEN if v is None else str(v) for v in row] for row in rows
    )
    return load_csv(out.getvalue(), name, schema)


# ---------------------------------------------------------------------------
# Per-cell CSV conversion
# ---------------------------------------------------------------------------

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _convert_cell(raw, kind: ColumnKind, code_of: dict | None) -> tuple[int, bool]:
    """Convert one text cell (None for NULL) to (int64 value, is_null);
    ``code_of`` maps a TEXT column's strings to their codes."""
    if raw is None:
        return 0, True
    if kind.is_text:
        return code_of[raw], False
    if kind.name == DATE:
        return date_to_days(raw), False
    if kind.is_decimal:
        return parse_decimal_scaled(raw, kind.scale), False
    try:
        if "_" in raw:  # int() reads 1_000 as 1000; the loader does not
            raise ValueError
        return int(raw.strip()), False
    except ValueError:
        raise TypeMismatch(f"expected INT64 value, got {raw!r}") from None


def load_cells(name: str, schema, rows, first_row_number: int = 1) -> ColumnTable:
    """A table of the text ``rows`` (None for NULL), built one cell at a
    time.  Strings parse per the column kind, and a DECIMAL may hold at
    most ``precision`` digits.  A TEXT column's code for a string is its
    rank among the column's sorted distinct strings.  Raises TypeMismatch
    at the first bad cell in row-major order, citing its row
    (``first_row_number`` labels the first row) and column; precision is
    checked after every cell converted, column by column."""
    rows = list(rows)
    columns = []
    for cix, (cname, kind) in enumerate(schema):
        strings = code_of = None
        if kind.is_text:
            strings = sorted({row[cix] for row in rows if row[cix] is not None})
            code_of = {s: code for code, s in enumerate(strings)}
        columns.append((cname, kind, strings, code_of))
    values = [np.empty(len(rows), dtype=np.int64) for _ in schema]
    nulls = [np.zeros(len(rows), dtype=bool) for _ in schema]
    for rix, row in enumerate(rows):
        for cix, (cname, kind, _, code_of) in enumerate(columns):
            try:
                value, is_null = _convert_cell(row[cix], kind, code_of)
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise TypeMismatch(
                        f"{kind} value {row[cix]!r} does not fit in int64"
                    )
            except TypeMismatch as exc:
                raise TypeMismatch(
                    f"table {name!r}: row {first_row_number + rix}, "
                    f"column {cname!r}: {exc}"
                ) from None
            values[cix][rix] = value
            nulls[cix][rix] = is_null
    for cix, (cname, kind, _, _) in enumerate(columns):
        if kind.is_decimal:
            limit = 10**kind.precision  # NULL cells hold 0
            bad = np.flatnonzero((values[cix] >= limit) | (values[cix] <= -limit))
            if bad.size:
                rix = int(bad[0])
                raise TypeMismatch(
                    f"table {name!r}: row {first_row_number + rix}, "
                    f"column {cname!r}: {kind} value {rows[rix][cix]!r} "
                    f"has more than {kind.precision} digits"
                )
    return ColumnTable(
        name,
        [
            Column(
                cname,
                kind,
                values[cix],
                nulls[cix],
                None if strings is None else Dictionary(strings),
            )
            for cix, (cname, kind, strings, _) in enumerate(columns)
        ],
    )


class _Col:
    """Python-land snapshot of one column."""

    def __init__(self, col):
        self.vals = col.values.tolist()
        self.nulls = col.null_mask.tolist()
        self.kind = col.kind
        self.dict = col.dictionary
        if col.kind.is_text:
            self.strs = [
                None if n else self.dict.decode(v)
                for v, n in zip(self.vals, self.nulls)
            ]
        else:
            self.strs = None

    def raw(self, i):
        return None if self.nulls[i] else self.vals[i]

    def text(self, i):
        return self.strs[i]

    def as_float(self, i):
        if self.nulls[i]:
            return None
        v = float(self.vals[i])
        if self.kind.is_decimal:
            v /= float(10 ** self.kind.scale)
        return v


class _Table:
    def __init__(self, table: ColumnTable):
        self.cols = {c.name: _Col(c) for c in table.columns}
        self.n = table.row_count


_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _atom(pred, cols, i) -> bool | None:
    """One atom over row ``i``; ``cols`` maps column name -> _Col.  None
    (unknown) when an operand is NULL."""
    if isinstance(pred, ex.FoldedAtom):
        if cols[pred.col.name].nulls[i]:
            return None
        return pred.result
    if isinstance(pred, ex.Comparison):
        c = cols[pred.col.name]
        if c.nulls[i]:
            return None
        if c.strs is not None:
            return _OPS[pred.op](c.text(i), c.dict.decode(pred.value))
        return _OPS[pred.op](c.vals[i], pred.value)
    if isinstance(pred, ex.Range):
        c = cols[pred.col.name]
        if c.nulls[i]:
            return None
        if c.strs is not None:
            return c.dict.decode(pred.lo) <= c.text(i) <= c.dict.decode(pred.hi)
        return pred.lo <= c.vals[i] <= pred.hi
    if isinstance(pred, ex.ColumnCompare):
        a = cols[pred.left.name]
        b = cols[pred.right.name]
        if a.nulls[i] or b.nulls[i]:
            return None
        return _OPS[pred.op](a.vals[i], b.vals[i])
    if isinstance(pred, ex.FnCall):
        args = []
        for ref in pred.args:
            v = cols[ref.name].as_float(i)
            if v is None:
                return None
            args.append(v)
        result = pred.fn(*args)
        if result is None or result != result:  # None or NaN: NULL
            return None
        return _OPS[pred.op](result, pred.value)
    raise TypeError(f"oracle cannot evaluate {type(pred).__name__}")


def _and(values) -> bool | None:
    values = list(values)
    if False in values:
        return False
    return None if None in values else True


def _or(values) -> bool | None:
    values = list(values)
    if True in values:
        return True
    return None if None in values else False


def _not(value: bool | None) -> bool | None:
    return None if value is None else not value


def _eval(pred, cols, i) -> bool | None:
    if isinstance(pred, ex.And):
        return _and(_eval(p, cols, i) for p in pred.items)
    if isinstance(pred, ex.Or):
        return _or(_eval(p, cols, i) for p in pred.items)
    if isinstance(pred, ex.Not):
        return _not(_eval(pred.child, cols, i))
    return _atom(pred, cols, i)


def oracle_count(table: ColumnTable, pred) -> int:
    """Brute-force row-by-row count of rows satisfying ``pred``."""
    t = _Table(table)
    if pred is None:
        return t.n
    return sum(1 for i in range(t.n) if _eval(pred, t.cols, i) is True)


def oracle_select(table: ColumnTable, pred) -> list[int]:
    t = _Table(table)
    return [i for i in range(t.n) if _eval(pred, t.cols, i) is True]


# ---------------------------------------------------------------------------
# Nested-loop join oracle
# ---------------------------------------------------------------------------


def _eval_multi(pred, envs: dict[str, dict], rows: dict[str, int]) -> bool | None:
    """Predicate over one assignment of (alias -> row index)."""
    if isinstance(pred, ex.And):
        return _and(_eval_multi(p, envs, rows) for p in pred.items)
    if isinstance(pred, ex.Or):
        return _or(_eval_multi(p, envs, rows) for p in pred.items)
    if isinstance(pred, ex.Not):
        return _not(_eval_multi(pred.child, envs, rows))
    if isinstance(pred, ex.ColumnCompare):
        a = envs[pred.left.table][pred.left.name]
        b = envs[pred.right.table][pred.right.name]
        i, j = rows[pred.left.table], rows[pred.right.table]
        if a.nulls[i] or b.nulls[j]:
            return None
        return _OPS[pred.op](a.vals[i], b.vals[j])
    # single-table atom: dispatch on whichever table it references
    alias = next(iter(ex.tables(pred)))
    return _atom(pred, envs[alias], rows[alias])


def _decoded(col: _Col, i):
    if col.nulls[i]:
        return None
    if col.strs is not None:
        return col.strs[i]
    return col.vals[i]


def oracle_join(
    tables: dict[str, ColumnTable], pred, projection=None
) -> tuple[int, Counter | None]:
    """All-pairs nested loops; the entire WHERE conjunction (join edges
    included) is evaluated on every row combination.

    Returns (count, multiset of projected tuples) — the multiset is None
    for COUNT queries.  Projected TEXT decodes to strings, DECIMAL/DATE
    stay as stored integers (callers compare against the engine's raw
    columns the same way).
    """
    aliases = list(tables)
    envs = {a: _Table(t).cols for a, t in tables.items()}
    sizes = [tables[a].row_count for a in aliases]

    count = 0
    bag: Counter | None = Counter() if projection is not None else None

    def rec(k: int, rows: dict[str, int]):
        nonlocal count
        if k == len(aliases):
            if _eval_multi(pred, envs, rows) is True:
                count += 1
                if bag is not None:
                    bag[
                        tuple(
                            _decoded(envs[ref.table][ref.name], rows[ref.table])
                            for ref in projection
                        )
                    ] += 1
            return
        a = aliases[k]
        for i in range(sizes[k]):
            rows[a] = i
            rec(k + 1, rows)

    rec(0, {})
    return count, bag


def table_multiset(table: ColumnTable) -> Counter:
    """Engine-result rows as a multiset of decoded python tuples."""
    out = Counter()
    for i in range(table.row_count):
        row = []
        for c in table.columns:
            if c.null_mask[i]:
                row.append(None)
            elif c.kind.is_text:
                row.append(c.dictionary.decode(int(c.values[i])))
            else:
                row.append(int(c.values[i]))
        out[tuple(row)] += 1
    return out
