"""Table metadata, UDF registry, and the histogram baseline estimator.

The histogram estimator exists only as an experimental contrast arm: the
engine's own optimizer never estimates, it counts.  Estimation follows
the textbook rules — uniform spread inside each equi-depth bucket,
independence across conjuncts, inclusion-exclusion across disjuncts —
which is exactly what makes it wrong on correlated data.

The synopsis is an equi-depth histogram (Piatetsky-Shapiro & Connell,
SIGMOD 1984) over any sorted int64 key.  It is built from one gather of
the split points and one ``searchsorted`` of the boundaries into the
sorted values, and read by one ``searchsorted`` of the constant over the
upper boundaries: the buckets below it count in full, and only the
bucket that holds it is interpolated.  A constant is the exact Python
int, in storage units, that the analyzer resolved it to; it is never
converted to float64, which is inexact past 2**53.  It is checked
against the outer boundaries first, so only a value that fits in int64
reaches ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .errors import (
    DuplicateFunction,
    DuplicateTable,
    Inestimable,
    UnknownTable,
    UnsupportedColumnKind,
)
from .storage import ColumnTable

HISTOGRAM_BUCKETS = 64


@dataclass
class Udf:
    name: str
    arity: int
    fn: Callable


class Catalog:
    """Base tables, UDFs, and cached histograms."""

    def __init__(self):
        self._tables: dict[str, ColumnTable] = {}
        self._histograms: dict[tuple[str, str], EquiDepthHistogram] = {}
        self._udfs: dict[str, Udf] = {}

    # -- base tables --------------------------------------------------

    def register(self, table: ColumnTable):
        """Register a fully built table under its own name."""
        if table.name in self._tables:
            raise DuplicateTable(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> ColumnTable:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTable(f"unknown table {name!r}") from None

    # -- statistics ----------------------------------------------------

    def histogram(self, table: str, column: str) -> "EquiDepthHistogram":
        key = (table, column)
        if key not in self._histograms:
            self._histograms[key] = build_histogram(
                self.table(table), column, HISTOGRAM_BUCKETS
            )
        return self._histograms[key]

    # -- UDFs ------------------------------------------------------------

    def register_udf(self, name: str, arity: int, fn: Callable):
        """Register a pure scalar function usable in predicates.

        The function receives each argument column's value as a float
        (DECIMAL descaled, DATE as epoch days) and must return a number.
        """
        key = name.lower()
        if key in self._udfs:
            raise DuplicateFunction(f"function {name!r} already registered")
        self._udfs[key] = Udf(key, arity, fn)

    def udf(self, name: str) -> Udf | None:
        return self._udfs.get(name.lower())


# ---------------------------------------------------------------------------
# Equi-depth histograms
# ---------------------------------------------------------------------------


@dataclass
class EquiDepthHistogram:
    """k buckets over a numeric column; bucket i covers
    (boundaries[i], boundaries[i+1]] except bucket 0 which is closed on
    both ends.  ``counts`` are exact, ``distincts`` count distinct values
    per bucket (used for equality estimates)."""

    boundaries: np.ndarray
    counts: np.ndarray
    distincts: np.ndarray
    null_count: int
    row_count: int

    @property
    def non_null(self) -> int:
        return self.row_count - self.null_count

    @property
    def non_null_fraction(self) -> float:
        return self.non_null / max(1, self.row_count)


def build_histogram(table: ColumnTable, column: str, buckets: int) -> EquiDepthHistogram:
    col = table.column(column)
    if col.kind.is_text:
        raise UnsupportedColumnKind(
            f"cannot build a histogram over TEXT column {column!r}"
        )
    if buckets < 1:
        raise ValueError("bucket count must be >= 1")
    valid = np.sort(col.values[~col.null_mask])
    n = valid.size
    null_count = table.row_count - n
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return EquiDepthHistogram(
            np.zeros(1, dtype=np.int64), empty, empty, null_count, table.row_count
        )
    k = min(buckets, n)
    # equi-depth split points at value boundaries; duplicates collapse buckets
    splits = valid[np.arange(1, k + 1) * n // k - 1]
    edges = np.unique(np.concatenate((valid[:1], splits)))
    # a constant column is one bucket [v, v]
    boundaries = edges if edges.size > 1 else np.repeat(edges, 2)
    # every bucket holds its upper boundary, so none is empty
    ends = np.searchsorted(valid, boundaries[1:], side="right")
    starts = np.concatenate(([0], ends[:-1]))
    first_of_value = np.concatenate(([True], valid[1:] != valid[:-1]))
    distincts = np.add.reduceat(first_of_value, starts, dtype=np.int64)
    return EquiDepthHistogram(
        boundaries, ends - starts, distincts, null_count, table.row_count
    )


def _estimate_le(h: EquiDepthHistogram, v: int) -> float:
    """Estimated fraction of rows with value <= v (of all rows)."""
    if h.counts.size == 0 or v < int(h.boundaries[0]):
        return 0.0
    if v >= int(h.boundaries[-1]):
        return float(h.counts.sum()) / h.row_count
    # buckets whose upper boundary is <= v are full; bucket b holds v
    b = int(np.searchsorted(h.boundaries[1:], v, side="right"))
    lo, hi = int(h.boundaries[b]), int(h.boundaries[b + 1])
    frac = min(1.0, (v - lo + 1) / (hi - lo + 1))
    return (float(h.counts[:b].sum()) + float(h.counts[b]) * frac) / h.row_count


def _estimate_equality(h: EquiDepthHistogram, v: int) -> float:
    if h.counts.size == 0 or not int(h.boundaries[0]) <= v <= int(h.boundaries[-1]):
        return 0.0
    # the first bucket whose upper boundary is >= v holds v
    b = int(np.searchsorted(h.boundaries[1:], v, side="left"))
    return float(h.counts[b]) / int(h.distincts[b]) / h.row_count


def _atom_selectivity(hist_for, atom: ex.Expr) -> float:
    if isinstance(atom, ex.FoldedAtom):
        return 1.0 if atom.result else 0.0
    if isinstance(atom, ex.FnCall):
        raise Inestimable(f"no synopsis can estimate {atom.name}(...)")
    if isinstance(atom, ex.ColumnCompare):
        raise Inestimable("no synopsis for column-to-column comparison")
    col = atom.col
    if col.kind is not None and col.kind.is_text:
        raise Inestimable(f"no histogram over TEXT column {col}")
    h = hist_for(col)
    if isinstance(atom, ex.Range):
        return max(0.0, _estimate_le(h, atom.hi) - _estimate_le(h, atom.lo - 1))
    if isinstance(atom, ex.Comparison):
        v = atom.value
        if atom.op == "=":
            return _estimate_equality(h, v)
        if atom.op == "<=":
            return _estimate_le(h, v)
        if atom.op == "<":
            return _estimate_le(h, v - 1)
        if atom.op == ">":
            return max(0.0, h.non_null_fraction - _estimate_le(h, v))
        if atom.op == ">=":
            return max(0.0, h.non_null_fraction - _estimate_le(h, v - 1))
        if atom.op == "<>":
            return max(0.0, h.non_null_fraction - _estimate_equality(h, v))
    raise Inestimable(f"cannot estimate {atom!r}")


def estimate_selectivity(hist_for, pred: ex.Expr, negate: bool = False) -> float:
    """Estimated fraction of rows satisfying ``pred`` (with ``negate``,
    of rows where it is false), clamped to [0, 1].

    ``hist_for`` maps a ColumnRef to its EquiDepthHistogram.  Conjuncts
    multiply (independence), disjuncts combine by inclusion-exclusion.
    NOT is pushed down as the executor evaluates it: it flips ``negate``,
    AND and OR swap under it, and a negated atom is its column's non-NULL
    fraction minus the atom's estimate, so NULL rows pass neither.  A
    folded atom complements.  Raises Inestimable for atoms outside the
    synopsis model (UDF calls, TEXT columns, column-to-column
    comparisons); the caller substitutes its configured guess.
    """
    if isinstance(pred, ex.Not):
        return estimate_selectivity(hist_for, pred.child, not negate)
    if isinstance(pred, (ex.And, ex.Or)):
        if isinstance(pred, ex.And) != negate:
            s = 1.0
            for item in pred.items:
                s *= estimate_selectivity(hist_for, item, negate)
            return min(1.0, max(0.0, s))
        miss = 1.0
        for item in pred.items:
            miss *= 1.0 - estimate_selectivity(hist_for, item, negate)
        return min(1.0, max(0.0, 1.0 - miss))
    s = _atom_selectivity(hist_for, pred)
    if negate:
        if isinstance(pred, ex.FoldedAtom):
            s = 1.0 - s
        else:
            s = hist_for(pred.col).non_null_fraction - s
    return min(1.0, max(0.0, s))
