"""Table metadata, UDF registry, and the histogram baseline estimator.

The histogram estimator exists only as an experimental contrast arm: the
engine's own optimizer never estimates, it counts.  Estimation follows
the textbook rules — uniform spread inside each equi-depth bucket,
independence across conjuncts, inclusion-exclusion across disjuncts —
which is exactly what makes it wrong on correlated data.
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

    table: str
    column: str
    boundaries: np.ndarray
    counts: np.ndarray
    distincts: np.ndarray
    null_count: int
    row_count: int

    @property
    def non_null(self) -> int:
        return self.row_count - self.null_count


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
        return EquiDepthHistogram(
            table.name,
            column,
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            null_count,
            table.row_count,
        )
    k = min(buckets, n)
    # equi-depth split points at value boundaries; duplicates collapse buckets
    edges = [int(valid[0])]
    for i in range(1, k + 1):
        edge = int(valid[min(n - 1, (i * n) // k - 1)])
        if edge > edges[-1]:
            edges.append(edge)
    if len(edges) == 1:
        edges.append(edges[0])
    boundaries = np.asarray(edges, dtype=np.int64)
    counts = np.empty(len(boundaries) - 1, dtype=np.int64)
    distincts = np.empty_like(counts)
    lo_idx = 0
    for b in range(len(counts)):
        hi_idx = int(np.searchsorted(valid, boundaries[b + 1], side="right"))
        if b == len(counts) - 1:
            hi_idx = n
        counts[b] = hi_idx - lo_idx
        distincts[b] = int(np.unique(valid[lo_idx:hi_idx]).size)
        lo_idx = hi_idx
    return EquiDepthHistogram(
        table.name, column, boundaries, counts, distincts, null_count, table.row_count
    )


def _bucket_bounds(h: EquiDepthHistogram, b: int) -> tuple[int, int]:
    return int(h.boundaries[b]), int(h.boundaries[b + 1])


def _estimate_le(h: EquiDepthHistogram, v: float) -> float:
    """Estimated fraction of rows with value <= v (of all rows)."""
    if h.counts.size == 0 or h.row_count == 0:
        return 0.0
    total = 0.0
    for b in range(h.counts.size):
        lo, hi = _bucket_bounds(h, b)
        if v >= hi:
            total += float(h.counts[b])
        elif v < lo:
            break
        else:
            span = hi - lo
            frac = (v - lo + 1) / (span + 1) if span > 0 else 1.0
            total += float(h.counts[b]) * min(1.0, max(0.0, frac))
            break
    return total / h.row_count


def _estimate_equality(h: EquiDepthHistogram, v: float) -> float:
    if h.counts.size == 0 or h.row_count == 0:
        return 0.0
    if v != int(v):
        return 0.0
    for b in range(h.counts.size):
        lo, hi = _bucket_bounds(h, b)
        if (lo <= v <= hi) if b == 0 else (lo < v <= hi):
            d = max(1, int(h.distincts[b]))
            return float(h.counts[b]) / d / h.row_count
    return 0.0


def _const_as_float(value) -> float:
    if isinstance(value, (int, np.integer)):
        return float(value)
    if isinstance(value, float):
        return value
    raise Inestimable(f"constant {value!r} is not numeric")


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
    if isinstance(atom, ex.Equality):
        return _estimate_equality(h, _const_as_float(atom.value))
    if isinstance(atom, ex.Range):
        lo = _const_as_float(atom.lo)
        hi = _const_as_float(atom.hi)
        return max(0.0, _estimate_le(h, hi) - _estimate_le(h, lo - 1))
    if isinstance(atom, ex.Comparison):
        v = _const_as_float(atom.value)
        if atom.op == "<=":
            return _estimate_le(h, v)
        if atom.op == "<":
            return _estimate_le(h, v - 1)
        if atom.op == ">":
            return max(0.0, (h.non_null / max(1, h.row_count)) - _estimate_le(h, v))
        if atom.op == ">=":
            return max(
                0.0, (h.non_null / max(1, h.row_count)) - _estimate_le(h, v - 1)
            )
        if atom.op == "<>":
            return max(
                0.0,
                (h.non_null / max(1, h.row_count)) - _estimate_equality(h, v),
            )
    raise Inestimable(f"cannot estimate {atom!r}")


def estimate_selectivity(hist_for, pred: ex.Expr) -> float:
    """Estimated fraction of rows satisfying ``pred``, clamped to [0, 1].

    ``hist_for`` maps a ColumnRef to its EquiDepthHistogram.  Conjuncts
    multiply (independence), disjuncts combine by inclusion-exclusion,
    NOT complements.  Raises Inestimable for atoms outside the synopsis
    model (UDF calls, TEXT columns, column-to-column comparisons); the
    caller substitutes its configured guess.
    """
    if isinstance(pred, ex.And):
        s = 1.0
        for item in pred.items:
            s *= estimate_selectivity(hist_for, item)
        return min(1.0, max(0.0, s))
    if isinstance(pred, ex.Or):
        miss = 1.0
        for item in pred.items:
            miss *= 1.0 - estimate_selectivity(hist_for, item)
        return min(1.0, max(0.0, 1.0 - miss))
    if isinstance(pred, ex.Not):
        return min(1.0, max(0.0, 1.0 - estimate_selectivity(hist_for, pred.child)))
    return min(1.0, max(0.0, _atom_selectivity(hist_for, pred)))
