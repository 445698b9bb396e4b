"""Columnar execution: filtered scans, COUNT, hash-join build and probe.

Everything is vectorized over int64 column vectors.  A set of rows is an
ascending int64 array of row ids, except a probe chunk, which is a
contiguous ``slice`` of rows: predicates read column views over it, so
no column is gathered to filter.  The probe pipeline is a single fused
pass: probe-side predicate, every join-index lookup, and the output
gather happen without materializing intermediate tuples; one row-id
array per table alias carries the matches from stage to stage.  With
``workers`` threads, each probes one chunk, and the output row order is
the probe row order whatever ``workers`` is.
A join index sorts the build keys once, and duplicate keys share a
contiguous row group.  When the distinct keys are dense, a probe is one
gather from a direct-address slot table; otherwise it is one
``np.searchsorted`` over the distinct keys.
"""

from __future__ import annotations

import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import ExecutionError
from .storage import Column, ColumnTable

# ---------------------------------------------------------------------------
# Predicate evaluation
# ---------------------------------------------------------------------------


def _text_lut(col: Column, op: str, value: str) -> np.ndarray:
    """Boolean lookup table over dictionary codes for a decoded-string
    comparison; TEXT ranges compare strings, not codes."""
    return _compare(np.asarray(col.dictionary.strings(), dtype=object), op, value)


def _apply_lut(lut: np.ndarray, codes: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    if lut.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    safe = np.where(nulls, 0, codes)
    return lut[safe] & ~nulls


_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "<>": operator.ne,
}


def _compare(values: np.ndarray, op: str, const) -> np.ndarray:
    if op not in _COMPARE:
        raise ExecutionError(f"unknown comparison operator {op!r}")
    return _COMPARE[op](values, const)


def _span(table: ColumnTable, rows: slice) -> range:
    return range(table.row_count)[rows]


def _eval_fncall(atom: ex.FnCall, table: ColumnTable, rows: slice) -> np.ndarray:
    if atom.fn is None:
        raise ExecutionError(f"function {atom.name!r} has no bound implementation")
    # arguments as float64 (DECIMAL descaled, DATE as epoch days)
    span = _span(table, rows)
    arrays = []
    any_null = np.zeros(len(span), dtype=bool)
    for ref in atom.args:
        col = table.column(ref.name)
        out = col.values[rows].astype(np.float64)
        if ref.kind is not None and ref.kind.is_decimal:
            out = out / float(10 ** ref.kind.scale)
        arrays.append(out)
        any_null |= col.null_mask[rows]
    ufunc = np.frompyfunc(atom.fn, len(arrays), 1)
    try:
        raw = ufunc(*arrays)
    except Exception as exc:
        # re-run row by row to report the first offending row of the table
        for i, row in enumerate(span):
            try:
                atom.fn(*(float(a[i]) for a in arrays))
            except Exception:
                raise ExecutionError(
                    f"UDF {atom.name!r} failed at row {row}: {exc}"
                ) from exc
        raise ExecutionError(f"UDF {atom.name!r} failed: {exc}") from exc
    results = raw.astype(np.float64) if raw.size else np.zeros(0, dtype=np.float64)
    return _compare(results, atom.op, atom.value) & ~any_null


def _eval_atom(atom: ex.Expr, table: ColumnTable, rows: slice) -> np.ndarray:
    if isinstance(atom, ex.FnCall):
        return _eval_fncall(atom, table, rows)
    if isinstance(atom, ex.ColumnCompare):
        left = table.column(atom.left.name)
        right = table.column(atom.right.name)
        return (
            _compare(left.values[rows], atom.op, right.values[rows])
            & ~left.null_mask[rows]
            & ~right.null_mask[rows]
        )
    col = table.column(atom.col.name)
    vals, nulls = col.values[rows], col.null_mask[rows]
    if isinstance(atom, ex.Equality):
        return (vals == atom.value) & ~nulls
    if isinstance(atom, ex.Comparison):
        if isinstance(atom.value, str):
            return _apply_lut(_text_lut(col, atom.op, atom.value), vals, nulls)
        return _compare(vals, atom.op, atom.value) & ~nulls
    if isinstance(atom, ex.Range):
        if isinstance(atom.lo, str):
            lut = _text_lut(col, ">=", atom.lo) & _text_lut(col, "<=", atom.hi)
            return _apply_lut(lut, vals, nulls)
        return (vals >= atom.lo) & (vals <= atom.hi) & ~nulls
    if isinstance(atom, ex.FoldedAtom):
        return ~nulls if atom.result else np.zeros(nulls.size, dtype=bool)
    raise ExecutionError(f"unknown atom {atom!r}")


def _known(atom: ex.Expr, table: ColumnTable, rows: slice) -> np.ndarray:
    """Rows where none of the atom's operands is NULL."""
    known = np.ones(len(_span(table, rows)), dtype=bool)
    for ref in ex.columns(atom):
        known &= ~table.column(ref.name).null_mask[rows]
    return known


def _eval_mask(
    pred: ex.Expr, table: ColumnTable, rows: slice, negate: bool = False
) -> np.ndarray:
    """Boolean mask over ``rows``: the rows where ``pred`` is true, or
    with ``negate`` the rows where it is false.  An atom with a NULL
    operand is neither (SQL's unknown).  NOT flips ``negate``, and under
    it AND and OR swap, so a predicate without NOT is one pass."""
    if isinstance(pred, ex.Not):
        return _eval_mask(pred.child, table, rows, not negate)
    if isinstance(pred, (ex.And, ex.Or)):
        conjunction = isinstance(pred, ex.And) != negate
        mask = _eval_mask(pred.items[0], table, rows, negate)
        for item in pred.items[1:]:
            if conjunction:
                if not mask.any():
                    break
                mask = mask & _eval_mask(item, table, rows, negate)
            else:
                if mask.all():
                    break
                mask = mask | _eval_mask(item, table, rows, negate)
        return mask
    mask = _eval_atom(pred, table, rows)
    if negate:
        return _known(pred, table, rows) & ~mask
    return mask


def eval_predicate(
    table: ColumnTable, pred: ex.Expr | None, rows: slice = slice(None)
) -> np.ndarray:
    """Ascending ids of the rows in ``rows`` (default all) that satisfy
    ``pred``; vectorized, column at a time."""
    span = _span(table, rows)
    if pred is None:
        return np.arange(span.start, span.stop, dtype=np.int64)
    ids = np.flatnonzero(_eval_mask(pred, table, rows))
    ids += span.start
    return ids


def count_star(
    table: ColumnTable, pred: ex.Expr | None
) -> tuple[int, np.ndarray | None]:
    """Rows satisfying ``pred``, and the boolean mask they were counted
    from (None without a predicate).  No row indices are materialized, so
    the cost depends on table size, not match count."""
    if pred is None:
        return table.row_count, None
    mask = _eval_mask(pred, table, slice(None))
    return int(np.count_nonzero(mask)), mask


# ---------------------------------------------------------------------------
# Join indexes
# ---------------------------------------------------------------------------


# The distinct build keys are dense when their span ``hi - lo + 1`` is at
# most _DENSE_RATIO times their count plus _DENSE_PAD.  A dense index's
# slot table of ``span`` int64 group ids is then no larger than its other
# four arrays plus 1 MiB, and a probe is one gather, not a binary search.
# The pad lets a selective build, whose few keys spread over the whole key
# range of its table, be dense too: filling 128Ki slots took 62 us on a
# 2-core x86 box, where a binary search cost 80-130 ns per probe key.
_DENSE_RATIO = 4
_DENSE_PAD = 1 << 17


class HashTableIndex:
    """Sorted-key index from join-key value to build-row indices.

    Group ``g`` holds the rows whose key is ``unique_keys[g]`` (sorted);
    they sit contiguously in ``group_rows``, in ascending row order.
    When the distinct keys are dense, ``slots[k - lo]`` is the group of
    key ``k`` (-1 for a key in ``lo..hi`` that no build row has) and a
    probe is one gather; otherwise ``slots`` is None and a probe
    binary-searches ``unique_keys``.
    """

    def __init__(self, table: ColumnTable, key: str, rows: np.ndarray):
        self.table = table
        self.key = key
        col = table.column(key)
        key_vals = col.values[rows]
        non_null = ~col.null_mask[rows]
        rows = rows[non_null]
        key_vals = key_vals[non_null]
        self.n_entries = int(rows.size)

        order = np.argsort(key_vals, kind="stable")
        sorted_keys = key_vals[order]
        self.group_rows = rows[order]
        first = np.ones(sorted_keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        self.unique_keys = sorted_keys[starts]
        self.group_start = np.append(starts, sorted_keys.size)
        self.group_counts = np.diff(self.group_start)

        self.slots = None
        n = self.unique_keys.size
        if n:
            # Python ints: the span of two int64 extremes overflows int64
            self.lo, self.hi = int(self.unique_keys[0]), int(self.unique_keys[-1])
            span = self.hi - self.lo + 1
            if span <= _DENSE_RATIO * n + _DENSE_PAD:
                self.slots = np.full(span, -1, dtype=np.int64)
                self.slots[self.unique_keys - self.lo] = np.arange(n)

    @property
    def distinct_keys(self) -> int:
        return int(self.unique_keys.size)

    def probe_groups(self, keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Group id per key (-1 when absent or the key slot is invalid)."""
        n = self.unique_keys.size
        if n == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        if self.slots is not None:
            inside = valid & (keys >= self.lo) & (keys <= self.hi)
            # clamp before subtracting, so no key's offset wraps
            groups = self.slots[np.clip(keys, self.lo, self.hi) - self.lo]
            groups[~inside] = -1
            return groups
        # a key above every build key lands on n; clamp it so it misses
        pos = np.minimum(np.searchsorted(self.unique_keys, keys), n - 1)
        hit = valid & (self.unique_keys[pos] == keys)
        return np.where(hit, pos, -1)

    def lookup(self, key: int) -> np.ndarray:
        """Build-row indices matching ``key`` (test/debug convenience)."""
        g = self.probe_groups(
            np.asarray([key], dtype=np.int64), np.ones(1, dtype=bool)
        )[0]
        if g < 0:
            return np.empty(0, dtype=np.int64)
        return self.group_rows[self.group_start[g] : self.group_start[g + 1]]


def build_hash(
    table: ColumnTable,
    key: str,
    residual: ex.Expr | None = None,
    rows: np.ndarray | None = None,
) -> HashTableIndex:
    """Join index over ``rows``, or by default over the rows passing
    ``residual`` (NULL keys excluded).  Given ``rows``, already filtered
    at planning time, the residual is not evaluated again."""
    if rows is None:
        rows = eval_predicate(table, residual)
    return HashTableIndex(table, key, rows)


# ---------------------------------------------------------------------------
# Fused probe pipeline
# ---------------------------------------------------------------------------


@dataclass
class BuildStep:
    """One hash table plus the column (on the probe table or an earlier
    build) whose values probe it."""

    alias: str
    index: HashTableIndex
    probe_key: ex.ColumnRef


@dataclass
class ExecStats:
    build_cards: list[int] = field(default_factory=list)  # index entries per build
    build_distinct: list[int] = field(default_factory=list)
    build_ms: list[float] = field(default_factory=list)
    probe_out: list[int] = field(default_factory=list)
    result_rows: int = 0
    probe_ms: float = 0.0


def _expand_matches(index: HashTableIndex, groups: np.ndarray):
    """Per-tuple match groups -> (repeat counts, matched build rows).

    The counts are None when every matched group holds one row: then each
    tuple matches exactly one build row and nothing needs repeating."""
    counts = index.group_counts[groups]
    starts = index.group_start[groups]
    total = int(counts.sum())
    if total == groups.size:
        return None, index.group_rows[starts]
    offsets = np.zeros(groups.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    flat = np.arange(total, dtype=np.int64)
    flat -= np.repeat(offsets, counts)
    flat += np.repeat(starts, counts)
    return counts, index.group_rows[flat]


def _probe_chunk(
    tables: dict[str, ColumnTable],
    probe_alias: str,
    probe_pred: ex.Expr | None,
    steps: list[BuildStep],
    rows: slice,
):
    """Run the fused pipeline over one range of probe rows; returns the
    matched row ids per alias and the tuples each stage produced."""
    rows_of = {probe_alias: eval_predicate(tables[probe_alias], probe_pred, rows)}
    stage_out = [rows_of[probe_alias].size]
    for step in steps:
        ref = step.probe_key
        col = tables[ref.table].column(ref.name)
        ids = rows_of[ref.table]
        groups = step.index.probe_groups(col.values[ids], ~col.null_mask[ids])
        hit = groups >= 0
        counts, matched = _expand_matches(step.index, groups[hit])
        for alias, kept in rows_of.items():
            kept = kept[hit]
            rows_of[alias] = kept if counts is None else np.repeat(kept, counts)
        rows_of[step.alias] = matched
        stage_out.append(matched.size)
    return rows_of, stage_out


def probe_joins(
    probe: ColumnTable,
    probe_alias: str,
    probe_pred: ex.Expr | None,
    steps: list[BuildStep],
    projection: tuple | None,
    workers: int = 1,
) -> tuple[ColumnTable | None, ExecStats]:
    """Stream the probe relation through every hash table in order.

    ``projection`` is a tuple of resolved column refs; None means count
    only (no output materialization).  Output row order is the probe row
    order regardless of ``workers``.
    """
    stats = ExecStats()
    tables = {probe_alias: probe}
    for step in steps:
        stats.build_cards.append(step.index.n_entries)
        stats.build_distinct.append(step.index.distinct_keys)
        tables[step.alias] = step.index.table

    t0 = time.perf_counter()
    n = probe.row_count
    if workers <= 1 or n < 2 * workers:
        chunks = [slice(None)]
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=np.int64).tolist()
        chunks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def run(rows):
        return _probe_chunk(tables, probe_alias, probe_pred, steps, rows)

    if len(chunks) == 1:
        fragments = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            fragments = list(pool.map(run, chunks))

    stats.probe_out = [sum(stage) for stage in zip(*(f[1] for f in fragments))]
    stats.result_rows = stats.probe_out[-1]
    stats.probe_ms = (time.perf_counter() - t0) * 1000.0

    if projection is None:
        return None, stats

    rows_of = {
        alias: np.concatenate([f[0][alias] for f in fragments]) for alias in tables
    }
    out_columns = []
    used = set()
    for ref in projection:
        col = tables[ref.table].column(ref.name).take(rows_of[ref.table])
        name = ref.name if ref.name not in used else f"{ref.table}.{ref.name}"
        used.add(name)
        out_columns.append(
            Column(name, col.kind, col.values, col.null_mask, col.dictionary)
        )
    return ColumnTable("result", out_columns), stats
