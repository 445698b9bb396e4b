"""Columnar execution: filtered scans, COUNT, hash-join build and probe.

Everything is vectorized over int64 column vectors.  The probe pipeline
is a single fused pass: probe-side predicate, every join-index lookup,
and the output gather happen without materializing intermediate tuples.
A join index sorts the build keys once, and duplicate keys share a
contiguous row group.  When the distinct keys are dense, a probe is one
gather from a direct-address slot table; otherwise it is one
``np.searchsorted`` over the distinct keys.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import ExecutionError
from .storage import Column, ColumnTable

# ---------------------------------------------------------------------------
# Row selections and predicate evaluation
# ---------------------------------------------------------------------------


@dataclass
class RowSelection:
    """Subset of a table's rows: explicit sorted indices, or all rows."""

    table: ColumnTable
    indices: np.ndarray | None = None  # None = every row

    @property
    def count(self) -> int:
        if self.indices is None:
            return self.table.row_count
        return int(self.indices.size)

    def to_indices(self) -> np.ndarray:
        if self.indices is None:
            return np.arange(self.table.row_count, dtype=np.int64)
        return self.indices


class _ColumnSlices:
    """Per-evaluation cache of gathered (values, null_mask) slices."""

    def __init__(self, table: ColumnTable, rows: np.ndarray | None):
        self.table = table
        self.rows = rows
        self._cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def get(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(name)
        if hit is None:
            col = self.table.column(name)
            if self.rows is None:
                hit = (col.values, col.null_mask)
            else:
                hit = (col.values[self.rows], col.null_mask[self.rows])
            self._cache[name] = hit
        return hit

    @property
    def size(self) -> int:
        if self.rows is None:
            return self.table.row_count
        return int(self.rows.size)


def _text_lut(col: Column, op: str, value: str) -> np.ndarray:
    """Boolean lookup table over dictionary codes for a decoded-string
    comparison; TEXT ranges compare strings, not codes."""
    strings = np.asarray(col.dictionary.strings(), dtype=object)
    if strings.size == 0:
        return np.zeros(0, dtype=bool)
    if op == "<":
        return strings < value
    if op == "<=":
        return strings <= value
    if op == ">":
        return strings > value
    if op == ">=":
        return strings >= value
    raise ExecutionError(f"unsupported TEXT comparison operator {op!r}")


def _apply_lut(lut: np.ndarray, codes: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    if lut.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    safe = np.where(nulls, 0, codes)
    return lut[safe] & ~nulls


def _compare(values: np.ndarray, op: str, const) -> np.ndarray:
    if op == "=":
        return values == const
    if op == "<":
        return values < const
    if op == "<=":
        return values <= const
    if op == ">":
        return values > const
    if op == ">=":
        return values >= const
    if op == "<>":
        return values != const
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _udf_inputs(slices: _ColumnSlices, args) -> tuple[list[np.ndarray], np.ndarray]:
    """Gather UDF argument vectors as float64 (DECIMAL descaled, DATE as
    epoch days) plus the union of their null masks."""
    arrays = []
    any_null = np.zeros(slices.size, dtype=bool)
    for ref in args:
        vals, nulls = slices.get(ref.name)
        out = vals.astype(np.float64)
        if ref.kind is not None and ref.kind.is_decimal:
            out = out / float(10 ** ref.kind.scale)
        arrays.append(out)
        any_null |= nulls
    return arrays, any_null


def _eval_fncall(atom: ex.FnCall, slices: _ColumnSlices) -> np.ndarray:
    if atom.fn is None:
        raise ExecutionError(f"function {atom.name!r} has no bound implementation")
    arrays, any_null = _udf_inputs(slices, atom.args)
    ufunc = np.frompyfunc(atom.fn, len(arrays), 1)
    try:
        raw = ufunc(*arrays)
    except Exception as exc:
        # re-run row by row to report the first offending row
        for i in range(slices.size):
            try:
                atom.fn(*(float(a[i]) for a in arrays))
            except Exception:
                raise ExecutionError(
                    f"UDF {atom.name!r} failed at row {i}: {exc}"
                ) from exc
        raise ExecutionError(f"UDF {atom.name!r} failed: {exc}") from exc
    results = raw.astype(np.float64) if raw.size else np.zeros(0, dtype=np.float64)
    return _compare(results, atom.op, atom.value) & ~any_null


def _eval_atom(atom: ex.Expr, slices: _ColumnSlices) -> np.ndarray:
    if isinstance(atom, ex.Equality):
        vals, nulls = slices.get(atom.col.name)
        return (vals == atom.value) & ~nulls
    if isinstance(atom, ex.Comparison):
        vals, nulls = slices.get(atom.col.name)
        if isinstance(atom.value, str):
            lut = _text_lut(slices.table.column(atom.col.name), atom.op, atom.value)
            return _apply_lut(lut, vals, nulls)
        return _compare(vals, atom.op, atom.value) & ~nulls
    if isinstance(atom, ex.Range):
        vals, nulls = slices.get(atom.col.name)
        if isinstance(atom.lo, str):
            col = slices.table.column(atom.col.name)
            lut = _text_lut(col, ">=", atom.lo) & _text_lut(col, "<=", atom.hi)
            return _apply_lut(lut, vals, nulls)
        return (vals >= atom.lo) & (vals <= atom.hi) & ~nulls
    if isinstance(atom, ex.ColumnCompare):
        lv, ln = slices.get(atom.left.name)
        rv, rn = slices.get(atom.right.name)
        return _compare(lv, atom.op, rv) & ~ln & ~rn
    if isinstance(atom, ex.FnCall):
        return _eval_fncall(atom, slices)
    if isinstance(atom, ex.FoldedAtom):
        _, nulls = slices.get(atom.col.name)
        if atom.result:
            return ~nulls
        return np.zeros(slices.size, dtype=bool)
    raise ExecutionError(f"unknown atom {atom!r}")


def _known(atom: ex.Expr, slices: _ColumnSlices) -> np.ndarray:
    """Rows where none of the atom's operands is NULL."""
    known = np.ones(slices.size, dtype=bool)
    for ref in ex.columns(atom):
        known &= ~slices.get(ref.name)[1]
    return known


def _eval_mask(
    pred: ex.Expr, slices: _ColumnSlices, negate: bool = False
) -> np.ndarray:
    """Boolean mask over the current slice: the rows where ``pred`` is
    true, or with ``negate`` the rows where it is false.  An atom with a
    NULL operand is neither (SQL's unknown).  NOT flips ``negate``, and
    under it AND and OR swap, so a predicate without NOT is one pass."""
    if isinstance(pred, ex.Not):
        return _eval_mask(pred.child, slices, not negate)
    if isinstance(pred, (ex.And, ex.Or)):
        conjunction = isinstance(pred, ex.And) != negate
        mask = _eval_mask(pred.items[0], slices, negate)
        for item in pred.items[1:]:
            if conjunction:
                if not mask.any():
                    break
                mask = mask & _eval_mask(item, slices, negate)
            else:
                if mask.all():
                    break
                mask = mask | _eval_mask(item, slices, negate)
        return mask
    mask = _eval_atom(pred, slices)
    if negate:
        return _known(pred, slices) & ~mask
    return mask


def eval_predicate(
    table: ColumnTable, pred: ex.Expr | None, selection: RowSelection | None = None
) -> RowSelection:
    """Filter ``selection`` (default all rows) down to rows satisfying
    ``pred``; vectorized, column at a time."""
    if selection is None:
        selection = RowSelection(table)
    if pred is None:
        return selection
    slices = _ColumnSlices(table, selection.indices)
    mask = _eval_mask(pred, slices)
    if selection.indices is None:
        return RowSelection(table, np.flatnonzero(mask).astype(np.int64))
    return RowSelection(table, selection.indices[mask])


def count_star(
    table: ColumnTable, pred: ex.Expr | None
) -> tuple[int, np.ndarray | None]:
    """Rows satisfying ``pred``, and the boolean mask they were counted
    from (None without a predicate).  No row indices are materialized, so
    the cost depends on table size, not match count."""
    if pred is None:
        return table.row_count, None
    mask = _eval_mask(pred, _ColumnSlices(table, None))
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
        rows = eval_predicate(table, residual).to_indices()
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
    probe: ColumnTable,
    probe_alias: str,
    probe_pred: ex.Expr | None,
    steps: list[BuildStep],
    chunk: RowSelection,
):
    """Run the fused pipeline over one probe-row range; returns the probe
    row vector, per-build matched row vectors, and per-stage tuple counts."""
    stage_out = [0] * (len(steps) + 1)
    sel = eval_predicate(probe, probe_pred, chunk)
    prow = sel.to_indices()
    stage_out[0] = int(prow.size)
    brows: dict[str, np.ndarray] = {}
    tables: dict[str, ColumnTable] = {probe_alias: probe}
    for si, step in enumerate(steps):
        src = step.probe_key.table
        if src == probe_alias:
            col = probe.column(step.probe_key.name)
            keys = col.values[prow]
            valid = ~col.null_mask[prow]
        else:
            src_table = tables[src]
            col = src_table.column(step.probe_key.name)
            keys = col.values[brows[src]]
            valid = ~col.null_mask[brows[src]]
        groups = step.index.probe_groups(keys, valid)
        hit = groups >= 0
        prow = prow[hit]
        for a in brows:
            brows[a] = brows[a][hit]
        counts, matched = _expand_matches(step.index, groups[hit])
        if counts is not None:
            prow = np.repeat(prow, counts)
            for a in brows:
                brows[a] = np.repeat(brows[a], counts)
        brows[step.alias] = matched
        tables[step.alias] = step.index.table
        stage_out[si + 1] = int(prow.size)
    return prow, brows, stage_out


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
    for step in steps:
        stats.build_cards.append(step.index.n_entries)
        stats.build_distinct.append(step.index.distinct_keys)

    t0 = time.perf_counter()
    n = probe.row_count
    if workers <= 1 or n < 2 * workers:
        chunks = [RowSelection(probe)]
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=np.int64)
        chunks = [
            RowSelection(probe, np.arange(bounds[i], bounds[i + 1], dtype=np.int64))
            for i in range(workers)
        ]

    def run(chunk):
        return _probe_chunk(probe, probe_alias, probe_pred, steps, chunk)

    if len(chunks) == 1:
        fragments = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            fragments = list(pool.map(run, chunks))

    prow = np.concatenate([f[0] for f in fragments])
    brows = {
        step.alias: np.concatenate([f[1][step.alias] for f in fragments])
        for step in steps
    }
    stats.probe_out = [
        sum(f[2][i] for f in fragments) for i in range(len(steps) + 1)
    ]
    stats.result_rows = int(prow.size)
    stats.probe_ms = (time.perf_counter() - t0) * 1000.0

    if projection is None:
        return None, stats

    tables = {probe_alias: probe}
    rows_of = {probe_alias: prow}
    for step in steps:
        tables[step.alias] = step.index.table
        rows_of[step.alias] = brows[step.alias]
    out_columns = []
    used = set()
    for ref in projection:
        src = tables[ref.table]
        col = src.column(ref.name).take(rows_of[ref.table])
        name = ref.name if ref.name not in used else f"{ref.table}.{ref.name}"
        used.add(name)
        out_columns.append(
            Column(name, col.kind, col.values, col.null_mask, col.dictionary)
        )
    return ColumnTable("result", out_columns), stats
