"""Columnar execution: filtered scans, COUNT, hash-join build and probe.

Everything is vectorized over int64 column vectors.  A predicate atom
compares stored values only, TEXT codes included (a code is its string's
rank in the column's dictionary, and the analyzer resolves every TEXT
constant to a code bound), and ``_eval_mask`` is the one place that
applies SQL's NULL rule: an atom with a NULL operand is neither true nor
false, and only a column that holds NULLs costs a null-mask pass.
Predicates are evaluated over whole tables only, into boolean masks.  A
build takes the rows it indexes as a planning sub-query's or its
residual's mask (both from ``count_star``), and the probe's filter runs
once per query, before the pipeline (``eval_predicate``).  The probe
splits its table's rows into contiguous chunks, each with its slice of
the filter's mask.
The probe pipeline is a single fused pass: every join-index lookup and
the output gather happen without materializing intermediate tuples.  Row
ids are made late.  A direct-address first stage is one boolean pass over
its chunk: its hits, ANDed with the filter's mask, give the chunk's first
row ids, so the rows the filter keeps are never made into ids of their
own.  Before a sorted first stage, whose binary search costs far more per
key than a gather, and when there is no join, the filter's rows are made
into ids once, over the whole table, and cut at the chunks' bounds, so
only those are looked up.  Otherwise the probe alias's rows stay the
chunk's ``slice`` until a join stage drops a row.  Every other set of
rows is an ascending int64 array of row ids, which a stage compacts with
``np.compress``, and not at all when every row hit.  After each stage
only the aliases that a later stage probes with, or the projection reads
(``live_aliases``, read by the builds and the probe), keep a row-id
array, only their join indexes hold row ids, and a stage that nothing
reads after it (every stage of a star ``COUNT(*)``) only counts its
matches.  The probe works out its count of chunks from its table's size
(``_chunk_count``), runs two or more on one thread each, and its output
row order is the probe row order whatever that count is.
A join index handed its probe-key column, whose keys are unique and,
together with that column's ``bounds``, dense, is a direct-address
table covering both: a boolean ``present``, and ``slots`` next to it
when its rows are read.  Its keys are scattered into it with no sort, a
probe stage is one gather from ``present`` with no bounds check, and
``slots`` is gathered only at the hits.  Duplicate keys take the
sorted path: they are sorted once (into row groups when the rows are
read), and the index is found by one ``np.searchsorted`` over the
distinct keys.  A stage over a unique index never expands matches: each
hit is one build row.  A probe key column without NULLs skips the null mask.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import ExecutionError
from .storage import Column, ColumnTable

# ---------------------------------------------------------------------------
# Predicate evaluation
# ---------------------------------------------------------------------------


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


def _eval_fncall(atom: ex.FnCall, table: ColumnTable) -> tuple[np.ndarray, np.ndarray]:
    """The comparison over the UDF's results, and the rows where a result
    is NULL (None or NaN), which are unknown."""
    if atom.fn is None:
        raise ExecutionError(f"function {atom.name!r} has no bound implementation")
    # arguments as float64 (DECIMAL descaled, DATE as epoch days)
    arrays = []
    for ref in atom.args:
        out = table.column(ref.name).values.astype(np.float64)
        if ref.kind is not None and ref.kind.is_decimal:
            out = out / float(10 ** ref.kind.scale)
        arrays.append(out)
    # extend keeps the results before a failing call, so their count is
    # the failing row's position, and no row is called twice; memoryviews
    # hand over one Python float at a time, with no list of the arguments
    results = []
    try:
        results.extend(map(atom.fn, *map(memoryview, arrays)))
    except Exception as exc:
        raise ExecutionError(
            f"UDF {atom.name!r} failed at row {len(results)}: {exc}"
        ) from exc
    try:
        # None becomes NaN
        results = np.fromiter(results, np.float64, len(results))
    except (TypeError, ValueError, OverflowError) as exc:
        # name the first row whose result is not a number
        raw = np.fromiter(results, object, len(results))
        for row in range(raw.size):
            try:
                raw[row : row + 1].astype(np.float64)
            except OverflowError:
                raise ExecutionError(
                    f"UDF {atom.name!r} returned a number past the float range "
                    f"at row {row}"
                ) from exc
            except (TypeError, ValueError):
                raise ExecutionError(
                    f"UDF {atom.name!r} returned {raw[row]!r} at row {row}, "
                    "not a number"
                ) from exc
        raise ExecutionError(f"UDF {atom.name!r}: {exc}") from exc
    return _compare(results, atom.op, atom.value), np.isnan(results)


def _eval_atom(atom: ex.Expr, table: ColumnTable) -> np.ndarray:
    """The atom over the stored values of every row, NULL slots included."""
    if isinstance(atom, ex.ColumnCompare):
        left = table.column(atom.left.name).values
        return _compare(left, atom.op, table.column(atom.right.name).values)
    vals = table.column(atom.col.name).values
    if isinstance(atom, ex.Comparison):
        return _compare(vals, atom.op, atom.value)
    if isinstance(atom, ex.Range):
        return (vals >= atom.lo) & (vals <= atom.hi)
    if isinstance(atom, ex.FoldedAtom):
        return np.full(vals.size, atom.result)
    raise ExecutionError(f"unknown atom {atom!r}")


def _eval_mask(pred: ex.Expr, table: ColumnTable, negate: bool = False) -> np.ndarray:
    """Boolean mask over the table's rows: those where ``pred`` is true, or
    with ``negate`` the rows where it is false.  NOT flips ``negate``,
    and under it AND and OR swap, so a predicate without NOT is one pass.

    SQL's NULL rule is applied here and nowhere else: an atom with a
    NULL operand, or a UDF whose result is NULL, is unknown, neither true
    nor false, so each leaf drops those rows after any negation."""
    if isinstance(pred, ex.Not):
        return _eval_mask(pred.child, table, not negate)
    if isinstance(pred, (ex.And, ex.Or)):
        conjunction = isinstance(pred, ex.And) != negate
        mask = _eval_mask(pred.items[0], table, negate)
        for item in pred.items[1:]:
            if conjunction:
                if not mask.any():
                    break
                mask = mask & _eval_mask(item, table, negate)
            else:
                if mask.all():
                    break
                mask = mask | _eval_mask(item, table, negate)
        return mask
    unknown = None
    if isinstance(pred, ex.FnCall):
        mask, unknown = _eval_fncall(pred, table)
    else:
        mask = _eval_atom(pred, table)
    if negate:
        mask = ~mask
    if unknown is not None:
        mask &= ~unknown
    for ref in ex.columns(pred):
        col = table.column(ref.name)
        if col.has_nulls:
            mask &= ~col.null_mask
    return mask


def eval_predicate(table: ColumnTable, pred: ex.Expr) -> np.ndarray:
    """Boolean mask of the table's rows that satisfy ``pred``: the probe
    filter, worked out once per query over the whole probe table, before
    the probe splits the table's rows into chunks."""
    return _eval_mask(pred, table)


def count_star(table: ColumnTable, pred: ex.Expr) -> tuple[int, np.ndarray]:
    """Rows satisfying ``pred``, and the boolean mask they were counted
    from: a planning sub-query, or a build's residual filter.  No row
    indices are materialized, so the cost depends on table size, not
    match count."""
    mask = _eval_mask(pred, table)
    return int(np.count_nonzero(mask)), mask


# ---------------------------------------------------------------------------
# Join indexes
# ---------------------------------------------------------------------------


# Keys are dense when the span ``hi - lo + 1`` of the build keys and the
# probe column's ``bounds`` is at most _DENSE_RATIO times the build rows
# plus _DENSE_PAD.  A ``present`` table (1 byte per slot) then takes at
# most 4 bytes per build row plus 128 KiB, ``slots`` next to it (8 bytes
# per slot) at most 32 bytes per build row plus 1 MiB more, and a probe is
# one gather, not a binary search.  The pad lets a selective build, whose
# few keys spread over the whole key range of its table, be dense too:
# filling 128Ki slots took 62 us on a 2-core x86 box, where a binary search
# cost 80-130 ns per probe key.
_DENSE_RATIO = 4
_DENSE_PAD = 1 << 17


def _cover(key_vals: np.ndarray, probe: Column | None) -> tuple[int, int] | None:
    """``(base, size)`` of a direct-address table that covers every build
    key and every stored value of ``probe``, based at 0 when that fits;
    None without a probe column or when the span is not dense."""
    if probe is None or not key_vals.size:
        return None
    # Python ints: the span of two int64 extremes overflows int64
    lo, hi = int(key_vals.min()), int(key_vals.max())
    p_lo, p_hi = probe.bounds or (lo, hi)
    lo, hi = min(lo, p_lo), max(hi, p_hi)
    limit = _DENSE_RATIO * key_vals.size + _DENSE_PAD
    # based at 0, a probe needs no subtraction
    for base in (0, lo) if lo >= 0 else (lo,):
        if hi - base < limit:
            return base, hi - base + 1
    return None


class HashTableIndex:
    """Index from join-key value to build rows: the rows of ``mask``
    (None: every row) whose key is not NULL.

    Only when ``rows_read`` (a later stage or the projection reads the
    alias) does it hold row ids: group ``g`` then holds the build rows of
    one key, in row order, the row ``group_rows[g]`` when the index is
    ``unique`` (every key on one row), else
    ``group_rows[group_start[g]:group_start[g + 1]]``.

    * **Dense** (given the probe-key column, unique keys, and dense): a
      direct-address table covering every build key and the probe
      column's ``bounds``, into which the keys are scattered with no
      sort, so a probe with that column's values is one gather with no
      bounds check.  The boolean ``present[k - base]`` says whether a
      build row has key ``k``; when the rows are read, ``slots`` next to
      it holds the group of key ``k``, -1 where no build row has it, and
      a probe gathers it only at the keys ``present`` hits.
    * **Sorted** (any other index; duplicate keys take this path): the
      build keys are sorted once into groups, and a probe
      binary-searches the distinct keys ``unique_keys``.
    """

    def __init__(
        self,
        table: ColumnTable,
        key: str,
        mask: np.ndarray | None = None,
        probe: Column | None = None,
        rows_read: bool = True,
    ):
        self.table = table
        col = table.column(key)
        if col.has_nulls:
            mask = ~col.null_mask if mask is None else mask & ~col.null_mask
        # np.compress, like a gather at row ids, ran several times faster
        # than ``values[mask]`` on a 2-core x86 box
        if mask is None:
            key_vals = col.values
            rows = np.arange(key_vals.size) if rows_read else None
        elif rows_read:
            rows = np.flatnonzero(mask)
            key_vals = col.values[rows]
        else:
            rows = None
            key_vals = np.compress(mask, col.values)
        n = self.n_entries = self.distinct_keys = int(key_vals.size)
        self.group_rows = rows
        self.unique = True
        self.unique_keys = self.group_start = self.group_counts = None
        self.slots = self.present = None
        cover = _cover(key_vals, probe)
        if cover is not None:
            self.base, size = cover
            offsets = key_vals - self.base if self.base else key_vals
            self.present = np.zeros(size, dtype=bool)
            self.present[offsets] = True
            if np.count_nonzero(self.present) == n:
                if rows is not None:
                    self.slots = np.full(size, -1, dtype=np.int64)
                    self.slots[offsets] = np.arange(n)
                return
            self.present = None
        # duplicate keys, or not dense: sort the keys into groups
        if rows is None:
            sorted_keys = np.sort(key_vals)
        else:
            order = np.argsort(key_vals, kind="stable")
            sorted_keys = key_vals[order]
            self.group_rows = rows[order]
        first = np.ones(sorted_keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        self.unique_keys = sorted_keys[starts]
        self.group_start = np.append(starts, sorted_keys.size)
        self.group_counts = np.diff(self.group_start)
        n = self.distinct_keys = int(starts.size)
        self.unique = n == self.n_entries

    def probe_groups(
        self, keys: np.ndarray, valid: np.ndarray | None = None
    ) -> np.ndarray:
        """Group id per key; -1 when the key is absent or, given ``valid``,
        where ``valid`` is False.  With ``slots``, every key must be a
        value of the probe column the index was built for.  An index with
        ``present`` and no ``slots`` has no groups."""
        if self.slots is not None:
            groups = self.slots[keys - self.base if self.base else keys]
        elif self.distinct_keys == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        else:
            # a key above every build key lands on n; clamp it so it misses
            n = self.distinct_keys
            pos = np.minimum(np.searchsorted(self.unique_keys, keys), n - 1)
            groups = np.where(self.unique_keys[pos] == keys, pos, -1)
        if valid is not None:
            groups[~valid] = -1
        return groups

    def probe_hits(
        self, keys: np.ndarray, valid: np.ndarray | None = None
    ) -> np.ndarray:
        """Whether each key has a build row, False where ``valid`` is
        False: one gather from ``present``, which the index must have.
        Every key must be a value of the probe column the index was built
        for."""
        hits = self.present[keys - self.base if self.base else keys]
        if valid is not None:
            hits &= valid
        return hits


def build_hash(
    table: ColumnTable,
    key: str,
    residual: ex.Expr | None = None,
    mask: np.ndarray | None = None,
    probe: Column | None = None,
    rows_read: bool = True,
) -> HashTableIndex:
    """Join index over the rows of ``mask``, or by default over the rows
    passing ``residual``, evaluated as a planning sub-query is, by
    ``count_star`` (NULL keys excluded).  ``probe``, the column whose
    values will probe the index, lets a dense index be a direct-address
    table that covers all of them; ``rows_read`` is whether anything reads
    the rows it matches."""
    if residual is not None:
        _, mask = count_star(table, residual)
    return HashTableIndex(table, key, mask, probe, rows_read)


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


def live_aliases(stages: list, projection: tuple | None) -> list[frozenset[str]]:
    """``live[k]``: the aliases whose row ids a later stage's probe key or
    the projection reads after stage ``k`` (stage 0 is the probe filter).
    ``stages``, the builds in order, have an ``alias`` and a ``probe_key``."""
    needed = frozenset(ref.table for ref in projection or ())
    live = [needed]
    for stage in reversed(stages):
        needed = (needed - {stage.alias}) | {stage.probe_key.table}
        live.append(needed)
    live.reverse()
    return live


@dataclass
class ExecStats:
    build_distinct: list[int] = field(default_factory=list)
    probe_out: list[int] = field(default_factory=list)
    result_rows: int = 0


def _expand_matches(
    index: HashTableIndex, groups: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The build rows of each tuple's match group, in tuple order; tuple
    ``i`` matches ``counts[i]`` rows (``index.group_counts[groups]``)."""
    # output slot j of tuple i reads group_rows[start_i + j - first_i],
    # where first_i is the tuple's first output slot
    firsts = np.cumsum(counts) - counts
    flat = np.repeat(index.group_start[groups] - firsts, counts)
    flat += np.arange(flat.size)
    return index.group_rows[flat]


def _compact(ids: np.ndarray | slice, hit: np.ndarray, kept: int):
    """The row ids of ``ids`` at the positions where ``hit`` is True, of
    which there are ``kept``: ``ids`` itself when that is all of them.
    On a 2-core x86 box ``np.compress`` ran 3-5x faster than ``ids[hit]``
    on masks that keep neither almost none nor almost all of ``ids``."""
    if kept == hit.size:
        return ids
    if isinstance(ids, slice):
        rows = np.flatnonzero(hit)
        rows += ids.start
        return rows
    return np.compress(hit, ids)


def _row_ids(ids: np.ndarray | slice) -> np.ndarray:
    if isinstance(ids, slice):
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    return ids


def _probe_chunk(
    tables: dict[str, ColumnTable],
    probe_alias: str,
    steps: list[BuildStep],
    live: list[frozenset[str]],
    ids: np.ndarray | slice,
    keep: np.ndarray | None,
):
    """Run the fused pipeline over one chunk of the probe table: the
    contiguous ``slice`` of its rows ``ids``, of which ``keep``, the
    chunk's slice of the probe filter's mask, marks the rows the filter
    kept (None: every row), or, before a sorted first stage, the ids of
    the chunk's rows that the filter kept.  Returns the carried row ids
    per alias, which cover ``live[-1]`` (the probe alias's stay ``ids``
    while every stage keeps every row), and the tuples each stage
    produced.

    A direct-address first stage is fused with the filter: its hits are
    ANDed with ``keep``, so row ids are made only from the rows that pass
    both.  ``live[k]`` holds the aliases whose row ids are read after
    stage ``k`` (stage 0 is the probe filter); no other alias is
    carried."""
    if keep is not None:
        kept = int(np.count_nonzero(keep))
    else:
        kept = ids.stop - ids.start if isinstance(ids, slice) else ids.size
    stage_out = [kept]
    rows_of = {probe_alias: ids}
    for step, alive in zip(steps, live[1:]):
        index = step.index
        ref = step.probe_key
        col = tables[ref.table].column(ref.name)
        ids = rows_of[ref.table]
        keys = col.values[ids]
        valid = ~col.null_mask[ids] if col.has_nulls else None
        if keep is not None:
            # the first stage, fused with the probe filter
            valid = keep if valid is None else valid & keep
            keep = None
        read = step.alias in alive
        if index.present is not None:
            hit = index.probe_hits(keys, valid)
            kept = int(np.count_nonzero(hit))
            # ``slots`` is gathered only at the hits
            matched = index.probe_groups(_compact(keys, hit, kept)) if read else None
        else:
            groups = index.probe_groups(keys, valid)
            hit = groups >= 0
            kept = int(np.count_nonzero(hit))
            # a unique stage whose rows nothing reads only counts its hits
            matched = None if index.unique and not read else _compact(groups, hit, kept)
        counts = None if index.unique else index.group_counts[matched]
        stage_out.append(kept if counts is None else int(counts.sum()))
        carried = {}
        for alias in alive - {step.alias}:
            ids = _compact(rows_of[alias], hit, kept)
            carried[alias] = (
                ids if counts is None else np.repeat(_row_ids(ids), counts)
            )
        if read:
            carried[step.alias] = (
                index.group_rows[matched]
                if counts is None
                else _expand_matches(index, matched, counts)
            )
        rows_of = carried
    return rows_of, stage_out


# The probe takes one chunk per _CHUNK_ROWS table rows, at most one per
# core.  On a 2-core x86 box, summed over the bench queries, two chunks
# ran 15-38% slower than one at 299k-450k probe rows, and 24-25% faster
# on tpch4's 599k and 1.2M (ssb's 600k: no difference).  Chunks of 300k
# would leave tpch4's 599k in one.
_CHUNK_ROWS = 250_000


def _chunk_count(rows: int) -> int:
    """How many chunks a probe of ``rows`` table rows splits them into."""
    # a probe too small for two chunks does not ask for the cores: with
    # np.linspace for the bounds, that took 35 us of a 0.55 ms
    # tpch-correlated query on a 2-core x86 box
    chunks = rows // _CHUNK_ROWS
    return 1 if chunks < 2 else min(os.cpu_count() or 1, chunks)


def probe_joins(
    probe: ColumnTable,
    probe_alias: str,
    probe_pred: ex.Expr | None,
    steps: list[BuildStep],
    projection: tuple | None,
    live: list[frozenset[str]] | None = None,
) -> tuple[ColumnTable | None, ExecStats]:
    """Stream the probe relation through every hash table in order.

    ``projection`` is a tuple of resolved column refs; None means count
    only (no output materialization).  ``live`` is
    ``live_aliases(steps, projection)``, which the builds were made by.
    The probe filter ``probe_pred`` runs once, over the whole probe
    table, into a boolean mask, and ``_chunk_count`` contiguous chunks of
    the table's rows run the pipeline, two or more on one thread each,
    each with its slice of the mask, or of the ids of the rows it keeps
    when the first stage is sorted or there is none, so output row order
    is the probe row order whatever the count of chunks.
    """
    stats = ExecStats()
    tables = {probe_alias: probe}
    for step in steps:
        stats.build_distinct.append(step.index.distinct_keys)
        tables[step.alias] = step.index.table

    if live is None:
        live = live_aliases(steps, projection)

    mask = None if probe_pred is None else eval_predicate(probe, probe_pred)
    n = probe.row_count
    k = _chunk_count(n)
    bounds = [n * i // k for i in range(k + 1)]
    if mask is None or (steps and steps[0].index.present is not None):
        # the first stage, if any, ANDs its gather with the chunk's mask
        chunks = [
            (slice(lo, hi), None if mask is None else mask[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
    else:
        # a sorted first stage, or the output, reads only the filter's
        # rows: their ids, cut at the chunks' bounds.  Made per chunk, on
        # the chunks' threads, they cost about 3,800 minor page faults
        # per tpch4.2 run at scale 0.1 in 2 chunks on a 2-core x86 box,
        # where one array made here cost 2.
        ids = np.flatnonzero(mask)
        cuts = np.searchsorted(ids, bounds).tolist()
        chunks = [(ids[lo:hi], None) for lo, hi in zip(cuts, cuts[1:])]

    def run(chunk):
        return _probe_chunk(tables, probe_alias, steps, live, *chunk)

    if len(chunks) == 1:
        fragments = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            fragments = list(pool.map(run, chunks))

    stats.probe_out = [sum(stage) for stage in zip(*(f[1] for f in fragments))]
    stats.result_rows = stats.probe_out[-1]

    if projection is None:
        return None, stats

    rows_of = {
        alias: np.concatenate([_row_ids(f[0][alias]) for f in fragments])
        for alias in live[-1]
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
