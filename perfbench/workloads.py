"""The benchmark's workloads, their sqlite3 reference answers, and the
escdb functions a traced run wraps.

Workloads reach escdb only through public entry points: ``Engine.run``,
and ``escdb.cli.main(["sql", ...])`` for the CLI op class.  The seed goes
into the existing generators; escdb sees only the tables they make.  Why
each workload exists is in DESIGN.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import sqlite3
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable

import numpy as np

from escdb import (
    ColumnTable,
    Engine,
    cli,
    dump_csv,
    engine,
    executor,
    frontend,
    optimizer,
    storage,
)
from escdb.bench import GenSpec, generate, ssb_queries, tpch4_queries
from measure import NULL_CODE, hash_strings, multiset_digest
from spans import Target

# ssb_subset's fact table has at least 6M x scale rows, and 100 samples of
# each of the ten flights must fit in one run.  At a scale that small the
# dimensions are tiny (10 suppliers at 0.005), and whether a city or brand
# flight matches any dimension row at all depends on the seed.  So the
# dimensions come from scale 0.05 (100 suppliers, 1500 customers, 10000
# parts), and the fact table is the first SSB_FACT_ROWS rows the
# generator drew for it; its rows are drawn independently, so any prefix
# is a uniform sample.
SSB_SCALE = 0.05
SSB_FACT_ROWS = 60_000
TPCH_SCALE = 0.02
# The CSV files that tpch4.1/cli loads.  The CLI parses them cell by cell
# in Python, which the 2-core test box slowed by 1.5-2x for minutes at a time
# (numpy-bound ops by about 1.15x).  As a workload of its own, CLI sessions
# moved op_ms.gm_p50 by up to 50% between runs; as one class in nine, kept
# small, they move tpch-correlated's op_ms.gm_p50 by 5-8%.
CLI_SCALE = 0.0002

# columns from every joined table, of every kind it has: INT64, DECIMAL,
# DATE and, where the table has one, TEXT
SELECT_LISTS = {
    "tpch4.1": "l_orderkey, l_extendedprice, o_orderdate, p_brand",
    "tpch4.2": "l_orderkey, l_extendedprice, o_orderdate, s_acctbal",
    "tpch4.3": "l_partkey, l_shipdate, p_brand, s_acctbal",
    "tpch4.4": "l_orderkey, l_extendedprice, o_orderdate, p_brand",
}

# surrogate keys 1..N; lineitem has none
PRIMARY_KEYS = {
    "orders": "o_orderkey",
    "part": "p_partkey",
    "supplier": "s_suppkey",
    "lineorder": "lo_orderkey",
    "date": "d_datekey",
    "customer": "c_custkey",
}


def counting_mix200():
    """The UDF of tpch4.4, and a function that says how many rows it has
    been called on.  Both the engine and the sqlite3 reference get it, so
    the formula (the same as ``escdb.bench``'s) is written once here.  It
    is inlined and the count kept in a closure: a nested call or an
    object's ``__call__`` would add a third or more to the cost of every
    row."""
    rows = 0

    def udf(a, b):
        nonlocal rows
        rows += 1
        return (a * 31.0 + b) % 200.0

    return udf, lambda: rows


@dataclass(frozen=True)
class OpClass:
    name: str
    sql: str
    columns: tuple[str, ...] = ()  # projected names; () for COUNT(*)
    cli: bool = False  # run through escdb.cli.main on the CSV dataset


@dataclass
class State:
    """What set-up leaves for the ops: the generated tables (inputs of
    the reference too) and the program state the ops use."""

    tables: dict
    engine: Engine
    csv_tables: dict = field(default_factory=dict)  # what the CSV files hold
    argv: dict[str, list[str]] = field(default_factory=dict)  # per CLI op
    udf_rows: Callable[[], int] = lambda: 0


def _select_form(name: str, sql: str, cli: bool = False) -> OpClass:
    head = "SELECT COUNT(*) "
    if not sql.startswith(head):
        raise ValueError(f"{name}: expected a COUNT(*) query, got {sql[:40]!r}")
    select_list = SELECT_LISTS[name]
    return OpClass(
        f"{name}/{'cli' if cli else 'select'}",
        f"SELECT {select_list} {sql[len(head):]}",
        tuple(c.strip() for c in select_list.split(",")),
        cli,
    )


def _from_tables(sql: str) -> list[str]:
    return sql.split(" FROM ", 1)[1].split(" WHERE ", 1)[0].split(", ")


# ---------------------------------------------------------------------------
# Answers: what an op returned, and what sqlite3 says it should be
# ---------------------------------------------------------------------------


def _engine_codes(col) -> np.ndarray:
    """Digest input for an engine result column: TEXT codes through the
    hashes of their dictionary strings, other kinds as stored."""
    if col.kind.is_text:
        codes = hash_strings(col.dictionary.strings())[col.values]
    else:
        codes = col.values.astype(np.uint64)
    return np.where(col.null_mask, NULL_CODE, codes)


def _reference_codes(values, kind) -> np.ndarray:
    nulls = np.array([v is None for v in values], dtype=bool)
    if kind.is_text:
        codes = hash_strings(["" if v is None else v for v in values])
    else:
        codes = np.array(
            [0 if v is None else v for v in values], dtype=np.int64
        ).astype(np.uint64)
    return np.where(nulls, NULL_CODE, codes)


def _cli_text(value, kind) -> str:
    """How the CLI's CSV output spells a stored value."""
    if value is None:
        return r"\N"
    if kind.is_decimal:
        sign = "-" if value < 0 else ""
        whole, frac = divmod(abs(value), 10**kind.scale)
        return f"{sign}{whole}.{frac:0{kind.scale}d}"
    if kind.name == "DATE":
        return (date(1970, 1, 1) + timedelta(days=value)).isoformat()
    return str(value)


def _columns(rows, width: int) -> list:
    return list(zip(*rows)) or [()] * width


def _sqlite(tables: dict) -> sqlite3.Connection:
    """The generated tables in an in-memory sqlite3 database: DECIMAL as
    scaled integers, DATE as epoch days, TEXT decoded, surrogate keys as
    INTEGER PRIMARY KEY."""
    db = sqlite3.connect(":memory:")
    db.create_function("mix200", 2, counting_mix200()[0], deterministic=True)
    for t in tables.values():
        defs, values = [], []
        for c in t.columns:
            pk = " PRIMARY KEY" if PRIMARY_KEYS.get(t.name) == c.name else ""
            defs.append(f"{c.name} {'TEXT' if c.kind.is_text else 'INTEGER'}{pk}")
            if c.kind.is_text:
                strings = np.asarray(c.dictionary.strings(), dtype=object)
                col = strings[c.values].tolist()
            else:
                col = c.values.tolist()
            if c.null_mask.any():
                col = [None if m else v for v, m in zip(col, c.null_mask.tolist())]
            values.append(col)
        db.execute(f'CREATE TABLE "{t.name}" ({", ".join(defs)})')
        marks = ", ".join("?" * len(defs))
        db.executemany(f'INSERT INTO "{t.name}" VALUES ({marks})', zip(*values))
    return db


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _expected(rows, op: OpClass, kinds) -> tuple:
    """``Workload.answer`` as it should read, from sqlite3's result rows."""
    if op.cli:
        cols = [
            [_cli_text(v, k) for v in col]
            for col, k in zip(_columns(rows, len(kinds)), kinds)
        ]
        return ("csv", op.columns, *multiset_digest([hash_strings(c) for c in cols]))
    if not op.columns:
        return ("count", rows[0][0])
    cols = _columns(rows, len(kinds))
    return (
        "rows",
        op.columns,
        *multiset_digest([_reference_codes(v, k) for v, k in zip(cols, kinds)]),
    )


def _write_csv(tables: dict, workdir: str) -> dict[str, str]:
    """Dump every table to ``workdir``; return its ``--load`` argument."""
    os.makedirs(workdir, exist_ok=True)
    loads = {}
    for t in tables.values():
        path = os.path.relpath(os.path.join(workdir, f"{t.name}.csv"))
        if ":" in path:
            raise ValueError(f"--load cannot name a path with ':': {path!r}")
        with open(path, "w", newline="") as fh:
            fh.write(dump_csv(t))
        schema = ",".join(f"{c.name}:{c.kind}" for c in t.columns)
        loads[t.name] = f"{t.name}:{path}:{schema}"
    return loads


class Workload:
    """One client, closed loop: ops go round-robin over ``classes``.

    Most ops are ``Engine.run`` on tables registered in memory.  An op
    class marked ``cli`` is one in-process ``escdb sql`` with stdout
    captured: a fresh engine ``--load``s the CSV files its query names,
    runs it and prints CSV.  Those files hold a second, small dataset at
    ``cli_scale``, written once at set-up.
    """

    name: str
    benchmark: str  # generator family
    scale: float
    cli_scale: float | None = None
    classes: list[OpClass]

    def tables(self, seed: int) -> dict:
        return generate(GenSpec(self.benchmark, self.scale, seed))

    def setup(self, seed: int, workdir: str) -> State:
        tables = self.tables(seed)
        eng = Engine()
        for t in tables.values():
            eng.catalog.register(t)
        state = State(tables, eng)
        cli_ops = [op for op in self.classes if op.cli]
        if cli_ops:
            state.csv_tables = generate(GenSpec(self.benchmark, self.cli_scale, seed))
            loads = _write_csv(state.csv_tables, workdir)
            for op in cli_ops:
                state.argv[op.name] = ["sql", op.sql]
                for table in _from_tables(op.sql):
                    state.argv[op.name] += ["--load", loads[table]]
        return state

    def execute(self, state: State, op: OpClass):
        """The timed part of one op."""
        if not op.cli:
            return state.engine.run(op.sql)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(state.argv[op.name])
        return rc, out.getvalue()

    def answer(self, op: OpClass, raw) -> tuple:
        """Hashable digest of what ``execute`` returned."""
        if op.cli:
            rc, text = raw
            if rc != 0:
                return ("exit", rc)
            header, *rows = csv.reader(io.StringIO(text))
            cols = _columns(rows, len(header))
            return (
                "csv",
                tuple(header),
                *multiset_digest([hash_strings(c) for c in cols]),
            )
        if not op.columns:
            return ("count", raw.count)
        cols = raw.rows.columns
        return (
            "rows",
            tuple(c.name for c in cols),
            *multiset_digest([_engine_codes(c) for c in cols]),
        )

    def reference(self, state: State) -> dict[str, tuple]:
        """Expected ``answer`` per op class, computed by sqlite3 from the
        tables the op class reads."""
        expected = {}
        for tables, cli_form in ((state.tables, False), (state.csv_tables, True)):
            ops = [op for op in self.classes if op.cli == cli_form]
            if not ops:
                continue
            kinds = {c.name: c.kind for t in tables.values() for c in t.columns}
            db = _sqlite(tables)
            try:
                for op in ops:
                    rows = db.execute(op.sql).fetchall()
                    expected[op.name] = _expected(
                        rows, op, [kinds[c] for c in op.columns]
                    )
            finally:
                db.close()
        return expected


class SsbFlights(Workload):
    name = "ssb-flights"
    benchmark = "ssb_subset"
    scale = SSB_SCALE
    classes = [OpClass(name, sql) for name, sql in ssb_queries()]

    def tables(self, seed):
        tables = super().tables(seed)
        rows = np.arange(SSB_FACT_ROWS)
        fact = tables["lineorder"]
        tables["lineorder"] = ColumnTable(
            fact.name, [c.take(rows) for c in fact.columns]
        )
        return tables


class TpchCorrelated(Workload):
    name = "tpch-correlated"
    benchmark = "tpch_subset"
    scale = TPCH_SCALE
    cli_scale = CLI_SCALE
    classes = [
        form
        for name, sql in tpch4_queries()
        for form in (OpClass(f"{name}/count", sql), _select_form(name, sql))
    ] + [_select_form("tpch4.1", tpch4_queries()[0][1], cli=True)]

    def setup(self, seed, workdir):
        state = super().setup(seed, workdir)
        udf, state.udf_rows = counting_mix200()
        state.engine.register_udf("mix200", 2, udf)
        return state


WORKLOADS = {w.name: w for w in (SsbFlights(), TpchCorrelated())}


# ---------------------------------------------------------------------------
# Traced run: what to wrap, and the per-layer metric each span feeds
# ---------------------------------------------------------------------------


def _count_query(counts, args, result):
    plan, stats = result.plan, result.stats
    pushed = [d for d in plan.decisions if d.pushed_down]
    counts["optimizer.subqueries"] += len(plan.decisions)
    counts["optimizer.pushdowns"] += len(pushed)
    counts["optimizer.temp_rows"] += sum(d.exact_count for d in pushed)
    counts["optimizer.build_card_sum"] += plan.build_card_sum
    counts["executor.build_distinct"] += sum(stats.build_distinct)
    counts["executor.probe_tuples"] += sum(stats.probe_out)
    counts["executor.result_rows"] += stats.result_rows


def _count_build(counts, args, index):
    counts["executor.build_rows"] += index.n_entries


def _count_take(counts, args, column):
    counts["storage.take_rows"] += len(column)


def _count_load(counts, args, table):
    counts["storage.load_rows"] += table.row_count


# (owner, attribute, self-time metric, counter).  Each function is wrapped
# under the name its caller looks it up by: the engine imports load_csv
# by name, so escdb.engine.load_csv is the one that sees the calls.
LAYERS = [
    (frontend, "parse", "frontend.parse_ms", None),
    (frontend, "analyze", "frontend.analyze_ms", None),
    (optimizer, "plan", "optimizer.plan_self_ms", None),
    (optimizer, "compute_exact_selectivity", "optimizer.subquery_ms", None),
    (optimizer, "materialize_pushdown", "optimizer.materialize_ms", None),
    (optimizer, "execute_plan", "optimizer.execute_self_ms", None),
    (executor, "build_hash", "executor.build_ms", _count_build),
    (executor, "probe_joins", "executor.probe_ms", None),
    (executor, "eval_predicate", "executor.filter_ms", None),
    (executor, "count_star", "executor.count_ms", None),
    (storage.Column, "take", "storage.take_ms", _count_take),
    (engine, "load_csv", "storage.load_ms", _count_load),
    (storage, "dump_csv", "storage.dump_ms", None),
    (Engine, "run", "engine.self_ms", _count_query),
    (cli, "main", "cli.self_ms", None),
]

# Self time leaves out nested spans: a sub-query's scan is executor.count_ms
# and a build's residual filter executor.filter_ms.  These report the
# whole span too.
TOTAL_TIME_METRICS = {
    "optimizer.subquery_ms": "optimizer.subquery_total_ms",
    "executor.build_ms": "executor.build_total_ms",
}

COUNT_METRICS = [
    "optimizer.subqueries",
    "optimizer.pushdowns",
    "optimizer.temp_rows",
    "optimizer.build_card_sum",
    "executor.udf_rows",
    "executor.build_rows",
    "executor.build_distinct",
    "executor.probe_tuples",
    "executor.result_rows",
    "storage.take_rows",
    "storage.load_rows",
]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def trace_targets() -> list[Target]:
    return [Target(o, a, _span_name(o, a), c) for o, a, _, c in LAYERS]


def self_time_metrics() -> dict[str, str]:
    """Span name -> per-layer self-time metric."""
    return {_span_name(o, a): m for o, a, m, _ in LAYERS}
