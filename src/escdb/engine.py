"""Engine facade: parse, analyze, plan, execute.

The engine plans every query under one arm (``optimizer.ARMS``).  Under
arm ``esc`` every planning sub-query's boolean mask is a pushed-down
temp table.  It belongs to the plan that the returned ``QueryResult``
holds and is freed with it, and queries sharing one engine never touch
each other's masks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import frontend, optimizer
from .catalog import Catalog
from .optimizer import PhysicalPlan
from .storage import ColumnTable, load_csv, parse_kind


@dataclass
class QueryResult:
    count: int
    rows: ColumnTable | None  # None for COUNT(*) queries
    plan: PhysicalPlan
    stats: object
    time_ms: float  # plan + execute, sub-queries included

    @property
    def is_count(self) -> bool:
        return self.rows is None


class Engine:
    def __init__(self, arm: str = "esc", workers: int = 1):
        optimizer.check_arm(arm)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.catalog = Catalog()
        self.arm = arm
        self.workers = workers

    # -- data ------------------------------------------------------------

    def load_csv_file(
        self, path: str, table: str, schema_spec: str, has_header: bool = False
    ) -> ColumnTable:
        """Load a CSV with a ``name:kind,name:kind`` schema spec."""
        schema = parse_schema_spec(schema_spec)
        with open(path, newline="", encoding="utf-8") as fh:
            loaded = load_csv(fh, table, schema, has_header=has_header)
        self.catalog.register(loaded)
        return loaded

    def register_udf(self, name: str, arity: int, fn):
        self.catalog.register_udf(name, arity, fn)

    # -- queries -----------------------------------------------------------

    def run(self, sql: str) -> QueryResult:
        ast = frontend.parse(sql)
        graph = frontend.analyze(ast, self.catalog)
        t0 = time.perf_counter()
        plan = optimizer.plan(graph, self.catalog, self.arm)
        rows, count, stats = optimizer.execute_plan(
            plan, self.catalog, workers=self.workers
        )
        elapsed = (time.perf_counter() - t0) * 1000.0
        return QueryResult(
            count=count,
            rows=rows,
            plan=plan,
            stats=stats,
            time_ms=elapsed,
        )


def parse_schema_spec(spec: str) -> list[tuple[str, object]]:
    """Parse ``"o_orderkey:int64,o_totalprice:decimal(15,2)"``.

    Commas inside ``decimal(p,s)`` are handled by splitting on commas
    that start a new ``name:`` item.
    """
    items = []
    buf = ""
    for part in spec.split(","):
        buf = f"{buf},{part}" if buf else part
        if buf.count("(") != buf.count(")"):
            continue
        name, sep, kind = buf.partition(":")
        if not sep or not name.strip():
            raise ValueError(f"bad schema item {buf!r} (expected name:kind)")
        items.append((name.strip(), parse_kind(kind)))
        buf = ""
    if buf:
        raise ValueError(f"bad schema item {buf!r} (unbalanced parentheses)")
    return items
