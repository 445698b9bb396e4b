"""Planning with exact selectivities.

Instead of estimating predicate selectivities from synopses, the planner
runs a generated COUNT sub-query per filtered build table at planning
time.  Qualifying selections (table large enough, selectivity low
enough) are materialized into temp tables that replace their base scans;
the exact counts then drive the greedy left-deep join order.  A baseline
arm (no sub-queries, base cardinalities) and a histogram-estimate arm
exist for comparison experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import executor
from . import expr as ex
from .catalog import Catalog, estimate_selectivity
from .errors import (
    CartesianProductRequired,
    EscdbError,
    ExecutionError,
    Inestimable,
    PlanError,
    UnsupportedColumnKind,
)
from .frontend import JoinGraph
from .storage import ColumnTable

ARMS = ("esc", "esc-unmaterialized", "baseline", "histogram")
# selectivity the histogram arm assumes for a predicate it cannot estimate
DEFAULT_GUESS = 0.1


@dataclass
class EscConfig:
    """Planner knobs.  ``arm`` picks how build tables are ordered:

    * ``esc``: by exact counts, materializing the qualifying tables;
    * ``esc-unmaterialized``: runs the same sub-queries and records the
      verdicts, but plans exactly as ``baseline`` (the overhead
      experiments use it);
    * ``baseline``: by base cardinalities, no sub-queries;
    * ``histogram``: by histogram estimates, no sub-queries.
    """

    arm: str = "esc"
    min_table_size: int = 1000
    max_selectivity: float = 0.2

    def __post_init__(self):
        if self.arm not in ARMS:
            raise ValueError(f"arm must be one of {ARMS}")
        if not 0.0 <= self.max_selectivity <= 1.0:
            raise ValueError("max_selectivity must be in [0, 1]")
        if self.min_table_size < 0:
            raise ValueError("min_table_size must be >= 0")


@dataclass
class EscDecision:
    """Outcome of one planning-time COUNT sub-query."""

    table: str  # alias in the query
    predicate: ex.Expr
    exact_count: int
    row_count: int
    selectivity: Fraction  # exact_count / row_count, exact
    qualified: bool  # passed the two-threshold policy
    pushed_down: bool  # actually materialized (qualified, arm "esc")
    subquery_ms: float
    materialize_ms: float = 0.0


@dataclass
class PlanBuild:
    alias: str
    source: str | ColumnTable  # base table name or the pushed-down temp
    build_key: ex.ColumnRef
    probe_key: ex.ColumnRef  # column on the probe table or an earlier build
    residual: ex.Expr | None  # fused filter; None when pre-materialized
    input_rows: int


@dataclass
class PhysicalPlan:
    """Left-deep hash-join pipeline: one probe, ordered builds."""

    probe_alias: str
    probe_source: str
    probe_rows: int
    probe_pred: ex.Expr | None
    builds: list[PlanBuild]
    projection: tuple | None  # None = COUNT(*)
    decisions: list[EscDecision]

    @property
    def build_card_sum(self) -> int:
        return sum(b.input_rows for b in self.builds)

    @property
    def build_order(self) -> list[str]:
        return [b.alias for b in self.builds]

    @property
    def overhead_ms(self) -> float:
        """Planning-time sub-query plus materialization cost."""
        return sum(d.subquery_ms + d.materialize_ms for d in self.decisions)


# ---------------------------------------------------------------------------
# Sub-queries and materialization
# ---------------------------------------------------------------------------


def _is_trivially_true(pred: ex.Expr) -> bool:
    return isinstance(pred, ex.FoldedAtom) and pred.result


def compute_exact_selectivity(
    catalog: Catalog,
    table: str,
    predicate: ex.Expr,
    alias: str | None = None,
) -> tuple[int, float]:
    """Run ``SELECT COUNT(*) FROM table WHERE predicate``; returns
    (exact_count, duration_ms)."""
    base = catalog.table(table)
    t0 = time.perf_counter()
    try:
        count = executor.count_star(base, predicate)
    except EscdbError as exc:
        raise ExecutionError(
            f"count sub-query on {alias or table!r} failed: {exc}"
        ) from exc
    return count, (time.perf_counter() - t0) * 1000.0


def decide_pushdown(row_count: int, exact_count: int, config: EscConfig) -> bool:
    """Two-threshold policy, both boundaries inclusive: the table must be
    at least min_table_size rows and the selectivity at most
    max_selectivity."""
    if row_count < config.min_table_size or row_count <= 0:
        return False
    return Fraction(exact_count, row_count) <= config.max_selectivity


def materialize_pushdown(
    catalog: Catalog,
    table: str,
    predicate: ex.Expr,
    needed_columns,
    alias: str | None = None,
) -> tuple[ColumnTable, float]:
    """Filter the table down to the qualifying rows, projected to
    ``needed_columns``; the plan that reads the temp table owns it."""
    base = catalog.table(table)
    t0 = time.perf_counter()
    rows = executor.eval_predicate(base, predicate).to_indices()
    columns = [base.column(name).take(rows) for name in needed_columns]
    temp = ColumnTable(base.name, columns)
    return temp, (time.perf_counter() - t0) * 1000.0


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


def choose_probe(graph: JoinGraph, row_counts: dict) -> str:
    """Largest base relation probes; ties break to the lexicographically
    smaller alias."""
    return min(graph.tables, key=lambda a: (-row_counts[a], a))


def order_builds(graph: JoinGraph, probe: str, effective: dict) -> list[str]:
    """Greedy: repeatedly take the smallest-effective-cardinality table
    adjacent (via a join edge) to everything already placed."""
    connected = {probe}
    remaining = [a for a in graph.tables if a != probe]
    order = []
    while remaining:
        candidates = [
            a
            for a in remaining
            if any(e.touches(a) and e.other(a) in connected for e in graph.edges)
        ]
        if not candidates:
            raise CartesianProductRequired(
                f"no join edge connects {sorted(remaining)} to {sorted(connected)}"
            )
        pick = min(candidates, key=lambda a: (effective[a], a))
        order.append(pick)
        connected.add(pick)
        remaining.remove(pick)
    return order


def _connecting_edge(graph: JoinGraph, alias: str, connected: set):
    edges = [
        e for e in graph.edges if e.touches(alias) and e.other(alias) in connected
    ]
    if len(edges) > 1:
        raise PlanError(
            f"table {alias!r} joins the pipeline on {len(edges)} keys; "
            "composite join keys are not supported"
        )
    return edges[0]


def _needed_columns(graph: JoinGraph, alias: str, table) -> list[str]:
    """Columns a pushed-down temp must keep: projected columns plus every
    join key on this table, in base column order."""
    names = {ref.name for ref in (graph.projection or ()) if ref.table == alias}
    for edge in graph.edges:
        for side in (edge.left, edge.right):
            if side.table == alias:
                names.add(side.name)
    return [c.name for c in table.columns if c.name in names]


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _estimated_fraction(catalog: Catalog, graph: JoinGraph, alias: str) -> float:
    def hist_for(ref: ex.ColumnRef):
        return catalog.histogram(graph.source[ref.table], ref.name)

    try:
        return estimate_selectivity(hist_for, graph.residual(alias))
    except (Inestimable, UnsupportedColumnKind):
        return DEFAULT_GUESS


def plan(graph: JoinGraph, catalog: Catalog, config: EscConfig) -> PhysicalPlan:
    """Produce the physical plan; the ESC arms run COUNT sub-queries for
    every non-probe table that has a predicate, and arm ``esc``
    materializes the qualifying ones."""
    row_counts = {a: catalog.table(graph.source[a]).row_count for a in graph.tables}

    if len(graph.tables) == 1:
        alias = graph.tables[0]
        return PhysicalPlan(
            probe_alias=alias,
            probe_source=graph.source[alias],
            probe_rows=row_counts[alias],
            probe_pred=graph.residual(alias),
            builds=[],
            projection=graph.projection,
            decisions=[],
        )

    probe = choose_probe(graph, row_counts)
    effective: dict[str, float | int] = dict(row_counts)
    decisions: list[EscDecision] = []
    temps: dict[str, ColumnTable] = {}

    if config.arm in ("esc", "esc-unmaterialized"):
        for alias in graph.tables:
            if alias == probe:
                continue  # the probing side is never pushed down
            residual = graph.residual(alias)
            if residual is None or _is_trivially_true(residual):
                continue
            rc = row_counts[alias]
            if rc < config.min_table_size or rc == 0:
                continue  # size test gates the sub-query itself
            count, sub_ms = compute_exact_selectivity(
                catalog, graph.source[alias], residual, alias
            )
            qualified = decide_pushdown(rc, count, config)
            pushed = qualified and config.arm == "esc"
            mat_ms = 0.0
            if pushed:
                needed = _needed_columns(
                    graph, alias, catalog.table(graph.source[alias])
                )
                temps[alias], mat_ms = materialize_pushdown(
                    catalog, graph.source[alias], residual, needed, alias
                )
                effective[alias] = count
            decisions.append(
                EscDecision(
                    table=alias,
                    predicate=residual,
                    exact_count=count,
                    row_count=rc,
                    selectivity=Fraction(count, rc),
                    qualified=qualified,
                    pushed_down=pushed,
                    subquery_ms=sub_ms,
                    materialize_ms=mat_ms,
                )
            )
    elif config.arm == "histogram":
        for alias in graph.tables:
            if alias == probe or graph.residual(alias) is None:
                continue
            fraction = _estimated_fraction(catalog, graph, alias)
            effective[alias] = row_counts[alias] * fraction

    order = order_builds(graph, probe, effective)
    builds = []
    connected = {probe}
    for alias in order:
        edge = _connecting_edge(graph, alias, connected)
        build_key = edge.key_for(alias)
        probe_key = edge.left if edge.right.table == alias else edge.right
        if alias in temps:
            source: str | ColumnTable = temps[alias]
            residual = None
            input_rows = source.row_count
        else:
            source = graph.source[alias]
            residual = graph.residual(alias)
            input_rows = row_counts[alias]
        builds.append(
            PlanBuild(alias, source, build_key, probe_key, residual, input_rows)
        )
        connected.add(alias)

    return PhysicalPlan(
        probe_alias=probe,
        probe_source=graph.source[probe],
        probe_rows=row_counts[probe],
        probe_pred=graph.residual(probe),
        builds=builds,
        projection=graph.projection,
        decisions=decisions,
    )


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


def execute_plan(
    plan_: PhysicalPlan, catalog: Catalog, workers: int = 1
) -> tuple[object, int, executor.ExecStats]:
    """Run the pipeline; returns (result table or None, result count,
    stats).  COUNT(*) plans return None for the table."""
    probe_table = catalog.table(plan_.probe_source)
    steps = []
    build_ms = []
    for b in plan_.builds:
        if isinstance(b.source, ColumnTable):
            table = b.source
        else:
            table = catalog.table(b.source)
        t0 = time.perf_counter()
        index = executor.build_hash(table, b.build_key.name, b.residual)
        build_ms.append((time.perf_counter() - t0) * 1000.0)
        steps.append(executor.BuildStep(b.alias, index, b.probe_key))
    result, stats = executor.probe_joins(
        probe_table,
        plan_.probe_alias,
        plan_.probe_pred,
        steps,
        plan_.projection,
        workers=workers,
    )
    stats.build_ms = build_ms
    return result, stats.result_rows, stats


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


def _fmt_source(source) -> str:
    if isinstance(source, ColumnTable):
        return f"temp(rows={source.row_count})"
    return source


def explain_text(plan_: PhysicalPlan) -> str:
    """Decision lines followed by the indented left-deep plan tree."""
    lines = []
    for d in plan_.decisions:
        lines.append(
            f"ESC table={d.table} count={d.exact_count} "
            f"sel={float(d.selectivity):.6f} "
            f"pushdown={'true' if d.pushed_down else 'false'} "
            f"time_ms={d.subquery_ms + d.materialize_ms:.3f}"
        )
    if plan_.projection is None:
        lines.append("Aggregate COUNT(*)")
    else:
        lines.append("Project " + ", ".join(str(c) for c in plan_.projection))
    depth = 1
    for b in reversed(plan_.builds):
        pad = "  " * depth
        lines.append(f"{pad}HashJoin ({b.build_key} = {b.probe_key})")
        depth += 1
    pad = "  " * depth
    probe_filter = f" filter=({plan_.probe_pred})" if plan_.probe_pred else ""
    lines.append(
        f"{pad}Probe {plan_.probe_alias}={plan_.probe_source} "
        f"rows={plan_.probe_rows}{probe_filter}"
    )
    for i, b in enumerate(plan_.builds):
        pad = "  " * (depth - i)
        fil = f" filter=({b.residual})" if b.residual is not None else ""
        lines.append(
            f"{pad}Build {b.alias}={_fmt_source(b.source)} rows={b.input_rows}{fil}"
        )
    return "\n".join(lines)


def decision_json(d: EscDecision) -> dict:
    return {
        "table": d.table,
        "predicate": str(d.predicate),
        "count": d.exact_count,
        "row_count": d.row_count,
        "selectivity": float(d.selectivity),
        "qualified": d.qualified,
        "pushdown": d.pushed_down,
        "temp_rows": d.exact_count if d.pushed_down else None,
        "subquery_ms": d.subquery_ms,
        "materialize_ms": d.materialize_ms,
    }


def explain_json(plan_: PhysicalPlan) -> dict:
    return {
        "probe": {
            "alias": plan_.probe_alias,
            "source": plan_.probe_source,
            "rows": plan_.probe_rows,
            "filter": str(plan_.probe_pred) if plan_.probe_pred else None,
        },
        "builds": [
            {
                "alias": b.alias,
                "source": _fmt_source(b.source),
                "rows": b.input_rows,
                "key": str(b.build_key),
                "probe_key": str(b.probe_key),
                "filter": str(b.residual) if b.residual is not None else None,
            }
            for b in plan_.builds
        ],
        "projection": (
            None
            if plan_.projection is None
            else [str(c) for c in plan_.projection]
        ),
        "build_card_sum": plan_.build_card_sum,
        "decisions": [decision_json(d) for d in plan_.decisions],
    }
