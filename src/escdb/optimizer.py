"""Planning with exact selectivities.

Instead of estimating predicate selectivities from synopses, the planner
runs a generated COUNT sub-query at planning time per filtered,
non-empty build table, and pushes every counted selection down: the
sub-query's boolean mask is the temp table, which the build indexes in
place of the filtered base table, so no filter runs twice.  The paper
pushes down only selective filters because its temp table is a copy;
here it is the mask the count already made, and planning makes no row
ids.

Every arm orders the left-deep joins by one cost model: each stage keeps
``sel`` of the probe stream, and the builds go in ascending ``sel`` (rank
ordering), which keeps the sum of intermediate results smallest for
unique build keys.  The arms differ only in where ``sel`` comes from:
``esc`` uses ``count / rows`` of every table it counts; ``histogram``
uses its estimated fraction; ``baseline`` has none and runs no
sub-queries.  A table without one ranks at 1.0 (assume it filters
nothing), and ties go to the smaller base table, so the baseline orders
by size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from . import executor
from . import expr as ex
from .catalog import Catalog, estimate_selectivity
from .errors import (
    CartesianProductRequired,
    EscdbError,
    ExecutionError,
    Inestimable,
    PlanError,
)
from .frontend import JoinEdge, JoinGraph

# where a build's sel comes from: exact counts, none, or histogram estimates
ARMS = ("esc", "baseline", "histogram")
# selectivity the histogram arm assumes for a predicate it cannot estimate
DEFAULT_GUESS = 0.1


def check_arm(arm: str):
    if arm not in ARMS:
        raise ValueError(f"arm must be one of {ARMS}, got {arm!r}")


@dataclass
class EscDecision:
    """Outcome of one planning-time COUNT sub-query."""

    table: str  # alias in the query
    predicate: ex.Expr
    exact_count: int
    row_count: int
    pushed_down: bool  # always true: the mask replaces the scan
    subquery_ms: float
    materialize_ms: float


@dataclass
class PlanBuild:
    """One build of the pipeline.  A pushed-down build (a table arm
    ``esc`` counted) indexes the rows of its base table in ``mask``, the
    temp table, and has no residual; any other build filters its base
    table by ``residual``.  ``input_rows`` is what the build reads: the
    temp's size (the count) or the base table's rows."""

    alias: str
    source: str  # base table name
    build_key: ex.ColumnRef
    probe_key: ex.ColumnRef  # column on the probe table or an earlier build
    residual: ex.Expr | None  # fused filter; None when pushed down
    input_rows: int
    # the temp when pushed down; None when it keeps every row
    mask: np.ndarray | None = None
    # the fraction of the probe stream this stage is planned to keep, the
    # rank key of the join order; 1.0 when the arm has no selectivity
    sel: float = 1.0


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
    def overhead_ms(self) -> float:
        """Planning-time sub-query plus push-down cost."""
        return sum(d.subquery_ms + d.materialize_ms for d in self.decisions)


# ---------------------------------------------------------------------------
# Sub-queries and materialization
# ---------------------------------------------------------------------------


def compute_exact_selectivity(
    catalog: Catalog,
    table: str,
    predicate: ex.Expr,
    alias: str | None = None,
) -> tuple[int, np.ndarray, float]:
    """Run ``SELECT COUNT(*) FROM table WHERE predicate``; returns
    (exact_count, the boolean mask it counted, duration_ms)."""
    base = catalog.table(table)
    t0 = time.perf_counter()
    try:
        count, mask = executor.count_star(base, predicate)
    except EscdbError as exc:
        raise ExecutionError(
            f"count sub-query on {alias or table!r} failed: {exc}"
        ) from exc
    return count, mask, (time.perf_counter() - t0) * 1000.0


def materialize_pushdown(
    mask: np.ndarray, count: int
) -> tuple[np.ndarray | None, float]:
    """The temp table of a pushed-down selection that keeps ``count``
    rows: the sub-query's ``mask`` itself, which the plan owns, or None
    when it keeps every row.  No per-row work is done."""
    t0 = time.perf_counter()
    temp = None if count == mask.size else mask
    return temp, (time.perf_counter() - t0) * 1000.0


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


def choose_probe(graph: JoinGraph, row_counts: dict) -> str:
    """Largest base relation probes; ties break to the lexicographically
    smaller alias."""
    return min(graph.tables, key=lambda a: (-row_counts[a], a))


def order_builds(
    graph: JoinGraph, probe: str, rank: dict
) -> list[tuple[str, JoinEdge]]:
    """Rank ordering: repeatedly place the connected table (one with a
    join edge to the probe or an earlier build) whose ``rank`` is lowest,
    ties broken by alias; returns each placed alias with the edge that
    joins it.  ``plan`` ranks a table by ``(sel, base rows)``: each stage
    keeps about ``sel`` of the probe stream, so ascending ``sel``
    minimises the sum of intermediate results for unique build keys
    (Ibaraki & Kameda, TODS 1984).  A table that no edge can reach raises
    ``CartesianProductRequired``; only a complete order is then checked
    for a table that joins on more than one key."""
    connected = {probe}
    remaining = [a for a in graph.tables if a != probe]
    order = []
    while remaining:
        links = {}
        for a in remaining:
            edges = [e for e in graph.edges if e.touches(a) and e.other(a) in connected]
            if edges:
                links[a] = edges
        if not links:
            raise CartesianProductRequired(
                f"no join edge connects {sorted(remaining)} to {sorted(connected)}"
            )
        pick = min(links, key=lambda a: (rank[a], a))
        order.append((pick, links[pick]))
        connected.add(pick)
        remaining.remove(pick)
    for alias, edges in order:
        if len(edges) > 1:
            raise PlanError(
                f"table {alias!r} joins the pipeline on {len(edges)} keys; "
                "composite join keys are not supported"
            )
    return [(alias, edges[0]) for alias, edges in order]


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _estimated_fraction(catalog: Catalog, graph: JoinGraph, pred: ex.Expr) -> float:
    def hist_for(ref: ex.ColumnRef):
        return catalog.histogram(graph.source[ref.table], ref.name)

    try:
        return estimate_selectivity(hist_for, pred)
    except Inestimable:
        return DEFAULT_GUESS


def plan(graph: JoinGraph, catalog: Catalog, arm: str = "esc") -> PhysicalPlan:
    """Produce the physical plan.  One walk over the non-probe tables
    sets each one's ``sel``: arm ``esc`` runs a COUNT sub-query for every
    table that has at least one row and a predicate not folded to true,
    and pushes it down; ``histogram`` estimates every predicate;
    ``baseline`` sets none.  The builds then follow ``order_builds``."""
    check_arm(arm)
    row_counts = {a: catalog.table(graph.source[a]).row_count for a in graph.tables}

    probe = choose_probe(graph, row_counts)
    sel: dict[str, float] = {}
    decisions: list[EscDecision] = []
    temps: dict[str, tuple[np.ndarray | None, int]] = {}
    for alias in graph.tables:
        residual = graph.residual(alias)
        # the probing side is never counted or pushed down
        if alias == probe or residual is None or arm == "baseline":
            continue
        if arm == "histogram":
            sel[alias] = _estimated_fraction(catalog, graph, residual)
            continue
        rc = row_counts[alias]
        # sel divides by the row count; a filter folded to true keeps all
        if rc == 0 or (isinstance(residual, ex.FoldedAtom) and residual.result):
            continue
        count, mask, sub_ms = compute_exact_selectivity(
            catalog, graph.source[alias], residual, alias
        )
        sel[alias] = count / rc
        temp, mat_ms = materialize_pushdown(mask, count)
        temps[alias] = temp, count
        decisions.append(
            EscDecision(
                table=alias,
                predicate=residual,
                exact_count=count,
                row_count=rc,
                pushed_down=True,
                subquery_ms=sub_ms,
                materialize_ms=mat_ms,
            )
        )

    rank = {a: (sel.get(a, 1.0), row_counts[a]) for a in graph.tables if a != probe}
    builds = []
    for alias, edge in order_builds(graph, probe, rank):
        mask, input_rows = temps.get(alias, (None, row_counts[alias]))
        builds.append(
            PlanBuild(
                alias,
                graph.source[alias],
                edge.key_for(alias),
                edge.left if edge.right.table == alias else edge.right,
                None if alias in temps else graph.residual(alias),
                input_rows,
                mask,
                sel.get(alias, 1.0),
            )
        )

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
    stats).  COUNT(*) plans return None for the table.  A build keeps
    row ids only when a later stage or the projection reads its alias."""
    probe_table = catalog.table(plan_.probe_source)
    tables = {plan_.probe_alias: probe_table}
    live = executor.live_aliases(plan_.builds, plan_.projection)
    steps = []
    for b, alive in zip(plan_.builds, live[1:]):
        table = tables[b.alias] = catalog.table(b.source)
        probe_col = tables[b.probe_key.table].column(b.probe_key.name)
        index = executor.build_hash(
            table, b.build_key.name, b.residual, b.mask, probe_col, b.alias in alive
        )
        steps.append(executor.BuildStep(b.alias, index, b.probe_key))
    result, stats = executor.probe_joins(
        probe_table,
        plan_.probe_alias,
        plan_.probe_pred,
        steps,
        plan_.projection,
        workers=workers,
        live=live,
    )
    return result, stats.result_rows, stats


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


def explain_json(
    plan_: PhysicalPlan, stats: executor.ExecStats | None = None
) -> dict:
    """The plan as JSON, the one place that formats a plan's fields.  A
    pushed-down build's source is its temp table, ``temp(rows=N)``.  Given
    the ``stats`` of its run, the probe and each build also carry
    ``actual_rows``, the tuples that stage emitted."""
    # the tuples each stage is planned to emit: probe rows times the
    # product of sel over the builds up to and including it
    sels = [b.sel for b in plan_.builds]
    planned = list(accumulate(sels, mul, initial=plan_.probe_rows))[1:]
    temps = {d.table for d in plan_.decisions if d.pushed_down}
    plan_json = {
        "probe": {
            "alias": plan_.probe_alias,
            "source": plan_.probe_source,
            "rows": plan_.probe_rows,
            "filter": str(plan_.probe_pred) if plan_.probe_pred else None,
        },
        "builds": [
            {
                "alias": b.alias,
                "source": (
                    f"temp(rows={b.input_rows})" if b.alias in temps else b.source
                ),
                "rows": b.input_rows,
                "key": str(b.build_key),
                "probe_key": str(b.probe_key),
                "filter": str(b.residual) if b.residual is not None else None,
                "sel": b.sel,
                "planned_rows": rows,
            }
            for b, rows in zip(plan_.builds, planned)
        ],
        "projection": (
            None
            if plan_.projection is None
            else [str(c) for c in plan_.projection]
        ),
        "build_card_sum": plan_.build_card_sum,
        "decisions": [
            {
                "table": d.table,
                "predicate": str(d.predicate),
                "count": d.exact_count,
                "row_count": d.row_count,
                "selectivity": d.exact_count / d.row_count,
                "pushdown": d.pushed_down,
                "temp_rows": d.exact_count if d.pushed_down else None,
                "subquery_ms": d.subquery_ms,
                "materialize_ms": d.materialize_ms,
            }
            for d in plan_.decisions
        ],
    }
    if stats is not None:
        stages = [plan_json["probe"], *plan_json["builds"]]
        for stage, actual in zip(stages, stats.probe_out):
            stage["actual_rows"] = actual
    return plan_json


def explain_text(plan_: PhysicalPlan) -> str:
    """``explain_json(plan_)`` rendered as decision lines followed by the
    indented left-deep plan tree; nothing but that dict is read."""
    j = explain_json(plan_)
    lines = [
        f"ESC table={d['table']} count={d['count']} "
        f"sel={d['selectivity']:.6f} "
        f"pushdown={'true' if d['pushdown'] else 'false'} "
        f"time_ms={d['subquery_ms'] + d['materialize_ms']:.3f}"
        for d in j["decisions"]
    ]
    if j["projection"] is None:
        lines.append("Aggregate COUNT(*)")
    else:
        lines.append("Project " + ", ".join(j["projection"]))

    def fil(stage: dict) -> str:
        return f" filter=({stage['filter']})" if stage["filter"] else ""

    builds, probe = j["builds"], j["probe"]
    # the last build joins outermost; each earlier one nests a level deeper
    for depth, b in enumerate(reversed(builds), 1):
        lines.append(f"{'  ' * depth}HashJoin ({b['key']} = {b['probe_key']})")
    depth = len(builds) + 1
    lines.append(
        f"{'  ' * depth}Probe {probe['alias']}={probe['source']} "
        f"rows={probe['rows']}{fil(probe)}"
    )
    for i, b in enumerate(builds):
        lines.append(
            f"{'  ' * (depth - i)}Build {b['alias']}={b['source']} "
            f"rows={b['rows']}{fil(b)} sel={b['sel']:.6f}"
        )
    return "\n".join(lines)
