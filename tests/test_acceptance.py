"""End-to-end acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``: each line below is the
pass/fail verdict for one criterion.

1. Planning-time COUNT sub-queries return exactly the brute-force count.
2. Every optimizer arm returns identical results on both workloads.
3. ESC plans never exceed baseline build cardinality and usually shrink it.
4. Exact counts buy execution-time wins on correlated joins.
5. Sub-query overhead is flat across predicate selectivities.
6. Overhead tracks the number of predicate attributes, counts stay sane.
7. The push-down policy is monotone in its thresholds and size-gated.
8. Generation, planning, and parallel execution are deterministic.
9. The histogram arm changes plans (not results) and never beats ESC's
   build cardinality.
"""

import random
import re

import pytest

from escdb import expr as ex
from escdb import frontend as fe
from escdb.bench import (
    GenSpec,
    generate,
    overhead_suite_attributes,
    overhead_suite_selectivity,
    plan_quality_catalog,
    plan_quality_suite,
    tpch4_queries,
)
from escdb.optimizer import (
    EscConfig,
    compute_exact_selectivity,
    execute_plan,
    explain_text,
    plan,
)
from escdb.storage import dump_csv

from conftest import make_catalog
from oracles import oracle_count, table_multiset
from test_executor import PredGen

TPCH4_LABELS = [label for label, _ in tpch4_queries()]


@pytest.fixture(scope="module")
def tpch4_report():
    return plan_quality_suite("tpch4", scale=0.01, seed=42, reps=5)


@pytest.fixture(scope="module")
def ssb_report():
    return plan_quality_suite("ssb", scale=0.01, seed=42, reps=7)


def _by_query(report):
    out: dict[str, dict[str, dict]] = {}
    for row in report.rows:
        out.setdefault(row["query"], {})[row["arm"]] = row
    return out


def test_criterion_1_subquery_counts_are_exact(custom_nulls, tpch_small):
    """200 random predicates over a 20K-row mixed-kind table with NULLs,
    plus 40 over generated orders: the planner's COUNT equals a row-by-row
    reference interpreter's count, every time."""
    for table, name, seed, n in (
        (custom_nulls, "data", 2024, 200),
        (tpch_small["orders"], "orders", 7, 40),
    ):
        cat = make_catalog(table)
        gen = PredGen(table, random.Random(seed))
        checked = 0
        while checked < n:
            pred = gen.pred()
            if isinstance(pred, ex.FoldedAtom) and pred.result:
                continue  # no sub-query is generated for a no-op filter
            count, _ = compute_exact_selectivity(cat, name, pred)
            assert count == oracle_count(table, pred), str(pred)
            checked += 1


def test_criterion_2_identical_results_across_arms(tpch4_report, ssb_report):
    for report in (tpch4_report, ssb_report):
        for query, arms in _by_query(report).items():
            counts = {arm: row["result_count"] for arm, row in arms.items()}
            assert len(set(counts.values())) == 1, (query, counts)
    tpch4 = _by_query(tpch4_report)
    assert all(tpch4[q]["esc"]["result_count"] > 0 for q in TPCH4_LABELS)
    assert _by_query(ssb_report)["ssb4.3"]["esc"]["result_count"] > 0


def test_criterion_3_esc_build_cardinalities_dominate_baseline(tpch4_report):
    by_query = _by_query(tpch4_report)
    strict = 0
    for q in TPCH4_LABELS:
        esc = by_query[q]["esc"]["build_card_sum"]
        base = by_query[q]["baseline"]["build_card_sum"]
        assert esc <= base, (q, esc, base)
        strict += esc < base
    assert strict >= 3


def test_criterion_4_esc_speeds_up_correlated_joins(tpch4_report, ssb_report):
    """Sub-query overhead included: the reordered joins still win on the
    correlated queries (the UDF-contrast query 4 is allowed to lose)."""
    ups = tpch4_report.speedups()
    wins = sum(1 for q in TPCH4_LABELS if ups[q] >= 1.0)
    assert wins >= 3, ups
    ssb_ups = ssb_report.speedups()
    assert ssb_ups["ssb4.3"] >= 1.0, ssb_ups


def test_criterion_5_overhead_flat_across_selectivities():
    report = overhead_suite_selectivity(scale=0.05, reps=5)
    counts = [r["decisions"][0]["count"] for r in report.rows]
    assert max(counts) / min(counts) >= 10_000  # the sweep is real
    assert all(r["overhead_ms"] > 0 for r in report.rows)
    assert report.overhead_ratio() <= 3.0, [r["overhead_ms"] for r in report.rows]


def test_criterion_6_overhead_counts_track_attribute_conjunctions():
    report = overhead_suite_attributes(scale=0.01, reps=3)
    counts = [r["decisions"][0]["count"] for r in report.rows]
    overheads = [r["overhead_ms"] for r in report.rows]
    assert all(c > 0 for c in counts)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(o > 0 for o in overheads)
    # widening the conjunction must not blow the sub-query up
    assert max(overheads) / min(overheads) <= 10.0


def test_criterion_7_pushdown_policy_monotone_and_size_gated(tpch_catalog):
    sql = (
        "SELECT COUNT(*) FROM lineitem, orders, part "
        "WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey "
        "AND o_channel < 100 AND p_class < 200"
    )
    graph = fe.analyze(fe.parse(sql), tpch_catalog)
    prev: set = set()
    for threshold in (0.0, 0.05, 0.1, 0.21, 0.5, 1.0):
        p = plan(
            graph,
            tpch_catalog,
            EscConfig(
                arm="esc-unmaterialized", min_table_size=1, max_selectivity=threshold
            ),
        )
        qualified = {d.table for d in p.decisions if d.qualified}
        assert prev <= qualified, threshold
        prev = qualified
    assert prev == {"orders", "part"}

    gated = plan(graph, tpch_catalog, EscConfig(min_table_size=10**9))
    assert gated.decisions == []  # size gate skips the sub-query entirely

    partial = plan(
        graph,
        tpch_catalog,
        EscConfig(
            arm="esc-unmaterialized", min_table_size=1000, max_selectivity=1.0
        ),
    )
    assert {d.table for d in partial.decisions} == {"orders"}  # part is 200 rows


def test_criterion_8_runs_are_deterministic():
    # (a) same spec, byte-identical tables
    for benchmark in ("tpch_subset", "ssb_subset"):
        spec = GenSpec(benchmark, 0.001, 42)
        a, b = generate(spec), generate(spec)
        for name in a:
            assert dump_csv(a[name]) == dump_csv(b[name]), (benchmark, name)

    # (b) same spec + same query, identical plan modulo timings
    sql = tpch4_queries()[0][1]
    texts = []
    for _ in range(2):
        cat = make_catalog(*generate(GenSpec("tpch_subset", 0.001, 42)).values())
        p = plan(
            fe.analyze(fe.parse(sql), cat), cat, EscConfig(min_table_size=1)
        )
        texts.append(re.sub(r"time_ms=\S+", "time_ms=*", explain_text(p)))
    assert texts[0] == texts[1]

    # (c) worker count changes neither content nor row order
    cat = make_catalog(*generate(GenSpec("tpch_subset", 0.001, 42)).values())
    sql = (
        "SELECT o_orderkey, p_brand FROM lineitem, orders, part "
        "WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey "
        "AND o_channel < 200 AND p_class < 500"
    )
    p = plan(fe.analyze(fe.parse(sql), cat), cat, EscConfig(min_table_size=1))
    rows_by_workers = []
    for workers in (1, 8):
        result, count, _ = execute_plan(p, cat, workers=workers)
        assert count > 0
        rows_by_workers.append([result.row(i) for i in range(result.row_count)])
    assert rows_by_workers[0] == rows_by_workers[1]
    assert table_multiset(result) == table_multiset(result)


def test_criterion_9_histogram_arm_changes_plans_not_results():
    cat = plan_quality_catalog("tpch4", 0.01, 42)
    esc_cfg = EscConfig()
    hist_cfg = EscConfig(arm="histogram")
    order_differs = []
    for label, sql in tpch4_queries():
        graph = fe.analyze(fe.parse(sql), cat)
        esc_plan = plan(graph, cat, esc_cfg)
        esc_order, esc_sum = esc_plan.build_order, esc_plan.build_card_sum
        hist_plan = plan(graph, cat, hist_cfg)
        assert hist_plan.decisions == []  # estimates, never sub-queries
        assert hist_plan.build_card_sum >= esc_sum, label
        if hist_plan.build_order != esc_order:
            order_differs.append(label)
    assert order_differs, "histogram and ESC always agreed on build order"

    # on a query where they disagree, results still match
    label = order_differs[0]
    sql = dict(tpch4_queries())[label]
    graph = fe.analyze(fe.parse(sql), cat)
    counts = []
    for cfg in (esc_cfg, hist_cfg):
        counts.append(execute_plan(plan(graph, cat, cfg), cat)[1])
    assert counts[0] == counts[1]
