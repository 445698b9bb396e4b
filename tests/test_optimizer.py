import dataclasses
import gc
import itertools
import re
import weakref

import numpy as np
import pytest

from escdb import expr as ex
from escdb import frontend as fe
from escdb.bench import (
    GenSpec,
    generate,
    plan_quality_catalog,
    ssb_queries,
    tpch4_queries,
)
from escdb.catalog import Catalog
from escdb.engine import Engine
from escdb.errors import (
    CartesianProductRequired,
    PlanError,
)
from escdb.executor import count_star
from escdb.optimizer import (
    ARMS,
    DEFAULT_GUESS,
    choose_probe,
    compute_exact_selectivity,
    execute_plan,
    explain_json,
    explain_text,
    materialize_pushdown,
    order_builds,
    plan,
)
from escdb.storage import KIND_INT64

from oracles import (
    load_rows,
    oracle_count,
    oracle_join,
    oracle_select,
    table_multiset,
)


def _int_table(name, n, **cols):
    """INT64 table with columns given as fn(row_id) over ids 1..n."""
    schema = [(c, KIND_INT64) for c in cols]
    rows = [[fn(i) for fn in cols.values()] for i in range(1, n + 1)]
    return load_rows(name, schema, rows)


@pytest.fixture(scope="module")
def shop():
    """Deterministic 4-table star with hand-checkable selectivities:
    cust c_band=3 hits exactly 200/2000 (0.1), prod p_cls=0 hits
    400/1200 (1/3), tiny t_x < 40 hits 39/80."""
    cat = Catalog()
    cat.register(
        _int_table(
            "fact", 5000,
            f_id=lambda i: i,
            f_cid=lambda i: (i * 7) % 2000 + 1,
            f_pid=lambda i: (i * 13) % 1200 + 1,
            f_tid=lambda i: (i * 3) % 80 + 1,
            f_qty=lambda i: i % 100,
        )
    )
    cat.register(
        _int_table("cust", 2000, c_id=lambda i: i, c_band=lambda i: i % 10)
    )
    cat.register(
        _int_table("prod", 1200, p_id=lambda i: i, p_cls=lambda i: i % 3)
    )
    cat.register(_int_table("tiny", 80, t_id=lambda i: i, t_x=lambda i: i))
    cat.register_udf("h", 1, lambda a: a / 2.0)
    return cat


SHOP_SQL = (
    "SELECT COUNT(*) FROM fact, cust, prod, tiny "
    "WHERE f_cid = c_id AND f_pid = p_id AND f_tid = t_id "
    "AND c_band = 3 AND p_cls = 0 AND t_x < 40 AND f_qty < 50"
)


def _plan_sql(cat, sql, arm="esc"):
    return plan(fe.analyze(fe.parse(sql), cat), cat, arm)


class TestSubquery:
    def test_exact_selectivity_matches_oracle(self, shop):
        pred = ex.Comparison(ex.ColumnRef("cust", "c_band"), "=", 3)
        count, mask, ms = compute_exact_selectivity(shop, "cust", pred)
        assert count == oracle_count(shop.table("cust"), pred) == 200
        assert int(mask.sum()) == count and mask.size == 2000
        assert ms >= 0.0

    def test_alias_differs_from_source(self, shop):
        pred = ex.Comparison(ex.ColumnRef("c2", "c_band"), "=", 3)
        count, _, _ = compute_exact_selectivity(
            shop, "cust", pred, alias="c2"
        )
        assert count == 200


class TestPolicy:
    """Every filtered build table with rows is counted, and under arm
    ``esc`` every counted table is pushed down, whatever it keeps."""

    def _pushed(self, cat, sql):
        p = _plan_sql(cat, sql)
        counted = {d.table for d in p.decisions if d.pushed_down}
        return {b.alias: b.input_rows for b in p.builds if b.alias in counted}

    def test_wide_margin_qualifies(self, shop):
        sql = SHOP_SQL.replace("c_band = 3", "c_band < 8")  # keeps 0.8
        assert self._pushed(shop, sql) == {"cust": 1600, "prod": 400, "tiny": 39}

    def test_empty_table_never_qualifies(self, shop):
        cat = Catalog()
        cat.register(shop.table("fact"))
        cat.register(_int_table("cust", 0, c_id=lambda i: i, c_band=lambda i: i))
        sql = "SELECT COUNT(*) FROM fact, cust WHERE f_cid = c_id AND c_band = 3"
        p = _plan_sql(cat, sql)
        assert p.decisions == [] and p.builds[0].residual is not None

    def test_full_count_pushes_down_without_a_temp(self, shop):
        """A counted filter that keeps every row is pushed down with no
        mask: the build indexes the whole base table, and EXPLAIN still
        shows its temp's size."""
        sql = SHOP_SQL.replace("c_band = 3", "c_band < 10")  # c_band is 0..9
        p = _plan_sql(shop, sql)
        (cust,) = [b for b in p.builds if b.alias == "cust"]
        assert cust.mask is None and cust.residual is None
        assert cust.input_rows == 2000 and cust.sel == 1.0
        assert "Build cust=temp(rows=2000) rows=2000" in explain_text(p)
        want = execute_plan(_plan_sql(shop, sql, "baseline"), shop)[1]
        assert execute_plan(p, shop)[1] == want > 0

    def test_zero_count_qualifies(self, shop):
        sql = SHOP_SQL.replace("c_band = 3", "c_band = 10")  # c_band is 0..9
        p = _plan_sql(shop, sql)
        (cust,) = [d for d in p.decisions if d.table == "cust"]
        assert cust.exact_count == 0 and cust.pushed_down
        assert p.builds[0].alias == "cust" and p.builds[0].input_rows == 0
        assert execute_plan(p, shop)[1] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arm": "none"},
            {"arm": "ESC"},
            {"arm": "esc_unmaterialized"},
            {"arm": ""},
            {"arm": None},
            {"arm": "esc-unmaterialized"},
        ],
    )
    def test_config_validation(self, shop, kwargs):
        with pytest.raises(ValueError, match="arm must be one of"):
            Engine(**kwargs)
        graph = fe.analyze(fe.parse(SHOP_SQL), shop)
        with pytest.raises(ValueError, match="arm must be one of"):
            plan(graph, shop, **kwargs)

    def test_selectivity_is_exact_fraction(self, shop):
        p = _plan_sql(shop, SHOP_SQL)
        by_table = {d.table: d for d in p.decisions}
        counts = {t: (d.exact_count, d.row_count) for t, d in by_table.items()}
        assert counts == {"cust": (200, 2000), "prod": (400, 1200), "tiny": (39, 80)}


class TestMaterialize:
    def test_temp_contents_and_schema(self, shop):
        """The temp is the sub-query's boolean mask itself, one slot per
        base-table row, true where the predicate holds; a selection that
        keeps every row has no temp."""
        pred = ex.Comparison(ex.ColumnRef("cust", "c_band"), "=", 3)
        count, mask, _ = compute_exact_selectivity(shop, "cust", pred)
        temp, ms = materialize_pushdown(mask, count)
        assert ms >= 0.0
        assert temp is mask
        assert temp.dtype == bool and temp.size == 2000
        rows = np.flatnonzero(temp)
        assert rows.tolist() == oracle_select(shop.table("cust"), pred)
        ids = shop.table("cust").column("c_id").values[rows]
        assert all(v % 10 == 3 for v in ids.tolist())
        every = ex.Comparison(ex.ColumnRef("cust", "c_band"), ">=", 0)
        count, mask, _ = compute_exact_selectivity(shop, "cust", every)
        assert count == 2000 and materialize_pushdown(mask, count)[0] is None


class TestOrdering:
    def test_probe_is_largest(self, shop):
        g = fe.analyze(fe.parse(SHOP_SQL), shop)
        counts = {a: shop.table(g.source[a]).row_count for a in g.tables}
        assert choose_probe(g, counts) == "fact"

    def test_probe_tie_breaks_lexicographic(self):
        cat = Catalog()
        cat.register(_int_table("bb", 10, x=lambda i: i))
        cat.register(_int_table("aa", 10, y=lambda i: i))
        g = fe.analyze(fe.parse("SELECT COUNT(*) FROM aa, bb WHERE y = x"), cat)
        assert choose_probe(g, {"aa": 10, "bb": 10}) == "aa"

    def test_greedy_order(self, shop):
        g = fe.analyze(fe.parse(SHOP_SQL), shop)
        order = order_builds(
            g, "fact", {"cust": 200, "prod": 1200, "tiny": 80}
        )
        assert [(alias, str(edge)) for alias, edge in order] == [
            ("tiny", "fact.f_tid = tiny.t_id"),
            ("cust", "fact.f_cid = cust.c_id"),
            ("prod", "fact.f_pid = prod.p_id"),
        ]

    def test_counted_filtered_table_ranks_first(self, shop):
        """tiny keeps 4 of its 80 rows, the most selective filter here;
        however small the table, its count ranks it first."""
        sql = SHOP_SQL.replace("t_x < 40", "t_x < 5")
        p = _plan_sql(shop, sql)
        assert [b.alias for b in p.builds] == ["tiny", "cust", "prod"]
        assert p.builds[0].sel == 4 / 80

    def test_cartesian_product_rejected(self, shop):
        sql = "SELECT COUNT(*) FROM cust, prod WHERE c_band = 3 AND p_cls = 0"
        with pytest.raises(CartesianProductRequired):
            _plan_sql(shop, sql, "baseline")

    @pytest.mark.parametrize(
        "edges",
        ["k1 = j1", "k1 = j1 AND k1 = j1", "k1 = j1 AND j1 = k1"],
    )
    def test_repeated_join_conjunct_is_one_edge(self, edges):
        cat = Catalog()
        cat.register(_int_table("a", 10, k1=lambda i: i, k2=lambda i: i))
        cat.register(_int_table("b", 20, j1=lambda i: i % 10, j2=lambda i: i % 10))
        sql = f"SELECT COUNT(*) FROM a, b WHERE {edges}"
        assert len(fe.analyze(fe.parse(sql), cat).edges) == 1
        p = _plan_sql(cat, sql, "baseline")
        assert execute_plan(p, cat)[1] == 18  # j1 in 1..9, twice each

    def test_composite_join_key_rejected(self):
        cat = Catalog()
        cat.register(_int_table("a", 10, k1=lambda i: i, k2=lambda i: i))
        cat.register(_int_table("b", 20, j1=lambda i: i % 10, j2=lambda i: i % 10))
        with pytest.raises(PlanError, match="composite"):
            _plan_sql(
                cat,
                "SELECT COUNT(*) FROM a, b WHERE k1 = j1 AND k2 = j2",
                "baseline",
            )

    def test_cartesian_product_reported_before_composite_key(self):
        """A table joined on two keys next to a table with no join edge:
        the missing edge is reported first; without that table, the
        composite key is."""
        cat = Catalog()
        cat.register(_int_table("a", 10, k1=lambda i: i, k2=lambda i: i))
        cat.register(_int_table("b", 20, j1=lambda i: i % 10, j2=lambda i: i % 10))
        cat.register(_int_table("c", 5, z=lambda i: i))
        where = "WHERE k1 = j1 AND k2 = j2"
        for arm in ARMS:
            with pytest.raises(CartesianProductRequired):
                _plan_sql(cat, f"SELECT COUNT(*) FROM a, b, c {where}", arm)
            with pytest.raises(PlanError) as err:
                _plan_sql(cat, f"SELECT COUNT(*) FROM a, b {where}", arm)
            assert type(err.value) is PlanError
            assert str(err.value) == (
                "table 'a' joins the pipeline on 2 keys; "
                "composite join keys are not supported"
            )


class TestPlanArms:
    def test_single_table_short_circuit(self, shop):
        p = _plan_sql(shop, "SELECT COUNT(*) FROM cust WHERE c_band = 3")
        assert p.builds == [] and p.decisions == []
        assert p.probe_alias == "cust" and p.probe_rows == 2000
        assert p.probe_pred is not None

    def test_esc_plan_shape(self, shop):
        p = _plan_sql(shop, SHOP_SQL)
        # probe keeps its filter and is never counted or pushed
        assert p.probe_alias == "fact" and p.probe_pred is not None
        by_table = {d.table: d for d in p.decisions}
        assert set(by_table) == {"cust", "prod", "tiny"}
        assert all(d.pushed_down for d in p.decisions)
        # exact selectivities rank the builds: cust 200/2000 = 0.1, prod
        # 400/1200 = 1/3, tiny 39/80 = 0.4875
        assert [b.alias for b in p.builds] == ["cust", "prod", "tiny"]
        assert [b.sel for b in p.builds] == [0.1, 400 / 1200, 39 / 80]
        # a pushed-down build is its base table plus the counted mask,
        # however much its filter keeps, and however small its table
        for b in p.builds:
            d = by_table[b.alias]
            assert b.source == b.alias
            assert d.exact_count == np.count_nonzero(b.mask) == b.input_rows
            assert b.mask.size == d.row_count
            assert b.residual is None
        assert [by_table[b.alias].exact_count for b in p.builds] == [200, 400, 39]
        assert p.build_card_sum == 200 + 400 + 39

    def test_baseline_plan_shape(self, shop):
        p = _plan_sql(shop, SHOP_SQL, "baseline")
        assert p.decisions == []
        assert [b.alias for b in p.builds] == ["tiny", "prod", "cust"]
        assert all(b.mask is None and b.residual is not None for b in p.builds)
        assert p.build_card_sum == 80 + 1200 + 2000

    def test_histogram_arm_runs_no_subqueries(self, shop):
        p = _plan_sql(shop, SHOP_SQL, "histogram")
        assert p.decisions == []
        # estimated fractions rank the builds: cust 0.1, prod 1/3, and
        # tiny about 0.49 for t_x < 40 over t_x in 1..80
        assert [b.alias for b in p.builds] == ["cust", "prod", "tiny"]
        assert p.build_card_sum == 80 + 1200 + 2000  # inputs stay base tables

    def test_histogram_udf_falls_back_to_default_guess(self, shop):
        sql = (
            "SELECT COUNT(*) FROM fact, cust, prod, tiny "
            "WHERE f_cid = c_id AND f_pid = p_id AND f_tid = t_id "
            "AND h(c_band) < 1"
        )
        p = _plan_sql(shop, sql, "histogram")
        # cust ranks at the guess 0.1; prod and tiny are unfiltered, tie
        # at 1.0, and the smaller base table goes first: 80 before 1200
        assert [b.alias for b in p.builds] == ["cust", "tiny", "prod"]
        assert [b.sel for b in p.builds] == [DEFAULT_GUESS, 1.0, 1.0]

    def test_temps_live_until_dropped(self, shop):
        p = _plan_sql(shop, SHOP_SQL)
        temp = p.builds[0].mask  # cust's
        ref = weakref.ref(temp)
        del temp
        gc.collect()
        assert ref() is not None  # the plan owns it
        del p
        gc.collect()
        assert ref() is None


BENCH_QUERIES = [
    (which, label, sql)
    for which, queries in (("tpch4", tpch4_queries()), ("ssb", ssb_queries()))
    for label, sql in queries
]


@pytest.fixture(scope="module")
def bench_catalogs():
    return {w: plan_quality_catalog(w, 0.01, 42) for w in ("tpch4", "ssb")}


def _probe_tuples(p, cat) -> int:
    return sum(execute_plan(p, cat)[2].probe_out)


class TestRankOrder:
    @pytest.mark.parametrize(
        "which,label,sql", BENCH_QUERIES, ids=[q[1] for q in BENCH_QUERIES]
    )
    def test_esc_order_reaches_exhaustive_minimum(
        self, bench_catalogs, which, label, sql
    ):
        """Every filtered table is counted, and ranking the builds by
        exact selectivity gives the fewest probe tuples of all build
        orders."""
        cat = bench_catalogs[which]
        graph = fe.analyze(fe.parse(sql), cat)
        p = plan(graph, cat)
        decisions = {d.table: d for d in p.decisions}
        filtered = {
            a for a in graph.tables
            if a != p.probe_alias and graph.residual(a) is not None
        }
        assert set(decisions) == filtered
        for b in p.builds:
            d = decisions.get(b.alias)
            assert b.sel == (d.exact_count / d.row_count if d else 1.0)
        # the bench queries are stars: every build probes with a key of
        # the probe table, so every order of the builds is a valid plan
        assert {b.probe_key.table for b in p.builds} == {p.probe_alias}
        totals = [
            _probe_tuples(dataclasses.replace(p, builds=list(order)), cat)
            for order in itertools.permutations(p.builds)
        ]
        aliases = [b.alias for b in p.builds]
        assert _probe_tuples(p, cat) == min(totals), (aliases, totals)


@pytest.fixture(scope="module")
def micro():
    """Small enough for the nested-loop oracle."""
    cat = Catalog()
    cat.register(
        _int_table(
            "mfact", 32,
            mf_id=lambda i: i,
            mf_aid=lambda i: (i * 5) % 9 + 1,
            mf_bid=lambda i: (i * 7) % 6 + 1,
            mf_q=lambda i: i % 20,
        )
    )
    cat.register(_int_table("ma", 9, a_id=lambda i: i, a_v=lambda i: i % 5))
    cat.register(_int_table("mb", 6, b_id=lambda i: i, b_w=lambda i: i % 4))
    return cat


MICRO_WHERE = (
    "WHERE mf_aid = a_id AND mf_bid = b_id "
    "AND a_v <= 2 AND b_w <> 1 AND mf_q > 3"
)


def _micro_pred():
    r = lambda t, c: ex.ColumnRef(t, c)
    return ex.And(
        (
            ex.ColumnCompare(r("mfact", "mf_aid"), "=", r("ma", "a_id")),
            ex.ColumnCompare(r("mfact", "mf_bid"), "=", r("mb", "b_id")),
            ex.Comparison(r("ma", "a_v"), "<=", 2),
            ex.Comparison(r("mb", "b_w"), "<>", 1),
            ex.Comparison(r("mfact", "mf_q"), ">", 3),
        )
    )


class TestExecutePlan:
    @pytest.mark.parametrize("arm", ARMS)
    def test_count_matches_oracle_every_arm(self, micro, arm):
        sql = f"SELECT COUNT(*) FROM mfact, ma, mb {MICRO_WHERE}"
        p = _plan_sql(micro, sql, arm)
        result, count, stats = execute_plan(p, micro)
        want, _ = oracle_join(
            {n: micro.table(n) for n in ("mfact", "ma", "mb")}, _micro_pred()
        )
        assert want > 0
        assert result is None and count == want == stats.result_rows

    @pytest.mark.parametrize("arm", ARMS)
    def test_rows_match_oracle_every_arm(self, micro, arm):
        sql = f"SELECT mf_q, a_v, b_w FROM mfact, ma, mb {MICRO_WHERE}"
        p = _plan_sql(micro, sql, arm)
        result, count, _ = execute_plan(p, micro)
        projection = tuple(
            ex.ColumnRef(t, c)
            for t, c in (("mfact", "mf_q"), ("ma", "a_v"), ("mb", "b_w"))
        )
        want_count, want_bag = oracle_join(
            {n: micro.table(n) for n in ("mfact", "ma", "mb")},
            _micro_pred(),
            projection,
        )
        assert count == want_count
        assert table_multiset(result) == want_bag

    def test_stats_reflect_plan_inputs(self, micro):
        sql = f"SELECT COUNT(*) FROM mfact, ma, mb {MICRO_WHERE}"
        p = _plan_sql(micro, sql)
        # each build reads the pushed-down rows passing its filter
        assert all(b.mask is not None for b in p.builds)
        graph = fe.analyze(fe.parse(sql), micro)
        want = [
            count_star(micro.table(b.source), graph.residual(b.alias))[0]
            for b in p.builds
        ]
        assert [b.input_rows for b in p.builds] == want
        assert sum(want) == p.build_card_sum

    @pytest.mark.parametrize("arm,passes", [("esc", 1), ("baseline", 1)])
    def test_udf_runs_once_per_orders_row(self, arm, passes):
        """tpch4.4 filters orders through a row-by-row UDF.  Arm esc
        builds orders from the sub-query's mask, so the UDF sees each row
        once, as in the baseline."""
        calls = []

        def mix200(a, b):
            calls.append(None)
            return (a * 31.0 + b) % 200.0

        cat = Catalog()
        for t in generate(GenSpec("tpch_subset", 0.01, 42)).values():
            cat.register(t)
        cat.register_udf("mix200", 2, mix200)
        sql = dict(tpch4_queries())["tpch4.4"]
        star = sql.replace("SELECT COUNT(*)", "SELECT *", 1)
        for text in (sql, star):
            calls.clear()
            p = _plan_sql(cat, text, arm)
            execute_plan(p, cat)
            assert len(calls) == passes * cat.table("orders").row_count, text
        if arm == "esc":
            (orders,) = [d for d in p.decisions if d.table == "orders"]
            assert orders.pushed_down  # counted, built from the mask


class TestExplain:
    ESC_LINE = re.compile(
        r"^ESC table=\w+ count=\d+ sel=\d\.\d{6} "
        r"pushdown=(true|false) time_ms=\d+\.\d{3}$"
    )

    def test_text_layout(self, shop):
        p = _plan_sql(shop, SHOP_SQL)
        text = explain_text(p)
        lines = text.splitlines()
        esc_lines = [l for l in lines if l.startswith("ESC ")]
        assert len(esc_lines) == 3
        for l in esc_lines:
            assert self.ESC_LINE.match(l), l
        assert "Aggregate COUNT(*)" in lines
        assert sum("HashJoin" in l for l in lines) == 3
        probe = [l for l in lines if "Probe" in l][0]
        assert "fact=fact rows=5000" in probe and "filter=(fact.f_qty < 50)" in probe
        cust = [l for l in lines if "Build cust=" in l][0]
        assert "cust=temp(rows=200) rows=200" in cust and "filter" not in cust
        prod = [l for l in lines if "Build prod=" in l][0]
        assert "prod=temp(rows=400) rows=400" in prod and "filter" not in prod
        tiny = [l for l in lines if "Build tiny=" in l][0]
        assert "tiny=temp(rows=39) rows=39" in tiny and "filter" not in tiny
        assert cust.endswith(" sel=0.100000") and prod.endswith(" sel=0.333333")
        assert tiny.endswith(" sel=0.487500")

    def test_text_projection_line(self, shop):
        sql = SHOP_SQL.replace("COUNT(*)", "f_qty, cust.c_id", 1)
        lines = explain_text(_plan_sql(shop, sql, "baseline")).splitlines()
        assert lines[0] == "Project fact.f_qty, cust.c_id"
        assert "Aggregate COUNT(*)" not in lines

    def test_json_schema(self, shop):
        p = _plan_sql(shop, SHOP_SQL)
        j = explain_json(p)
        assert set(j) == {
            "probe", "builds", "projection", "build_card_sum", "decisions",
        }
        assert j["probe"]["alias"] == "fact" and j["probe"]["rows"] == 5000
        assert j["projection"] is None
        assert j["build_card_sum"] == p.build_card_sum
        assert [b["alias"] for b in j["builds"]] == [b.alias for b in p.builds]
        for b in j["builds"]:
            assert set(b) == {
                "alias", "source", "rows", "key", "probe_key", "filter", "sel",
                "planned_rows",
            }
        # planned rows: the 5000 probe rows times the running product of sel
        assert [b["sel"] for b in j["builds"]] == [0.1, 400 / 1200, 39 / 80]
        assert [b["planned_rows"] for b in j["builds"]] == pytest.approx(
            [500.0, 500 / 3, 500 / 3 * 39 / 80]
        )
        for d in j["decisions"]:
            assert set(d) == {
                "table", "predicate", "count", "row_count", "selectivity",
                "pushdown", "temp_rows", "subquery_ms",
                "materialize_ms",
            }
        by_table = {d["table"]: d for d in j["decisions"]}
        assert by_table["cust"]["selectivity"] == 0.1
        assert by_table["cust"]["temp_rows"] == 200
        assert by_table["prod"]["temp_rows"] == 400
        assert by_table["tiny"]["temp_rows"] == 39
        # given the run's stats, each stage's actual rows sit next to its
        # planned rows: the probe's filtered rows, then each build's output
        _, count, stats = execute_plan(p, shop)
        ran = explain_json(p, stats)
        stages = [ran["probe"], *ran["builds"]]
        assert [s["actual_rows"] for s in stages] == stats.probe_out
        assert stages[-1]["actual_rows"] == count
        for s in stages:
            assert s.pop("actual_rows") is not None
        assert ran == j

    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize(
        "select", ["COUNT(*)", "f_qty, cust.c_id"], ids=["count", "project"]
    )
    def test_json_roundtrips_through_json(self, shop, arm, select):
        import json

        # SHOP_SQL filters the probe, so every stage kind is present
        p = _plan_sql(shop, SHOP_SQL.replace("COUNT(*)", select, 1), arm)
        _, _, stats = execute_plan(p, shop)
        j = explain_json(p, stats)
        assert json.loads(json.dumps(j)) == j  # all values JSON-serializable
        assert j["probe"]["filter"] == "fact.f_qty < 50"
        assert len(j["decisions"]) == (3 if arm == "esc" else 0)
