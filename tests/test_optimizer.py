import gc
import re
import weakref
from fractions import Fraction

import pytest

from escdb import expr as ex
from escdb import frontend as fe
from escdb.catalog import Catalog
from escdb.errors import (
    CartesianProductRequired,
    PlanError,
)
from escdb.executor import count_star
from escdb.optimizer import (
    EscConfig,
    choose_probe,
    compute_exact_selectivity,
    decide_pushdown,
    decision_json,
    execute_plan,
    explain_json,
    explain_text,
    materialize_pushdown,
    order_builds,
    plan,
)
from escdb.storage import ColumnTable, KIND_INT64, append_rows

from oracles import oracle_count, oracle_join, table_multiset


def _int_table(name, n, **cols):
    """INT64 table with columns given as fn(row_id) over ids 1..n."""
    schema = [(c, KIND_INT64) for c in cols]
    rows = [[str(fn(i)) for fn in cols.values()] for i in range(1, n + 1)]
    return append_rows(ColumnTable.empty(name, schema), rows)


@pytest.fixture(scope="module")
def shop():
    """Deterministic 4-table star with hand-checkable selectivities:
    cust c_band=3 hits exactly 200/2000 (0.1, qualifies), prod p_cls=0
    hits 400/1200 (1/3, counted but too wide), tiny is below the size
    threshold entirely."""
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


def _plan_sql(cat, sql, config):
    return plan(fe.analyze(fe.parse(sql), cat), cat, config)


class TestSubquery:
    def test_exact_selectivity_matches_oracle(self, shop):
        pred = ex.Equality(ex.ColumnRef("cust", "c_band"), 3)
        count, ms = compute_exact_selectivity(shop, "cust", pred)
        assert count == oracle_count(shop.table("cust"), pred) == 200
        assert ms >= 0.0

    def test_alias_differs_from_source(self, shop):
        pred = ex.Equality(ex.ColumnRef("c2", "c_band"), 3)
        count, _ = compute_exact_selectivity(
            shop, "cust", pred, alias="c2"
        )
        assert count == 200


class TestPolicy:
    CFG = EscConfig()

    def test_wide_margin_qualifies(self):
        assert decide_pushdown(10_000, 100, self.CFG)

    def test_selectivity_boundary_inclusive(self):
        assert decide_pushdown(1000, 200, self.CFG)  # exactly 0.2
        assert not decide_pushdown(1000, 201, self.CFG)

    def test_size_boundary_inclusive(self):
        assert decide_pushdown(1000, 50, self.CFG)  # exactly min size
        assert not decide_pushdown(999, 1, self.CFG)
        assert not decide_pushdown(500, 1, self.CFG)

    def test_empty_table_never_qualifies(self):
        assert not decide_pushdown(0, 0, EscConfig(min_table_size=0))

    def test_zero_count_qualifies(self):
        assert decide_pushdown(1000, 0, self.CFG)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arm": "none"},
            {"arm": "ESC"},
            {"max_selectivity": 1.5},
            {"max_selectivity": -0.1},
            {"min_table_size": -1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            EscConfig(**kwargs)

    def test_selectivity_is_exact_fraction(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig())
        by_table = {d.table: d for d in p.decisions}
        assert by_table["cust"].selectivity == Fraction(1, 10)
        assert by_table["prod"].selectivity == Fraction(1, 3)

    def test_monotone_in_max_selectivity(self, shop):
        prev: set = set()
        for t in (0.0, 0.05, 0.1, 0.34, 1.0):
            p = _plan_sql(
                shop, SHOP_SQL, EscConfig(arm="esc-unmaterialized", max_selectivity=t)
            )
            qualified = {d.table for d in p.decisions if d.qualified}
            assert prev <= qualified
            prev = qualified
        assert prev == {"cust", "prod"}

    def test_size_gate_skips_subquery_entirely(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig(min_table_size=5000))
        assert p.decisions == []
        p = _plan_sql(shop, SHOP_SQL, EscConfig(min_table_size=1))
        assert {d.table for d in p.decisions} == {"cust", "prod", "tiny"}


class TestMaterialize:
    def test_temp_contents_and_schema(self, shop):
        pred = ex.Equality(ex.ColumnRef("cust", "c_band"), 3)
        temp, ms = materialize_pushdown(shop, "cust", pred, ["c_id"])
        assert ms >= 0.0
        assert temp.row_count == 200
        assert [c.name for c in temp.columns] == ["c_id"]
        ids = temp.column("c_id").values
        assert all(v % 10 == 3 for v in ids.tolist())


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
        assert order == ["tiny", "cust", "prod"]

    def test_cartesian_product_rejected(self, shop):
        sql = "SELECT COUNT(*) FROM cust, prod WHERE c_band = 3 AND p_cls = 0"
        with pytest.raises(CartesianProductRequired):
            _plan_sql(shop, sql, EscConfig(arm="baseline"))

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
        p = _plan_sql(cat, sql, EscConfig(arm="baseline"))
        assert execute_plan(p, cat)[1] == 18  # j1 in 1..9, twice each

    def test_composite_join_key_rejected(self):
        cat = Catalog()
        cat.register(_int_table("a", 10, k1=lambda i: i, k2=lambda i: i))
        cat.register(_int_table("b", 20, j1=lambda i: i % 10, j2=lambda i: i % 10))
        with pytest.raises(PlanError, match="composite"):
            _plan_sql(
                cat,
                "SELECT COUNT(*) FROM a, b WHERE k1 = j1 AND k2 = j2",
                EscConfig(arm="baseline"),
            )


class TestPlanArms:
    def test_single_table_short_circuit(self, shop):
        p = _plan_sql(
            shop, "SELECT COUNT(*) FROM cust WHERE c_band = 3", EscConfig()
        )
        assert p.builds == [] and p.decisions == []
        assert p.probe_alias == "cust" and p.probe_rows == 2000
        assert p.probe_pred is not None

    def test_esc_plan_shape(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig())
        # probe keeps its filter and is never counted or pushed
        assert p.probe_alias == "fact" and p.probe_pred is not None
        assert {d.table for d in p.decisions} == {"cust", "prod"}
        by_table = {d.table: d for d in p.decisions}
        cust, prod = by_table["cust"], by_table["prod"]
        assert cust.qualified and cust.pushed_down
        assert not prod.qualified and not prod.pushed_down
        # exact counts reorder the builds: 80, 200, 1200
        assert p.build_order == ["tiny", "cust", "prod"]
        builds = {b.alias: b for b in p.builds}
        assert isinstance(builds["cust"].source, ColumnTable)
        assert cust.exact_count == builds["cust"].source.row_count == 200
        assert builds["cust"].residual is None
        assert builds["cust"].input_rows == 200
        assert builds["prod"].source == "prod"
        assert builds["prod"].residual is not None
        assert builds["prod"].input_rows == 1200
        assert p.build_card_sum == 80 + 200 + 1200

    def test_baseline_plan_shape(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig(arm="baseline"))
        assert p.decisions == []
        assert p.build_order == ["tiny", "prod", "cust"]
        assert all(isinstance(b.source, str) for b in p.builds)
        assert p.build_card_sum == 80 + 1200 + 2000

    def test_verdicts_without_materialization(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig(arm="esc-unmaterialized"))
        assert {d.table for d in p.decisions} == {"cust", "prod"}
        assert any(d.qualified for d in p.decisions)
        assert not any(d.pushed_down for d in p.decisions)
        assert all(isinstance(b.source, str) for b in p.builds)
        # plan stays identical to baseline
        base = _plan_sql(shop, SHOP_SQL, EscConfig(arm="baseline"))
        assert p.build_order == base.build_order
        assert p.build_card_sum == base.build_card_sum

    def test_histogram_arm_runs_no_subqueries(self, shop):
        p = _plan_sql(
            shop, SHOP_SQL, EscConfig(arm="histogram")
        )
        assert p.decisions == []
        # estimates steer the order like the exact counts do here
        assert p.build_order == ["tiny", "cust", "prod"]
        assert p.build_card_sum == 80 + 1200 + 2000  # inputs stay base tables

    def test_histogram_udf_falls_back_to_default_guess(self, shop):
        sql = (
            "SELECT COUNT(*) FROM fact, cust, prod, tiny "
            "WHERE f_cid = c_id AND f_pid = p_id AND f_tid = t_id "
            "AND h(c_band) < 1"
        )
        p = _plan_sql(
            shop, sql, EscConfig(arm="histogram")
        )
        # cust effective = 2000 * 0.1 = 200 < prod's unfiltered 1200
        assert p.build_order == ["tiny", "cust", "prod"]

    def test_temps_live_until_dropped(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig())
        (temp,) = [b.source for b in p.builds if isinstance(b.source, ColumnTable)]
        ref = weakref.ref(temp)
        del temp
        gc.collect()
        assert ref() is not None  # the plan owns it
        del p
        gc.collect()
        assert ref() is None


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


ARMS = [
    ("esc", EscConfig(min_table_size=1)),
    ("esc-unmaterialized", EscConfig(arm="esc-unmaterialized", min_table_size=1)),
    ("baseline", EscConfig(arm="baseline")),
    ("histogram", EscConfig(arm="histogram")),
]


class TestExecutePlan:
    @pytest.mark.parametrize("arm,config", ARMS, ids=[a for a, _ in ARMS])
    def test_count_matches_oracle_every_arm(self, micro, arm, config):
        sql = f"SELECT COUNT(*) FROM mfact, ma, mb {MICRO_WHERE}"
        p = _plan_sql(micro, sql, config)
        result, count, stats = execute_plan(p, micro)
        want, _ = oracle_join(
            {n: micro.table(n) for n in ("mfact", "ma", "mb")}, _micro_pred()
        )
        assert want > 0
        assert result is None and count == want == stats.result_rows

    @pytest.mark.parametrize("arm,config", ARMS, ids=[a for a, _ in ARMS])
    def test_rows_match_oracle_every_arm(self, micro, arm, config):
        sql = f"SELECT mf_q, a_v, b_w FROM mfact, ma, mb {MICRO_WHERE}"
        p = _plan_sql(micro, sql, config)
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
        p = _plan_sql(micro, sql, EscConfig(min_table_size=1))
        _, _, stats = execute_plan(p, micro)
        # no join key is NULL, so each index holds the rows passing its
        # residual: the actual build size, not the planned input_rows
        assert [b.residual is not None for b in p.builds] == [True, True]
        want = [count_star(micro.table(b.source), b.residual) for b in p.builds]
        assert stats.build_cards == want
        assert sum(want) < p.build_card_sum
        assert len(stats.build_ms) == len(p.builds)


class TestExplain:
    ESC_LINE = re.compile(
        r"^ESC table=\w+ count=\d+ sel=\d\.\d{6} "
        r"pushdown=(true|false) time_ms=\d+\.\d{3}$"
    )

    def test_text_layout(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig())
        text = explain_text(p)
        lines = text.splitlines()
        esc_lines = [l for l in lines if l.startswith("ESC ")]
        assert len(esc_lines) == 2
        for l in esc_lines:
            assert self.ESC_LINE.match(l), l
        assert "Aggregate COUNT(*)" in lines
        assert sum("HashJoin" in l for l in lines) == 3
        probe = [l for l in lines if "Probe" in l][0]
        assert "fact=fact rows=5000" in probe and "filter=(fact.f_qty < 50)" in probe
        cust = [l for l in lines if "Build cust=" in l][0]
        assert "cust=temp(rows=200) rows=200" in cust and "filter" not in cust
        prod = [l for l in lines if "Build prod=" in l][0]
        assert "prod=prod rows=1200" in prod and "filter=(prod.p_cls = 0)" in prod

    def test_json_schema(self, shop):
        p = _plan_sql(shop, SHOP_SQL, EscConfig())
        j = explain_json(p)
        assert set(j) == {
            "probe", "builds", "projection", "build_card_sum", "decisions",
        }
        assert j["probe"]["alias"] == "fact" and j["probe"]["rows"] == 5000
        assert j["projection"] is None
        assert j["build_card_sum"] == p.build_card_sum
        assert [b["alias"] for b in j["builds"]] == p.build_order
        for d in j["decisions"]:
            assert set(d) == {
                "table", "predicate", "count", "row_count", "selectivity",
                "qualified", "pushdown", "temp_rows", "subquery_ms",
                "materialize_ms",
            }
        by_table = {d["table"]: d for d in j["decisions"]}
        assert by_table["cust"]["selectivity"] == 0.1
        assert by_table["cust"]["temp_rows"] == 200
        assert by_table["prod"]["temp_rows"] is None

    def test_decision_json_roundtrips_through_json(self, shop):
        import json

        p = _plan_sql(shop, SHOP_SQL, EscConfig())
        for d in p.decisions:
            json.dumps(decision_json(d))  # all values JSON-serializable
