import json

import numpy as np
import pytest

from escdb.bench import (
    BenchReport,
    GenSpec,
    SUITES,
    _scaled,
    generate,
    overhead_suite_attributes,
    overhead_suite_scale,
    overhead_suite_selectivity,
    plan_quality_suite,
)
from escdb.errors import ScaleOutOfRange
from escdb.storage import dump_csv

ROW_KEYS = {
    "query", "arm", "time_ms", "overhead_ms",
    "build_card_sum", "probe_tuples", "result_count", "decisions",
}


class TestGenerator:
    def test_identical_spec_identical_bytes(self):
        spec = GenSpec("tpch_subset", 0.001, 42)
        a = generate(spec)
        b = generate(spec)
        assert sorted(a) == sorted(b)
        for name in a:
            assert dump_csv(a[name]) == dump_csv(b[name]), name

    def test_seed_changes_data(self):
        a = generate(GenSpec("custom", 0.001, 1))["data"]
        b = generate(GenSpec("custom", 0.001, 2))["data"]
        assert dump_csv(a) != dump_csv(b)

    def test_tpch_row_counts_at_desk_scale(self):
        t = generate(GenSpec("tpch_subset", 0.001, 42))
        assert t["orders"].row_count == 1500
        assert t["part"].row_count == 200
        assert t["supplier"].row_count == 10
        assert 1500 <= t["lineitem"].row_count <= 1500 * 7

    def test_tpch_foreign_keys_contained(self):
        t = generate(GenSpec("tpch_subset", 0.001, 42))
        li = t["lineitem"]
        for fk, dim, pk in (
            ("l_orderkey", "orders", "o_orderkey"),
            ("l_partkey", "part", "p_partkey"),
            ("l_suppkey", "supplier", "s_suppkey"),
        ):
            assert np.isin(
                li.column(fk).values, t[dim].column(pk).values
            ).all(), fk

    def test_correlated_pairs_are_copies(self):
        t = generate(GenSpec("tpch_subset", 0.001, 42))
        o = t["orders"]
        assert np.array_equal(
            o.column("o_channel").values, o.column("o_segment").values
        )
        p = t["part"]
        assert np.array_equal(
            p.column("p_class").values, p.column("p_subclass").values
        )

    def test_ssb_shapes(self):
        t = generate(GenSpec("ssb_subset", 0.001, 42))
        assert t["date"].row_count == 2556  # fixed 1992-1998 calendar
        assert t["customer"].row_count == 30
        assert t["supplier"].row_count == 2
        assert t["part"].row_count == 200
        dims = sum(
            t[n].row_count for n in ("date", "customer", "supplier", "part")
        )
        fact = t["lineorder"].row_count
        assert fact / (fact + dims) >= 0.95

    def test_ssb_foreign_keys_contained(self):
        t = generate(GenSpec("ssb_subset", 0.001, 42))
        lo = t["lineorder"]
        for fk, dim, pk in (
            ("lo_orderdate", "date", "d_datekey"),
            ("lo_custkey", "customer", "c_custkey"),
            ("lo_suppkey", "supplier", "s_suppkey"),
            ("lo_partkey", "part", "p_partkey"),
        ):
            assert np.isin(
                lo.column(fk).values, t[dim].column(pk).values
            ).all(), fk

    def test_ssb_dimension_vocabularies(self):
        t = generate(GenSpec("ssb_subset", 0.01, 42))
        regions = {
            t["supplier"].column("s_region").dictionary.decode(int(c))
            for c in np.unique(t["supplier"].column("s_region").values)
        }
        assert regions <= {f"REGION{i}" for i in range(5)}
        years = t["date"].column("d_year").values
        assert years.min() == 1992 and years.max() == 1998

    def test_scale_zero_rejected(self):
        with pytest.raises(ScaleOutOfRange):
            GenSpec("tpch_subset", 0.0, 42)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_scale_not_finite_positive_rejected(self, scale):
        with pytest.raises(ScaleOutOfRange, match="finite positive"):
            GenSpec("tpch_subset", scale, 42)

    def test_scale_past_int64_rejected(self):
        assert _scaled(1, 2.0**63 - 1024, "t") == 2**63 - 1024
        with pytest.raises(ScaleOutOfRange, match="more than int64 holds"):
            _scaled(1, 2.0**63, "t")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            GenSpec("tpch_subset", 0.01, -1)
        assert GenSpec("tpch_subset", 0.01, 0).seed == 0

    def test_scale_rounding_any_table_to_zero_rejected(self):
        with pytest.raises(ScaleOutOfRange):
            generate(GenSpec("tpch_subset", 0.00001, 42))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            GenSpec("tpcds", 0.01, 42)

    def test_null_fraction(self):
        t = generate(GenSpec("custom", 0.01, 5, null_fraction=0.1))["data"]
        assert int(t.column("id").null_mask.sum()) == 0
        for name in ("a", "b", "val", "when", "tag"):
            frac = t.column(name).null_mask.mean()
            assert 0.05 < frac < 0.15, name


class TestReport:
    def _rows(self):
        def row(q, arm, t, ov=0.0):
            return {
                "query": q, "arm": arm, "time_ms": t, "overhead_ms": ov,
                "build_card_sum": 10, "probe_tuples": 30, "result_count": 3,
                "decisions": [],
            }

        return [
            row("q1", "baseline", 10.0),
            row("q1", "esc", 4.0, 1.5),
            row("q2", "baseline", 6.0),
            row("q2", "esc", 8.0, 2.0),
        ]

    def test_json_schema(self):
        rep = BenchReport("tpch4", "tpch_subset", 0.01, 42, self._rows())
        j = rep.to_json()
        assert set(j) == {"suite", "spec", "rows"}
        assert j["spec"] == {"benchmark": "tpch_subset", "scale": 0.01, "seed": 42}
        assert all(set(r) == ROW_KEYS for r in j["rows"])

    def test_save_round_trips(self, tmp_path):
        rep = BenchReport("tpch4", "tpch_subset", 0.01, 42, self._rows())
        path = tmp_path / "report.json"
        rep.save(str(path))
        assert json.loads(path.read_text()) == rep.to_json()

    def test_speedups(self):
        rep = BenchReport("tpch4", "tpch_subset", 0.01, 42, self._rows())
        ups = rep.speedups()
        assert ups["q1"] == pytest.approx(2.5)
        assert ups["q2"] == pytest.approx(0.75)

    def test_overhead_ratio(self):
        rep = BenchReport("tpch4", "tpch_subset", 0.01, 42, self._rows())
        assert rep.overhead_ratio() == pytest.approx(2.0 / 1.5)
        empty = BenchReport("x", "tpch_subset", 0.01, 42, [])
        assert empty.overhead_ratio() is None

    def test_text_table(self):
        rep = BenchReport("tpch4", "tpch_subset", 0.01, 42, self._rows())
        text = rep.to_text()
        assert text.startswith("suite: tpch4")
        assert "query" in text and "arm" in text
        assert "speedup q1: 2.50x" in text
        assert "speedup q2: 0.75x" in text

    def test_text_ratio_line_for_overhead_suites(self):
        rows = [
            {
                "query": f"f={f}", "arm": "esc", "time_ms": 1.0,
                "overhead_ms": ov, "build_card_sum": 1, "result_count": 1,
                "decisions": [],
            }
            for f, ov in ((0.1, 2.0), (0.2, 3.0))
        ]
        rep = BenchReport("overhead-selectivity", "tpch_subset", 0.01, 42, rows)
        assert "overhead max/min ratio: 1.50" in rep.to_text()


class TestOverheadSuites:
    def test_scale_suite_cells(self):
        rep = overhead_suite_scale(scales=(0.001, 0.002), reps=1)
        assert rep.suite == "overhead-scale"
        assert rep.scale == [0.001, 0.002]
        assert len(rep.rows) == 6  # 2 scales x 3 tables
        for r in rep.rows:
            assert set(r) == ROW_KEYS and r["arm"] == "esc"
            assert r["overhead_ms"] > 0.0
            assert len(r["decisions"]) == 1

    def test_selectivity_suite_counts_track_fractions(self):
        fractions = (0.001, 0.1, 1.0)
        rep = overhead_suite_selectivity(fractions=fractions, scale=0.001, reps=1)
        assert len(rep.rows) == 3
        n = generate(GenSpec("tpch_subset", 0.001, 42))["orders"].row_count
        for r, f in zip(rep.rows, fractions):
            assert r["decisions"][0]["count"] == max(round(n * f), 1)

    def test_attribute_suite_monotone_positive(self):
        rep = overhead_suite_attributes(scale=0.001, reps=1)
        assert [r["query"] for r in rep.rows] == [
            "attrs=1", "attrs=2", "attrs=3", "attrs=4",
        ]
        counts = [r["decisions"][0]["count"] for r in rep.rows]
        assert all(c > 0 for c in counts)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


    @pytest.mark.parametrize(
        "suite,kwargs",
        [
            (overhead_suite_selectivity, {"scale": 0.001}),
            (overhead_suite_attributes, {"scale": 0.001}),
            (overhead_suite_scale, {"scales": (0.001,)}),
        ],
        ids=["selectivity", "attributes", "scale"],
    )
    def test_every_cell_measures_arm_esc(self, suite, kwargs):
        """Each cell counts one table and pushes it down, so its
        ``overhead_ms`` is the sub-query plus push-down cost."""
        for r in suite(reps=1, **kwargs).rows:
            (d,) = r["decisions"]
            assert d["pushdown"] is True and d["temp_rows"] == d["count"]


class TestPlanQualitySuite:
    def test_tpch4_smoke(self):
        rep = plan_quality_suite("tpch4", scale=0.002, reps=1)
        assert len(rep.rows) == 8  # 4 queries x 2 arms
        by_query: dict[str, dict] = {}
        for r in rep.rows:
            assert set(r) == ROW_KEYS
            by_query.setdefault(r["query"], {})[r["arm"]] = r
        for q, arms in by_query.items():
            assert arms["baseline"]["result_count"] == arms["esc"]["result_count"]
            assert arms["esc"]["build_card_sum"] <= arms["baseline"]["build_card_sum"]
            assert arms["baseline"]["decisions"] == []
            assert arms["baseline"]["overhead_ms"] == 0.0
        assert len(rep.speedups()) == 4

    def test_ssb_smoke(self):
        rep = plan_quality_suite("ssb", scale=0.001, reps=1)
        assert len(rep.rows) == 20  # 10 queries x 2 arms
        by_query: dict[str, dict] = {}
        for r in rep.rows:
            by_query.setdefault(r["query"], {})[r["arm"]] = r
        for q, arms in by_query.items():
            assert arms["baseline"]["result_count"] == arms["esc"]["result_count"]

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(ValueError):
            plan_quality_suite("tpcw")

    def test_suite_registry(self):
        assert set(SUITES) == {
            "overhead-scale", "overhead-selectivity", "overhead-attrs",
            "tpch4", "ssb",
        }
