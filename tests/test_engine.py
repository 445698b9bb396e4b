import gc
import weakref

import pytest

from escdb import frontend, optimizer
from escdb.engine import Engine, parse_schema_spec
from escdb.errors import ExecutionError, UnknownColumn
from escdb.optimizer import EscConfig, materialize_pushdown
from escdb.storage import KIND_DATE, KIND_INT64, KIND_TEXT, ColumnTable


class TestSchemaSpec:
    def test_kinds_including_decimal_commas(self):
        schema = parse_schema_spec("a:int64, b:date,c:text,d:decimal(15,2)")
        assert [n for n, _ in schema] == ["a", "b", "c", "d"]
        kinds = [k for _, k in schema]
        assert kinds[0] is KIND_INT64
        assert kinds[1] is KIND_DATE and kinds[2] is KIND_TEXT
        assert kinds[3].is_decimal and kinds[3].scale == 2

    def test_missing_colon(self):
        with pytest.raises(ValueError, match="expected name:kind"):
            parse_schema_spec("a:int64,b")

    def test_unbalanced_parens(self):
        with pytest.raises(ValueError, match="unbalanced"):
            parse_schema_spec("d:decimal(15")


@pytest.fixture
def engine(tmp_path):
    eng = Engine(config=EscConfig(min_table_size=1, max_selectivity=0.5))
    big = tmp_path / "big.csv"
    big.write_text(
        "".join(f"{i},{i % 7}\n" for i in range(1, 101))
    )
    small = tmp_path / "small.csv"
    small.write_text("".join(f"{i},{i % 3}\n" for i in range(1, 8)))
    eng.load_csv_file(str(big), "big", "b_id:int64,b_k:int64")
    eng.load_csv_file(str(small), "small", "s_k:int64,s_v:int64")
    return eng


# small (s_v = i % 3 over 7 rows) qualifies for push-down for v in 0..2
PUSHDOWN_SQL = "SELECT COUNT(*) FROM big, small WHERE b_id = s_k AND s_v = {v}"


class TestRun:
    def test_count_query_result_shape(self, engine):
        res = engine.run("SELECT COUNT(*) FROM big WHERE b_k = 0")
        assert res.is_count and res.rows is None
        assert res.count == 14  # multiples of 7 in 1..100
        assert res.time_ms > 0.0
        assert res.plan.probe_alias == "big"

    def test_row_query_result_shape(self, engine):
        res = engine.run("SELECT b_id FROM big WHERE b_id <= 3")
        assert not res.is_count
        assert res.rows.row_count == res.count == 3

    def test_overhead_accumulates_subquery_time(self, engine):
        res = engine.run(
            "SELECT COUNT(*) FROM big, small WHERE b_id = s_k AND s_v = 0"
        )
        assert len(res.plan.decisions) == 1
        assert res.overhead_ms > 0.0
        assert res.count == 2  # s_k in {3, 6} both <= 100

    def test_temp_freed_with_result(self, engine):
        res = engine.run(PUSHDOWN_SQL.format(v=0))
        (temp,) = [
            b.source for b in res.plan.builds if isinstance(b.source, ColumnTable)
        ]
        ref = weakref.ref(temp)
        del temp
        gc.collect()
        assert ref() is not None  # the result's plan owns it
        del res
        gc.collect()
        assert ref() is None

    def test_temp_freed_after_failure(self, engine, monkeypatch):
        refs = []

        def spy(*args, **kwargs):
            temp, ms = materialize_pushdown(*args, **kwargs)
            refs.append(weakref.ref(temp))
            return temp, ms

        monkeypatch.setattr(optimizer, "materialize_pushdown", spy)
        engine.register_udf("boom", 1, lambda a: 1 / 0)
        # no ``as excinfo``: its traceback would hold Engine.run's frame
        with pytest.raises(ExecutionError):
            engine.run(PUSHDOWN_SQL.format(v=0) + " AND boom(b_k) < 1")
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None

    def test_query_leaves_other_plans_temps_alone(self, engine):
        sql = PUSHDOWN_SQL.format(v=0)
        ra = frontend.analyze(frontend.parse(sql), engine.catalog)
        first = optimizer.plan(ra, engine.catalog, engine.config)
        assert any(d.pushed_down for d in first.decisions)
        second = engine.run(PUSHDOWN_SQL.format(v=1))
        assert any(d.pushed_down for d in second.plan.decisions)
        assert second.count == 3  # s_k in {1, 4, 7}
        _, count, _ = optimizer.execute_plan(first, engine.catalog)
        assert count == 2

    def test_analysis_errors_propagate(self, engine):
        with pytest.raises(UnknownColumn):
            engine.run("SELECT nope FROM big")

    def test_udf_usable_in_queries(self, engine):
        engine.register_udf("double", 1, lambda a: a * 2.0)
        res = engine.run("SELECT COUNT(*) FROM big WHERE double(b_k) >= 12")
        assert res.count == 14  # b_k == 6

    def test_baseline_engine_runs_no_subqueries(self, tmp_path, engine):
        base = Engine(config=EscConfig(arm="baseline"))
        base.catalog = engine.catalog
        res = base.run(
            "SELECT COUNT(*) FROM big, small WHERE b_id = s_k AND s_v = 0"
        )
        assert res.plan.decisions == [] and res.overhead_ms == 0.0
        assert res.count == 2
