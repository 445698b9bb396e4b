import gc
import math
import operator
import random
import sqlite3
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from escdb import executor, frontend, optimizer
from escdb.bench import plan_quality_catalog, ssb_queries, tpch4_queries
from escdb.engine import Engine, parse_schema_spec
from escdb.errors import ExecutionError, UnknownColumn
from escdb.optimizer import materialize_pushdown
from escdb.storage import (
    KIND_DATE,
    KIND_INT64,
    KIND_TEXT,
    decimal,
    load_csv,
)

from oracles import load_rows, oracle_count
from test_plan_golden import result_digest


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
    eng = Engine()
    big = tmp_path / "big.csv"
    big.write_text(
        "".join(f"{i},{i % 7}\n" for i in range(1, 101))
    )
    small = tmp_path / "small.csv"
    small.write_text("".join(f"{i},{i % 3}\n" for i in range(1, 8)))
    eng.load_csv_file(str(big), "big", "b_id:int64,b_k:int64")
    eng.load_csv_file(str(small), "small", "s_k:int64,s_v:int64")
    return eng


# small (s_v = i % 3 over 7 rows) is counted and pushed down
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
        assert res.plan.overhead_ms > 0.0
        assert res.count == 2  # s_k in {3, 6} both <= 100

    def test_temp_freed_with_result(self, engine):
        res = engine.run(PUSHDOWN_SQL.format(v=0))
        # a pushed-down build's temp is the sub-query's mask, which its
        # plan holds
        (temp,) = [b.mask for b in res.plan.builds if b.residual is None]
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

    @pytest.mark.parametrize("arm, prefix", [
        ("esc", "count sub-query on 'small' failed: "),
        ("baseline", ""),
    ])
    def test_build_filter_udf_failure_names_the_row(self, arm, prefix):
        eng = Engine(arm=arm)
        ids = [(i,) for i in range(1, 101)]
        eng.catalog.register(load_rows("big", [("b_id", KIND_INT64)], ids))
        eng.catalog.register(load_rows("small", [("s_k", KIND_INT64)], ids[:7]))

        def f(k):
            if k == 3:
                raise ValueError("boom")
            return k

        eng.register_udf("f", 1, f)
        with pytest.raises(ExecutionError) as info:
            eng.run("SELECT COUNT(*) FROM big, small WHERE b_id = s_k AND f(s_k) < 5")
        assert str(info.value) == prefix + "UDF 'f' failed at row 2: boom"

    def test_query_leaves_other_plans_temps_alone(self, engine):
        sql = PUSHDOWN_SQL.format(v=0)
        ra = frontend.analyze(frontend.parse(sql), engine.catalog)
        first = optimizer.plan(ra, engine.catalog, engine.arm)
        assert any(d.pushed_down for d in first.decisions)
        (temp,) = [b.mask for b in first.builds if b.residual is None]
        second = engine.run(PUSHDOWN_SQL.format(v=1))
        assert any(d.pushed_down for d in second.plan.decisions)
        assert second.count == 3  # s_k in {1, 4, 7}
        del second
        gc.collect()
        # the rows of s_k 3 and 6
        assert temp.tolist() == [i in (2, 5) for i in range(7)]
        _, count, _ = optimizer.execute_plan(first, engine.catalog)
        assert count == 2

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            Engine(workers=workers)

    def test_analysis_errors_propagate(self, engine):
        with pytest.raises(UnknownColumn):
            engine.run("SELECT nope FROM big")

    def test_udf_usable_in_queries(self, engine):
        engine.register_udf("double", 1, lambda a: a * 2.0)
        res = engine.run("SELECT COUNT(*) FROM big WHERE double(b_k) >= 12")
        assert res.count == 14  # b_k == 6

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_udf_error_names_table_row_under_workers(self, tmp_path, workers):
        """The failing row is counted from the table's first row, not from
        the start of the worker's chunk."""
        csv = tmp_path / "f.csv"
        csv.write_text("".join(f"{i}\n" for i in range(100)))
        eng = Engine(workers=workers)
        eng.load_csv_file(str(csv), "f", "f_id:int64")

        def fails_on_80(x):
            if x == 80:
                raise ValueError("bad input")
            return x

        eng.register_udf("fails_on_80", 1, fails_on_80)
        with pytest.raises(ExecutionError, match="failed at row 80: "):
            eng.run("SELECT COUNT(*) FROM f WHERE fails_on_80(f_id) >= 0")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_udf_called_once_per_row(self, tmp_path, workers):
        """The probe's filter runs once, in row order, under any
        ``workers``, and reporting the failing row calls no row's UDF a
        second time."""
        csv = tmp_path / "f.csv"
        csv.write_text("".join(f"{i}\n" for i in range(100)))
        eng = Engine(workers=workers)
        eng.load_csv_file(str(csv), "f", "f_id:int64")
        calls = []

        def fails_on_80(x):
            calls.append(x)
            if x == 80:
                raise ValueError("bad input")
            return x

        eng.register_udf("fails_on_80", 1, fails_on_80)
        with pytest.raises(ExecutionError, match="failed at row 80: bad input"):
            eng.run("SELECT COUNT(*) FROM f WHERE fails_on_80(f_id) >= 0")
        assert calls == [float(i) for i in range(81)]

    def test_baseline_engine_runs_no_subqueries(self, tmp_path, engine):
        base = Engine(arm="baseline")
        base.catalog = engine.catalog
        res = base.run(
            "SELECT COUNT(*) FROM big, small WHERE b_id = s_k AND s_v = 0"
        )
        assert res.plan.decisions == [] and res.plan.overhead_ms == 0.0
        assert res.count == 2


class TestNullsUnderNot:
    """SQL's three-valued logic, checked against stdlib sqlite3: an atom
    over a NULL is unknown, NOT keeps it unknown, and only rows where the
    predicate is true qualify."""

    ROWS = [(1, 5), (2, None), (3, 6)]
    PREDICATES = [
        ("NOT (b = 5)", 1),
        ("NOT (b <> 5)", 1),
        ("NOT (b = 5 AND a > 0)", 1),
        ("NOT (b = 5 OR a > 5)", 1),
        ("NOT (b = 5) OR a = 2", 2),
    ]

    @pytest.fixture(scope="class")
    def engines(self):
        eng = Engine()
        schema = [("a", KIND_INT64), ("b", KIND_INT64)]
        eng.catalog.register(load_rows("t", schema, self.ROWS))
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        lite.executemany("INSERT INTO t VALUES (?, ?)", self.ROWS)
        yield eng, lite
        lite.close()

    @pytest.mark.parametrize("pred,want", PREDICATES)
    def test_matches_sqlite(self, engines, pred, want):
        eng, lite = engines
        (count,) = lite.execute(f"SELECT COUNT(*) FROM t WHERE {pred}").fetchone()
        assert eng.run(f"SELECT COUNT(*) FROM t WHERE {pred}").count == count == want
        graph = frontend.analyze(
            frontend.parse(f"SELECT COUNT(*) FROM t WHERE {pred}"), eng.catalog
        )
        assert oracle_count(eng.catalog.table("t"), graph.residual("t")) == want
        got = eng.run(f"SELECT a FROM t WHERE {pred}").rows.column("a").values
        rows = lite.execute(f"SELECT a FROM t WHERE {pred} ORDER BY a").fetchall()
        assert got.tolist() == [a for (a,) in rows]


class TestFractionalLiterals:
    """A literal between two integer-stored values is compared exactly,
    with the stored values' own rational value, on every operator."""

    INTS = [1, 3, -2, 2**53 - 1, 2**53 + 1, None]
    DECIMALS = ["1.00", "10.50", "10.51", "-0.01", "9999999999999.99", None]
    LITERALS = {
        "a": [
            "1.00000000000000000001", "0.99999999999999999999",
            "9007199254740992.5", "-1.5", "2.5", "3",
        ],
        "d": [
            "10.50000000000000000001", "10.49999999999999999999", "10.505",
            "-0.005", "9999999999999.985", "10.51",
        ],
    }
    OPS = {
        "<": operator.lt, "<=": operator.le, "=": operator.eq,
        "<>": operator.ne, ">": operator.gt, ">=": operator.ge,
    }
    RANGES = [
        ("a", "0.99999999999999999999", "3.00000000000000000001"),
        ("a", "1.00000000000000000001", "2.99999999999999999999"),
        ("a", "2.5", "2.7"),
        ("a", "-2", "9007199254740992.5"),
        ("d", "10.49999999999999999999", "10.50000000000000000001"),
        ("d", "10.505", "10.515"),
        ("d", "10.501", "10.509"),
    ]

    @pytest.fixture(scope="class")
    def engine(self):
        eng = Engine()
        schema = [("a", KIND_INT64), ("d", decimal(15, 2))]
        eng.catalog.register(
            load_rows("t", schema, list(zip(self.INTS, self.DECIMALS)))
        )
        return eng

    def _values(self, column):
        stored = self.INTS if column == "a" else self.DECIMALS
        return [Fraction(v) for v in stored if v is not None]

    @pytest.mark.parametrize("op", list(OPS))
    @pytest.mark.parametrize(
        "column,literal", [(c, lit) for c, lits in LITERALS.items() for lit in lits]
    )
    def test_compare_counts_exactly(self, engine, column, literal, op):
        bound = Fraction(literal)
        want = sum(self.OPS[op](v, bound) for v in self._values(column))
        sql = f"SELECT COUNT(*) FROM t WHERE {column} {op} {literal}"
        assert engine.run(sql).count == want

    @pytest.mark.parametrize("column,lo,hi", RANGES)
    def test_between_counts_exactly(self, engine, column, lo, hi):
        want = sum(
            Fraction(lo) <= v <= Fraction(hi) for v in self._values(column)
        )
        sql = f"SELECT COUNT(*) FROM t WHERE {column} BETWEEN {lo} AND {hi}"
        assert engine.run(sql).count == want


def _null_on_2_nan_on_3(a):
    return None if a == 2 else float("nan") if a == 3 else a


class TestUdfNullResults:
    """A UDF result of None or NaN is NULL, as stdlib sqlite3 reads it:
    the comparison is unknown, plain or under NOT."""

    ROWS = [(1,), (2,), (3,)]
    PREDICATES = [
        ("f(a) < 5", 1),
        ("NOT f(a) < 5", 0),
        ("f(a) <> 1", 0),
        ("NOT f(a) <> 1", 1),
        ("NOT (f(a) = 1 OR a = 5)", 0),
        ("NOT f(a) = 1 OR a = 2", 1),
    ]

    @pytest.fixture(scope="class")
    def engines(self):
        eng = Engine()
        schema = [("a", KIND_INT64)]
        eng.catalog.register(load_rows("t", schema, self.ROWS))
        eng.register_udf("f", 1, _null_on_2_nan_on_3)
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (a INTEGER)")
        lite.executemany("INSERT INTO t VALUES (?)", self.ROWS)
        lite.create_function("f", 1, _null_on_2_nan_on_3)
        yield eng, lite
        lite.close()

    @pytest.mark.parametrize("pred,want", PREDICATES)
    def test_matches_sqlite(self, engines, pred, want):
        eng, lite = engines
        (count,) = lite.execute(f"SELECT COUNT(*) FROM t WHERE {pred}").fetchone()
        assert eng.run(f"SELECT COUNT(*) FROM t WHERE {pred}").count == count == want
        graph = frontend.analyze(
            frontend.parse(f"SELECT COUNT(*) FROM t WHERE {pred}"), eng.catalog
        )
        assert oracle_count(eng.catalog.table("t"), graph.residual("t")) == want
        got = eng.run(f"SELECT a FROM t WHERE {pred}").rows.column("a").values
        rows = lite.execute(f"SELECT a FROM t WHERE {pred} ORDER BY a").fetchall()
        assert got.tolist() == [a for (a,) in rows]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_numeric_result_names_the_row(self, workers):
        eng = Engine(workers=workers)
        schema = [("a", KIND_INT64)]
        rows = [(i,) for i in range(10)]
        eng.catalog.register(load_rows("t", schema, rows))
        eng.register_udf("g", 1, lambda a: "x" if a == 7 else a)
        with pytest.raises(ExecutionError, match="returned 'x' at row 7, not a number"):
            eng.run("SELECT COUNT(*) FROM t WHERE g(a) < 5")


def _spread(a):
    return {3: math.inf, 4: -math.inf}.get(a, a * 1e300)


class TestUdfPastFloatRange:
    """A UDF comparison's literal past the float range reads as +-inf by
    its sign, as stdlib sqlite3 reads it; a UDF result past the float
    range is an error naming its row."""

    ROWS = [(1,), (2,), (3,), (4,)]
    HUGE = "1" + "0" * 400

    @pytest.fixture(scope="class")
    def engines(self):
        eng = Engine()
        eng.catalog.register(load_rows("t", [("a", KIND_INT64)], self.ROWS))
        eng.register_udf("f", 1, _spread)
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (a INTEGER)")
        lite.executemany("INSERT INTO t VALUES (?)", self.ROWS)
        lite.create_function("f", 1, _spread)
        yield eng, lite
        lite.close()

    @pytest.mark.parametrize("negate", ["", "NOT "], ids=["plain", "not"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["pos", "neg"])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "<>"])
    def test_matches_sqlite(self, engines, negate, sign, op):
        eng, lite = engines
        sql = f"SELECT COUNT(*) FROM t WHERE {negate}f(a) {op} {sign}{self.HUGE}"
        (want,) = lite.execute(sql).fetchone()
        assert eng.run(sql).count == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_result_past_float_range_names_the_row(self, workers):
        eng = Engine(workers=workers)
        rows = [(i,) for i in range(10)]
        eng.catalog.register(load_rows("t", [("a", KIND_INT64)], rows))
        eng.register_udf("g", 1, lambda a: 10**400 if a == 7 else a)
        with pytest.raises(
            ExecutionError,
            match="^UDF 'g' returned a number past the float range at row 7$",
        ):
            eng.run("SELECT COUNT(*) FROM t WHERE g(a) < 5")


class TestAllNullText:
    """A TEXT column holding only NULLs has an empty dictionary, so its
    lookup tables are empty too; every comparison on it is unknown, plain
    or under NOT, as in stdlib sqlite3."""

    PREDICATES = [
        "s < 'm'",
        "s BETWEEN 'a' AND 'z'",
        "s = 'x'",
        "s <> 'x'",
    ]

    @pytest.fixture(scope="class")
    def engines(self):
        eng = Engine()
        schema = [("a", KIND_INT64), ("s", KIND_TEXT)]
        eng.catalog.register(load_csv("1,\\N\n2,\\N\n", "t", schema))
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (a INTEGER, s TEXT)")
        lite.executemany("INSERT INTO t VALUES (?, ?)", [(1, None), (2, None)])
        yield eng, lite
        lite.close()

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("pred", PREDICATES)
    def test_matches_sqlite(self, engines, pred, negate):
        eng, lite = engines
        where = f"NOT ({pred})" if negate else pred
        (want,) = lite.execute(f"SELECT COUNT(*) FROM t WHERE {where}").fetchone()
        assert eng.run(f"SELECT COUNT(*) FROM t WHERE {where}").count == want == 0
        assert lite.execute(f"SELECT a FROM t WHERE {where}").fetchall() == []
        assert eng.run(f"SELECT a FROM t WHERE {where}").rows.row_count == 0


class TestProbeEdgeCases:
    """Probe shapes that carry, drop or expand row ids differently, each
    checked against stdlib sqlite3 as COUNT(*) and as SELECT, with one
    probe chunk and with two."""

    LO, HI = -(2**63), 2**63 - 1
    SCHEMAS = {
        # probe table: f_d is NULL on every seventh row, f_x holds the
        # int64 extremes, NULL (stored as 0, itself an x key) and x keys
        "f": "f_id f_d f_m f_x",
        "d": "d_id d_e",  # unique keys 1..8, d_e a key of e
        "e": "e_id e_v",  # unique keys 1..4
        "m": "m_k m_v",  # keys 1..4, each on three rows
        "x": "x_k x_v",  # dense unique keys 0..9
    }

    @classmethod
    def _rows(cls):
        xs = [cls.LO, cls.HI, None, 0, 9, 5, cls.LO + 1, cls.HI - 1]
        return {
            "f": [
                (i, None if i % 7 == 0 else i % 10, i % 6, xs[i % len(xs)])
                for i in range(60)
            ],
            "d": [(i, i % 4 + 1) for i in range(1, 9)],
            "e": [(i, 10 * i) for i in range(1, 5)],
            "m": [(i % 4 + 1, i) for i in range(12)],
            "x": [(i, -i) for i in range(10)],
        }

    @pytest.fixture(scope="class")
    def engines(self):
        lite = sqlite3.connect(":memory:")
        engines = {w: Engine(workers=w) for w in (1, 2)}
        for name, rows in self._rows().items():
            cols = self.SCHEMAS[name].split()
            schema = [(c, KIND_INT64) for c in cols]
            table = load_rows(name, schema, rows)
            for eng in engines.values():
                eng.catalog.register(table)
            lite.execute(f"CREATE TABLE {name} ({', '.join(cols)})")
            marks = ", ".join("?" * len(cols))
            lite.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
        yield engines, lite
        lite.close()

    QUERIES = {
        "single table, no WHERE": ("f_id, f_x", "f", None),
        "chain: e probed with d's column": (
            "f_id, e_v", "f, d, e", "f_d = d_id AND d_e = e_id"
        ),
        "non-unique build key": ("f_id, m_v", "f, m", "f_m = m_k"),
        "NULL probe keys": ("f_id, d_e", "f, d", "f_d = d_id"),
        "int64 extremes against a dense index": (
            "f_id, f_x, x_v", "f, x", "f_x = x_k"
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("form", ["count", "select"])
    @pytest.mark.parametrize("case", list(QUERIES))
    def test_matches_sqlite(self, engines, case, form, workers):
        engines, lite = engines
        cols, tables, where = self.QUERIES[case]
        tail = f"FROM {tables}" + (f" WHERE {where}" if where else "")
        if form == "count":
            (want,) = lite.execute(f"SELECT COUNT(*) {tail}").fetchone()
            res = engines[workers].run(f"SELECT COUNT(*) {tail}")
            assert res.count == want > 0
        else:
            want = sorted(lite.execute(f"SELECT {cols} {tail}").fetchall())
            res = engines[workers].run(f"SELECT {cols} {tail}")
            got = sorted(res.rows.row(i) for i in range(res.rows.row_count))
            assert got == want and res.count == len(want) > 0
        assert res.plan.probe_alias == "f"
        if case == "non-unique build key":
            assert res.plan.builds[0].input_rows == 12
            assert res.stats.build_distinct == [4]
        if case.startswith("chain"):
            assert [b.probe_key.table for b in res.plan.builds] == ["f", "d"]


class TestConcurrentQueries:
    """Queries from several threads on one engine plan from shared
    histograms and counts and must not disturb each other."""

    ARMS = ("esc", "histogram")
    SUITES = {"tpch4": tpch4_queries(), "ssb": ssb_queries()}

    @classmethod
    def _engines(cls, workers):
        """One engine per (suite, arm); the arms of a suite share one
        freshly made catalog, so its histograms are not built yet."""
        engines = {}
        for which in cls.SUITES:
            catalog = plan_quality_catalog(which, 0.01, 42)
            for arm in cls.ARMS:
                engines[which, arm] = Engine(arm, workers)
                engines[which, arm].catalog = catalog
        return engines

    @staticmethod
    def _answer(result):
        if result.rows is None:
            return result.count
        return result.count, result_digest(result.rows)

    def test_four_threads_match_serial(self):
        tasks = [
            (which, arm, sql)
            for which, queries in self.SUITES.items()
            for _, count_sql in queries
            for sql in (count_sql, count_sql.replace("COUNT(*)", "*", 1))
            for arm in self.ARMS
        ]
        serial = self._engines(workers=1)
        want = {t: self._answer(serial[t[:2]].run(t[2])) for t in tasks}

        shared = self._engines(workers=2)
        runs = tasks * 2
        random.Random(7).shuffle(runs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    (t, pool.submit(shared[t[:2]].run, t[2])) for t in runs
                ]
                got = [(t, self._answer(f.result(timeout=120))) for t, f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 2 * len(tasks) == 112
        wrong = [t for t, answer in got if answer != want[t]]
        assert not wrong, wrong


class TestBenchmarkBuilds:
    def test_every_build_is_one_gather(self, monkeypatch):
        """Every build of the bench queries, as ``COUNT(*)`` and as
        ``SELECT *``, under every arm with 1 and 2 workers, has unique
        keys in a direct-address table that covers its probe column, so
        each probe stage is one gather.  A build holds row ids iff its
        alias is read: never in a ``COUNT(*)`` (every bench query is a
        star, whose builds only count, into ``present``), and always in a
        ``SELECT *`` (into ``slots``)."""
        built = []
        build_hash = executor.build_hash

        def recording(*args, **kwargs):
            built.append(build_hash(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(executor, "build_hash", recording)
        runs = 0
        for which, queries in TestConcurrentQueries.SUITES.items():
            catalog = plan_quality_catalog(which, 0.01, 42)
            for arm in optimizer.ARMS:
                for workers in (1, 2):
                    engine = Engine(arm, workers)
                    engine.catalog = catalog
                    for label, sql in queries:
                        for star in (False, True):
                            form = sql.replace("COUNT(*)", "*", 1) if star else sql
                            where = (label, arm, workers, form)
                            built.clear()
                            plan = engine.run(form).plan
                            runs += 1
                            assert len(built) == len(plan.builds) > 0, where
                            for b, index in zip(plan.builds, built):
                                table = index.slots if star else index.present
                                assert table is not None, (where, b.alias)
                                assert (index.group_rows is not None) == star, (
                                    where, b.alias,
                                )
                                # bench keys hold no NULLs, so a build
                                # without a residual indexes exactly the
                                # rows it reports reading
                                if b.residual is None:
                                    assert index.n_entries == b.input_rows, (
                                        where, b.alias,
                                    )
        assert runs == 14 * 2 * len(optimizer.ARMS) * 2
