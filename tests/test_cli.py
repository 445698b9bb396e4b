import io
import json

import pytest

from escdb.cli import main
from escdb.frontend import split_statements

SCHEMA_T = "id:int64,amt:decimal(15,2),tag:text,day:date"
SCHEMA_U = "cid:int64,cat:int64"

CSV_T = (
    "id,amt,tag,day\n"
    "1,10.50,oak,2024-01-05\n"
    "2,3.25,elm,2024-02-11\n"
    "3,\\N,oak,2024-03-17\n"
)
CSV_U = "1,0\n2,1\n3,1\n4,0\n"


@pytest.fixture
def csv_t(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_T)
    return str(p)


@pytest.fixture
def csv_u(tmp_path):
    p = tmp_path / "u.csv"
    p.write_text(CSV_U)
    return str(p)


class TestSplitStatements:
    def test_basic(self):
        assert split_statements("a; b ;; c") == ["a", "b", "c"]

    def test_semicolon_inside_string(self):
        assert split_statements("SELECT 'a;b'; next") == [
            "SELECT 'a;b'", "next",
        ]

    def test_escaped_quote_inside_string(self):
        assert split_statements("x = 'it''s;ok'; y") == ["x = 'it''s;ok'", "y"]

    def test_semicolon_inside_comment(self):
        assert split_statements(
            "SELECT COUNT(*) FROM t -- note; more\n;SELECT 1"
        ) == ["SELECT COUNT(*) FROM t -- note; more", "SELECT 1"]

    def test_apostrophe_inside_comment(self):
        assert split_statements("a -- it's\n; b; 'c'") == [
            "a -- it's", "b", "'c'",
        ]

    def test_comment_only_piece_dropped(self):
        assert split_statements("-- head\na; -- tail\n") == ["-- head\na"]


class TestLoad:
    def test_summary_line(self, csv_t, capsys):
        rc = main(
            ["load", csv_t, "--table", "t", "--schema", SCHEMA_T, "--header"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "loaded t: 3 rows, 4 columns\n"

    def test_bad_schema_item_is_usage_error(self, csv_t, capsys):
        rc = main(["load", csv_t, "--table", "t", "--schema", "id-int64"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_kind_is_storage_error(self, csv_t, capsys):
        rc = main(["load", csv_t, "--table", "t", "--schema", "id:int63"])
        assert rc == 1
        assert "error [storage]" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["decimal(2,5)", "decimal(40,2)"])
    def test_bad_decimal_kind_is_storage_error(self, csv_t, capsys, kind):
        rc = main(["load", csv_t, "--table", "t", "--schema", f"id:{kind}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [storage]: ") and "precision" in err

    def test_decimal_over_precision_is_storage_error(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("1,1.50\n2,123456.78\n")
        rc = main(
            [
                "sql", "SELECT COUNT(*) FROM t",
                "--load", f"t:{p}:a:int64,b:decimal(3,2)",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [storage]: ")
        assert "row 2, column 'b'" in err and "more than 3 digits" in err
        assert "Traceback" not in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(
            ["load", str(tmp_path / "no.csv"), "--table", "t", "--schema", "a:int64"]
        )
        assert rc == 1
        assert "error [io]" in capsys.readouterr().err

    def test_missing_load_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no.csv"
        rc = main(["sql", "SELECT COUNT(*) FROM t", "--load", f"t:{missing}:a:int64"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error [io]: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_malformed_rows_fail(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,two\n")
        rc = main(["load", str(p), "--table", "t", "--schema", "a:int64,b:int64"])
        assert rc == 1
        assert "error [storage]" in capsys.readouterr().err

    def test_oversized_field_is_storage_error(self, tmp_path, capsys):
        # csv.reader refuses a field over 131,072 characters
        p = tmp_path / "wide.csv"
        p.write_text("1," + "x" * 131_073 + "\n")
        rc = main(["load", str(p), "--table", "t", "--schema", "a:int64,b:text"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [storage]: t: line 1: field larger than")
        assert "Traceback" not in err

    def test_int64_overflow_is_storage_error(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("1,2\n3,99999999999999999999\n")
        rc = main(
            [
                "sql", "SELECT COUNT(*) FROM t",
                "--load", f"t:{p}:a:int64,b:int64",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [storage]: ")
        assert "row 2, column 'b'" in err and "Traceback" not in err

    LATIN1_ERR = (
        "error [storage]: t: line 2: byte 0xe9 is not valid utf-8 "
        "(invalid continuation byte)"
    )

    @pytest.fixture
    def latin1_csv(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("1,oak\n2,café\n".encode("latin-1"))
        return str(p)

    def test_non_utf8_load_is_storage_error(self, latin1_csv, capsys):
        rc = main(["load", latin1_csv, "--table", "t", "--schema", "a:int64,s:text"])
        assert rc == 1
        assert capsys.readouterr().err == self.LATIN1_ERR + "\n"

    def test_non_utf8_sql_load_is_storage_error(self, latin1_csv, capsys):
        rc = main(
            [
                "sql", "SELECT COUNT(*) FROM t",
                "--load", f"t:{latin1_csv}:a:int64,s:text",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == self.LATIN1_ERR + "\n"

    def test_non_utf8_repl_load_is_storage_error(
        self, latin1_csv, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"\\load t {latin1_csv} a:int64,s:text\n")
        )
        assert main(["repl"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [self.LATIN1_ERR]
        assert captured.err == ""


class TestSql:
    def _argv(self, csv_t, query, *extra):
        return [
            "sql", query,
            "--load", f"t:{csv_t}:{SCHEMA_T}", "--header",
            *extra,
        ]

    def test_count(self, csv_t, capsys):
        rc = main(self._argv(csv_t, "SELECT COUNT(*) FROM t WHERE amt >= 5.0"))
        assert rc == 0
        assert capsys.readouterr().out == "count: 1\n"

    def test_null_excluded_from_comparison(self, csv_t, capsys):
        rc = main(self._argv(csv_t, "SELECT COUNT(*) FROM t WHERE amt < 100.0"))
        assert rc == 0
        # row 3 has NULL amt
        assert capsys.readouterr().out == "count: 2\n"

    def test_rows_as_csv_with_header(self, csv_t, capsys):
        rc = main(self._argv(csv_t, "SELECT tag, amt FROM t WHERE id <= 2"))
        assert rc == 0
        assert capsys.readouterr().out == "tag,amt\noak,10.50\nelm,3.25\n"

    def test_json_output(self, csv_t, capsys):
        rc = main(
            self._argv(
                csv_t, "SELECT COUNT(*) FROM t WHERE tag = 'oak'",
                "--output", "json",
            )
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert set(payload) == {"count", "time_ms", "overhead_ms"}

    def test_json_rows_and_plan(self, csv_t, capsys):
        rc = main(
            self._argv(
                csv_t, "SELECT id, day FROM t WHERE id = 3",
                "--output", "json", "--explain",
            )
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["id", "day"]
        assert payload["rows"] == [[3, "2024-03-17"]]
        assert "builds" in payload["plan"]

    def test_parse_error_exits_1(self, csv_t, capsys):
        rc = main(self._argv(csv_t, "SELECT COUNT"))
        assert rc == 1
        assert "error [parse]" in capsys.readouterr().err

    def test_unknown_table_exits_1(self, csv_t, capsys):
        rc = main(self._argv(csv_t, "SELECT COUNT(*) FROM ghost"))
        assert rc == 1
        assert "error [analyze]" in capsys.readouterr().err

    def test_parser_reused_without_carrying_loads(self, csv_t, csv_u, capsys):
        rc = main(self._argv(csv_t, "SELECT COUNT(*) FROM t"))
        assert rc == 0 and capsys.readouterr().out == "count: 3\n"
        # the second call's --load list must not still hold the first's t
        rc = main(["sql", "SELECT COUNT(*) FROM t", "--load", f"u:{csv_u}:{SCHEMA_U}"])
        assert rc == 1
        assert capsys.readouterr().err == "error [analyze]: unknown table 't'\n"

    def test_bad_load_spec_exits_2(self, capsys):
        rc = main(["sql", "SELECT COUNT(*) FROM t", "--load", "t-no-colons"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["sql", "SELECT 1"], ["batch", "q.sql"], ["repl"]],
        ids=["sql", "batch", "repl"],
    )
    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--workers", "-4"], "workers must be >= 1, got -4"),
        ],
        ids=["workers-0", "workers-neg"],
    )
    def test_out_of_range_planner_flag_exits_2(
        self, capsys, monkeypatch, command, flag, message
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main([*command, *flag])
        assert rc == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestJoinFlags:
    def _argv(self, csv_t, csv_u, *extra):
        return [
            "sql",
            "SELECT COUNT(*) FROM t, u WHERE id = cid AND amt >= 5.0",
            "--load", f"t:{csv_t}:{SCHEMA_T}",
            "--load", f"u:{csv_u}:{SCHEMA_U}",
            "--header",  # t has one; u is headerless but --header is global
            *extra,
        ]

    @pytest.fixture
    def csv_u_hdr(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("cid,cat\n" + CSV_U)
        return str(p)

    def test_esc_pushdown_visible_in_explain(self, csv_t, csv_u_hdr, capsys):
        rc = main(self._argv(csv_t, csv_u_hdr, "--explain"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "ESC table=t count=1" in out
        assert "pushdown=true" in out
        assert "Build t=temp(rows=1)" in out
        assert out.endswith("count: 1\n")

    def test_esc_off_same_count_no_esc_lines(self, csv_t, csv_u_hdr, capsys):
        rc = main(self._argv(csv_t, csv_u_hdr, "--arm", "baseline", "--explain"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "ESC table=" not in out
        assert out.endswith("count: 1\n")

    def test_histogram_estimator_disables_subqueries(
        self, csv_t, csv_u_hdr, capsys
    ):
        rc = main(self._argv(csv_t, csv_u_hdr, "--arm", "histogram", "--explain"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "ESC table=" not in out
        assert out.endswith("count: 1\n")

    def test_constant_past_float_range_same_count_on_both_arms(
        self, csv_t, csv_u_hdr, capsys
    ):
        # the histogram arm compares the exact int with its boundaries, so
        # t's filter keeps every row instead of taking the guess
        sql = "SELECT COUNT(*) FROM t, u WHERE id = cid AND id <= 1" + "0" * 400
        for arm in ["esc", "histogram"]:
            argv = self._argv(csv_t, csv_u_hdr, "--arm", arm, "--explain")
            argv[1] = sql
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.endswith("count: 3\n")
        (build_t,) = [line for line in out.splitlines() if "Build t=" in line]
        assert build_t.endswith(" sel=1.000000")

    def test_workers_flag_accepted(self, csv_t, csv_u_hdr, capsys):
        rc = main(self._argv(csv_t, csv_u_hdr, "--workers", "4"))
        assert rc == 0
        assert capsys.readouterr().out == "count: 1\n"


class TestBatch:
    def test_runs_all_statements(self, tmp_path, csv_t, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "SELECT COUNT(*) FROM t WHERE tag = 'oak';\n"
            "SELECT COUNT(*) FROM t WHERE tag = 'a;b';\n"
        )
        rc = main(
            [
                "batch", str(script),
                "--load", f"t:{csv_t}:{SCHEMA_T}", "--header",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "count: 2\ncount: 0\n"

    def test_semicolon_in_comment_does_not_cut(self, tmp_path, csv_t, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "SELECT COUNT(*) FROM t -- note; more\n;\n"
            "SELECT COUNT(*) FROM t WHERE tag = 'oak';\n"
        )
        rc = main(
            [
                "batch", str(script),
                "--load", f"t:{csv_t}:{SCHEMA_T}", "--header",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "count: 3\ncount: 2\n"

    def test_apostrophe_in_comment_does_not_merge(self, tmp_path, csv_t, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "SELECT COUNT(*) FROM t; -- it's\n"
            "SELECT COUNT(*) FROM t WHERE tag = 'oak';\n"
            "SELECT COUNT(*) FROM t WHERE tag = 'elm';\n"
            "-- done\n"
        )
        rc = main(
            [
                "batch", str(script),
                "--load", f"t:{csv_t}:{SCHEMA_T}", "--header",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "count: 3\ncount: 2\ncount: 1\n"

    def test_error_stops_batch(self, tmp_path, csv_t, capsys):
        script = tmp_path / "q.sql"
        script.write_text("SELECT COUNT(*) FROM t; SELECT COUNT(*) FROM ghost;")
        rc = main(
            [
                "batch", str(script),
                "--load", f"t:{csv_t}:{SCHEMA_T}", "--header",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "count: 3\n"
        assert "error [analyze]" in captured.err


    def test_non_utf8_script_is_io_error(self, tmp_path, csv_t, capsys):
        script = tmp_path / "q.sql"
        script.write_bytes(
            "SELECT COUNT(*) FROM t;\n-- café\nSELECT COUNT(*) FROM t;\n".encode(
                "latin-1"
            )
        )
        rc = main(
            [
                "batch", str(script),
                "--load", f"t:{csv_t}:{SCHEMA_T}", "--header",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [io]: {script}: line 2: byte 0xe9 is not valid utf-8 "
            "(invalid continuation byte)\n"
        )

    def test_missing_script_reported_before_loads(self, tmp_path, capsys):
        script = tmp_path / "missing.sql"
        rc = main(
            [
                "batch", str(script),
                "--load", f"t:{tmp_path / 'missing.csv'}:{SCHEMA_T}",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error [io]: ") and str(script) in line
        assert "missing.csv" not in line


class TestRepl:
    def test_session(self, csv_t, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                f"\\load t {csv_t} {SCHEMA_T}\n"
                "\n"
                "SELECT COUNT(*) FROM t;\n"
                "SELECT COUNT(*) FROM ghost;\n"
                "SELECT BOGUS\n"
                "exit\n"
            ),
        )
        rc = main(["repl", "--header"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "escdb repl" in out
        assert "loaded t: 3 rows" in out
        assert "count: 3" in out
        assert "error [analyze]" in out  # recoverable
        assert "error [parse]" in out

    def test_comment_only_line_prints_nothing(self, csv_t, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                f"\\load t {csv_t} {SCHEMA_T}\n"
                "-- just a note\n"
                "SELECT COUNT(*) FROM t; -- trailing note\n"
            ),
        )
        assert main(["repl", "--header"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines[:2] == ["loaded t: 3 rows", "count: 3"]
        assert len(lines) == 3 and lines[2].endswith(" ms)")

    def test_statements_on_one_line_run_each(self, csv_t, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                f"\\load t {csv_t} {SCHEMA_T}\n"
                "SELECT COUNT(*) FROM t; SELECT COUNT(*) FROM ghost; "
                "SELECT COUNT(*) FROM t WHERE tag = 'oak'\n"
            ),
        )
        assert main(["repl", "--header"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line for line in lines if not line.endswith(" ms)")] == [
            "loaded t: 3 rows",
            "count: 3",
            "error [analyze]: unknown table 'ghost'",
            "count: 2",
        ]
        assert len(lines) == 6

    def test_load_usage_error_recoverable(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\\load nope\nquit\n")
        )
        rc = main(["repl"])
        assert rc == 0
        assert "error [cli]: usage: \\load TABLE PATH SCHEMA" in (
            capsys.readouterr().out
        )

    def test_bad_load_is_one_error_line_and_continues(
        self, tmp_path, csv_t, capsys, monkeypatch
    ):
        missing = tmp_path / "missing.csv"
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                f"\\load t {csv_t} a\n"
                f"\\load t {missing} a:int64\n"
                f"\\load t {csv_t} {SCHEMA_T}\n"
                "SELECT COUNT(*) FROM t\n"
            ),
        )
        rc = main(["repl", "--header"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()[1:]
        assert lines[0] == "error [cli]: bad schema item 'a' (expected name:kind)"
        assert lines[1] == (
            f"error [io]: [Errno 2] No such file or directory: '{missing}'"
        )
        assert lines[2:4] == ["loaded t: 3 rows", "count: 3"]
        assert captured.err == ""


class TestBench:
    def test_tpch4_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "rep.json"
        rc = main(
            [
                "bench", "tpch4",
                "--scale", "0.002", "--reps", "1",
                "--out", str(out_path), "--output", "json",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["suite"] == "tpch4"
        assert payload["spec"] == {
            "benchmark": "tpch_subset", "scale": 0.002, "seed": 42,
        }
        assert len(payload["rows"]) == 8
        assert json.loads(out_path.read_text()) == payload
        assert "report written" in captured.err

    def test_text_output(self, capsys):
        rc = main(["bench", "overhead-attrs", "--scale", "0.001", "--reps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("suite: overhead-attributes")
        assert "overhead max/min ratio:" in out

    def test_zero_reps_is_usage_error(self, capsys):
        rc = main(["bench", "tpch4", "--scale", "0.002", "--reps", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "usage error: --reps must be at least 1, got 0\n"

    def test_zero_workers_is_usage_error(self, capsys):
        rc = main(["bench", "tpch4", "--scale", "0.002", "--workers", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "usage error: --workers must be at least 1, got 0\n"

    def test_negative_seed_is_usage_error(self, capsys):
        rc = main(["bench", "tpch4", "--scale", "0.002", "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "usage error: --seed must be at least 0, got -1\n"

    @pytest.mark.parametrize("scale", ["nan", "inf", "0"])
    def test_non_finite_or_zero_scale_is_one_error_line(self, capsys, scale):
        rc = main(["bench", "tpch4", "--scale", scale, "--reps", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error [engine]: scale must be a finite positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "suite,scale", [("tpch4", "1e308"), ("ssb", "1e300")]
    )
    def test_overflowing_scale_is_one_error_line(self, capsys, suite, scale):
        rc = main(["bench", suite, "--scale", scale, "--reps", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [engine]: scale {float(scale)} yields ")
        assert err.endswith("(more than int64 holds)\n")
        assert err.count("\n") == 1

    def test_scale_for_overhead_scale_is_usage_error(self, capsys):
        rc = main(["bench", "overhead-scale", "--scale", "0.5", "--reps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "usage error: --scale does not apply to overhead-scale\n"

    def test_unknown_suite_is_argparse_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
