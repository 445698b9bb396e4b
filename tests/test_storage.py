import numpy as np
import pytest

from escdb.errors import (
    ArityMismatch,
    CsvError,
    EmptySchema,
    LengthMismatch,
    TypeMismatch,
)
from escdb.storage import (
    Column,
    ColumnTable,
    Dictionary,
    KIND_DATE,
    KIND_INT64,
    KIND_TEXT,
    append_rows,
    date_to_days,
    days_to_date,
    decimal,
    dump_csv,
    format_decimal,
    load_csv,
    parse_decimal_scaled,
    parse_kind,
)


def _empty(name, schema):
    return ColumnTable.empty(name, schema)


class TestKinds:
    def test_parse_kind_round_trip(self):
        for spec in [
            "INT64", "DATE", "TEXT", "DECIMAL(15,2)", "DECIMAL(9,0)",
            "DECIMAL(1,0)", "DECIMAL(18,18)",
        ]:
            assert str(parse_kind(spec)) == spec

    def test_parse_kind_case_insensitive(self):
        assert parse_kind("int64") is KIND_INT64
        assert parse_kind("decimal(15,2)") == decimal(15, 2)

    def test_unknown_kind(self):
        with pytest.raises(TypeMismatch):
            parse_kind("varchar(10)")

    @pytest.mark.parametrize(
        "spec",
        [
            "decimal(5,-1)", "decimal(2,5)", "decimal(40,2)", "decimal(0,0)",
            "decimal(19,0)",
        ],
    )
    def test_decimal_precision_and_scale_bounds(self, spec):
        with pytest.raises(TypeMismatch, match="precision"):
            parse_kind(spec)

    def test_decimal_flags(self):
        k = decimal(15, 2)
        assert k.is_decimal and not k.is_text
        assert k.precision == 15 and k.scale == 2


class TestScalars:
    def test_date_round_trip(self):
        assert date_to_days("1970-01-01") == 0
        assert date_to_days("1992-01-01") == 8035  # (1992-01-01 - epoch).days
        assert days_to_date(date_to_days("1998-08-02")) == "1998-08-02"

    def test_bad_date(self):
        with pytest.raises(TypeMismatch):
            date_to_days("1998-13-40")

    def test_decimal_parse(self):
        assert parse_decimal_scaled("12.34", 2) == 1234
        assert parse_decimal_scaled("-0.5", 2) == -50
        assert parse_decimal_scaled("7", 2) == 700

    def test_decimal_excess_digits(self):
        with pytest.raises(TypeMismatch):
            parse_decimal_scaled("1.234", 2)

    def test_decimal_format(self):
        assert format_decimal(1234, 2) == "12.34"
        assert format_decimal(-50, 2) == "-0.50"
        assert format_decimal(7, 0) == "7"

    def test_decimal_round_trip(self):
        for text in ["0.00", "12.34", "-99.99", "123456.01"]:
            assert format_decimal(parse_decimal_scaled(text, 2), 2) == text


class TestDictionary:
    def test_bijection(self):
        d = Dictionary()
        words = ["oak", "elm", "oak", "fir", "elm"]
        codes = [d.encode(w) for w in words]
        assert codes == [0, 1, 0, 2, 1]
        assert [d.decode(c) for c in codes] == words
        assert len(d) == 3

    def test_lookup_never_inserts(self):
        d = Dictionary()
        d.encode("oak")
        assert d.lookup("elm") is None
        assert len(d) == 1


class TestTableBuild:
    SCHEMA = [
        ("id", KIND_INT64),
        ("when", KIND_DATE),
        ("tag", KIND_TEXT),
        ("amt", decimal(15, 2)),
    ]

    def test_append_and_read_back(self):
        t = append_rows(
            _empty("t", self.SCHEMA),
            [
                ["1", "2024-01-05", "alpha", "10.50"],
                ["2", "2024-02-11", "beta", "-3.25"],
            ],
        )
        assert t.row_count == 2
        assert t.row(0) == (1, "2024-01-05", "alpha", "10.50")
        assert t.row(1) == (2, "2024-02-11", "beta", "-3.25")

    def test_nulls(self):
        t = append_rows(
            _empty("t", self.SCHEMA), [[None, None, None, None]]
        )
        assert t.row(0) == (None, None, None, None)

    def test_arity_mismatch_cites_row(self):
        with pytest.raises(ArityMismatch, match="row 2"):
            append_rows(
                _empty("t", self.SCHEMA),
                [["1", "2024-01-05", "a", "1.00"], ["2", "2024-01-06", "b"]],
            )

    def test_type_mismatch_cites_row(self):
        with pytest.raises(TypeMismatch, match="row 1"):
            append_rows(_empty("t", self.SCHEMA), [["x", "2024-01-05", "a", "1.00"]])

    def test_empty_schema_rejected(self):
        with pytest.raises(EmptySchema):
            ColumnTable("t", [])

    def test_length_mismatch_rejected(self):
        a = Column("a", KIND_INT64, np.zeros(2, np.int64), np.zeros(2, bool))
        b = Column("b", KIND_INT64, np.zeros(3, np.int64), np.zeros(3, bool))
        with pytest.raises(LengthMismatch):
            ColumnTable("t", [a, b])

    def test_text_take_shares_dictionary(self):
        t = append_rows(
            _empty("t", [("tag", KIND_TEXT)]), [["oak"], ["elm"], ["oak"]]
        )
        col = t.column("tag")
        taken = col.take(np.array([2, 0]))
        assert taken.dictionary is col.dictionary
        assert [taken.decode_value(i) for i in range(2)] == ["oak", "oak"]


CSV = "1,2024-01-05,alpha,10.50\n2,2024-02-11,beta,-3.25\n3,\\N,alpha,\\N\n"


class TestCsv:
    SCHEMA = TestTableBuild.SCHEMA

    def test_load_and_dump_round_trip(self):
        t = load_csv(CSV, "t", self.SCHEMA)
        assert t.row_count == 3
        assert t.row(2) == (3, None, "alpha", None)
        assert dump_csv(t) == CSV

    def test_header_skipped(self):
        t = load_csv("id,when,tag,amt\n" + CSV, "t", self.SCHEMA, has_header=True)
        assert t.row_count == 3

    def test_quoted_field_with_comma(self):
        t = load_csv('1,2024-01-05,"a,b",1.00\n', "t", self.SCHEMA)
        assert t.row(0)[2] == "a,b"

    def test_malformed_cites_line(self):
        with pytest.raises(CsvError, match="row 2"):
            load_csv("1,2024-01-05,a,1.00\n2,nonsense,b,2.00\n", "t", self.SCHEMA)

    @pytest.mark.parametrize(
        "id_cell,amt_cell,column",
        [
            ("9223372036854775808", "1.00", "id"),
            ("-9223372036854775809", "1.00", "id"),
            ("1", "92233720368547758.08", "amt"),  # scaled by 100: past int64
        ],
    )
    def test_out_of_int64_range_cites_row_and_column(self, id_cell, amt_cell, column):
        text = f"1,2024-01-05,a,1.00\n{id_cell},2024-01-05,b,{amt_cell}\n"
        with pytest.raises(CsvError, match=f"row 2, column '{column}'.*int64"):
            load_csv(text, "t", self.SCHEMA)

    @pytest.mark.parametrize("amt_cell", ["123456.78", "-1000.00", "10000"])
    def test_decimal_over_precision_cites_row_and_column(self, amt_cell):
        schema = [("id", KIND_INT64), ("amt", decimal(3, 2))]
        text = f"1,9.99\n2,\\N\n3,{amt_cell}\n"
        with pytest.raises(CsvError, match="row 3, column 'amt'.*more than 3 digits"):
            load_csv(text, "t", schema)

    def test_decimal_at_precision_loads(self):
        schema = [("amt", decimal(3, 2))]
        t = load_csv("9.99\n-9.99\n\\N\n", "t", schema)
        assert [t.row(i)[0] for i in range(3)] == ["9.99", "-9.99", None]
        t = load_csv("999999999999999999\n", "t", [("amt", decimal(18, 0))])
        assert t.row(0)[0] == "999999999999999999"

    def test_int64_extremes_load(self):
        text = "9223372036854775807,\\N,a,\\N\n-9223372036854775808,\\N,b,\\N\n"
        t = load_csv(text, "t", self.SCHEMA)
        assert [t.row(i)[0] for i in range(2)] == [2**63 - 1, -(2**63)]

    def test_dump_header(self):
        t = load_csv(CSV, "t", self.SCHEMA)
        assert dump_csv(t, include_header=True).splitlines()[0] == "id,when,tag,amt"
