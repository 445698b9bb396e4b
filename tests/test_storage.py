import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escdb.errors import (
    CsvError,
    EmptySchema,
    LengthMismatch,
    StorageError,
    TypeMismatch,
)
from escdb.storage import (
    NULL_TOKEN,
    Column,
    ColumnTable,
    Dictionary,
    KIND_DATE,
    KIND_INT64,
    KIND_TEXT,
    date_to_days,
    days_to_date,
    decimal,
    dump_csv,
    format_decimal,
    load_csv,
    parse_decimal_scaled,
    parse_kind,
)

from oracles import append_rows


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

    @pytest.mark.parametrize("text", ["20200101", "2020-W01-1", "2020-01", " 2020-01-01"])
    def test_date_only_in_yyyy_mm_dd_form(self, text):
        with pytest.raises(TypeMismatch, match="bad DATE literal"):
            date_to_days(text)

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
        codes = d.encode_all(words).tolist()
        assert codes == [0, 1, 0, 2, 1]
        assert [d.decode(c) for c in codes] == words
        assert len(d) == 3
        assert d.encode_all(["fir", "ash"]).tolist() == [2, 3]

    def test_lookup_never_inserts(self):
        d = Dictionary()
        d.encode_all(["oak"])
        assert d.lookup("elm") is None
        assert len(d) == 1

    def test_ranked_sorts_and_follows_growth(self):
        d = Dictionary()
        d.encode_all(["oak", "elm", "Oak", ""])
        sorted_strings, rank = d.ranked()
        assert sorted_strings == ["", "Oak", "elm", "oak"]
        assert rank.tolist() == [3, 2, 1, 0]
        assert d.ranked()[1] is rank  # unchanged dictionary: not rebuilt
        d.encode_all(["fir", "oak"])
        sorted_strings, rank = d.ranked()
        assert sorted_strings == ["", "Oak", "elm", "fir", "oak"]
        assert [sorted_strings[r] for r in rank] == [d.decode(c) for c in range(5)]


class TestTableBuild:
    SCHEMA = [
        ("id", KIND_INT64),
        ("when", KIND_DATE),
        ("tag", KIND_TEXT),
        ("amt", decimal(15, 2)),
    ]

    def test_read_back(self):
        text = "1,2024-01-05,alpha,10.50\n2,2024-02-11,beta,-3.25\n"
        t = load_csv(text, "t", self.SCHEMA)
        assert t.row_count == 2
        assert t.row(0) == (1, "2024-01-05", "alpha", "10.50")
        assert t.row(1) == (2, "2024-02-11", "beta", "-3.25")

    def test_nulls(self):
        t = load_csv("\\N,\\N,\\N,\\N\n", "t", self.SCHEMA)
        assert t.row(0) == (None, None, None, None)

    def test_arity_mismatch_cites_row(self):
        with pytest.raises(CsvError, match="row 2: expected 4 fields"):
            load_csv("1,2024-01-05,a,1.00\n2,2024-01-06,b\n", "t", self.SCHEMA)

    def test_type_mismatch_cites_row(self):
        with pytest.raises(CsvError, match="row 1, column 'id': expected INT64"):
            load_csv("x,2024-01-05,a,1.00\n", "t", self.SCHEMA)

    def test_empty_schema_rejected(self):
        with pytest.raises(EmptySchema):
            ColumnTable("t", [])

    def test_length_mismatch_rejected(self):
        a = Column("a", KIND_INT64, np.zeros(2, np.int64), np.zeros(2, bool))
        b = Column("b", KIND_INT64, np.zeros(3, np.int64), np.zeros(3, bool))
        with pytest.raises(LengthMismatch):
            ColumnTable("t", [a, b])

    def test_text_take_shares_dictionary(self):
        t = load_csv("oak\nelm\noak\n", "t", [("tag", KIND_TEXT)])
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
        "rows,column",
        [
            (["1,2024-01-05,a,1.00", "9223372036854775808,2024-01-05,b,1.00"], "id"),
            (["1,2024-01-05,a,1.00", "-9223372036854775809,2024-01-05,b,1.00"], "id"),
            # scaled by 100: past int64
            (["1,2024-01-05,a,1.00", "1,2024-01-05,b,92233720368547758.08"], "amt"),
            # row 1's amt has 17 digits, past the precision of 15
            (["1,2024-01-05,a,100000000000000.00", "9223372036854775808,2024-01-05,b,1.00"], "id"),
            (
                ["1,2024-01-05,a,1.00", "2,2024-01-05,b,92233720368547758.08",
                 "9223372036854775808,2024-01-05,c,1.00"],
                "amt",
            ),
        ],
        ids=[
            "9223372036854775808-1.00-id", "-9223372036854775809-1.00-id",
            "1-92233720368547758.08-amt", "before an earlier row's precision",
            "the earlier row before the earlier column",
        ],
    )
    def test_out_of_int64_range_cites_row_and_column(self, rows, column):
        text = "".join(f"{row}\n" for row in rows)
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

    @pytest.mark.parametrize("day", ["20240105", "2024-W01-5"])
    def test_date_only_in_yyyy_mm_dd_form(self, day):
        with pytest.raises(CsvError) as exc:
            load_csv(f"1,2024-01-05,a,1.00\n2,{day},b,1.00\n", "t", self.SCHEMA)
        assert str(exc.value) == (
            f"table 't': row 2, column 'when': bad DATE literal '{day}': "
            f"Invalid isoformat string: '{day}'"
        )

    def test_decimal_digit_that_int_rejects(self):
        # '\u00b2' (superscript two) is a digit to str.isdigit, not to int()
        with pytest.raises(CsvError, match="row 1, column 'amt': bad DECIMAL"):
            load_csv("1,2024-01-05,a,1.\u00b2\n", "t", self.SCHEMA)

    @pytest.mark.parametrize(
        "head,line",
        [
            (b"", 1),
            (b'1,"two\nlines"\n', 3),
            # past the text stream's first decoded chunk (8 KiB)
            (b"".join(b"%d,abc\n" % i for i in range(5000)), 5001),
        ],
        ids=["first line", "after a quoted newline", "past the first chunk"],
    )
    def test_undecodable_byte_cites_line(self, head, line):
        data = head + b"7,caf\xe9\n8,x\n"
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        with pytest.raises(CsvError) as exc:
            load_csv(stream, "t", [("id", KIND_INT64), ("s", KIND_TEXT)])
        assert str(exc.value) == (
            f"t: line {line}: byte 0xe9 is not valid utf-8 "
            "(invalid continuation byte)"
        )

    def test_dump_header(self):
        t = load_csv(CSV, "t", self.SCHEMA)
        assert dump_csv(t, include_header=True).splitlines()[0] == "id,when,tag,amt"


# ---------------------------------------------------------------------------
# Column-at-a-time loading against the per-cell path
# ---------------------------------------------------------------------------

INT64_MAX = 2**63 - 1
# whitespace that str.strip() removes; int() does not strip \x1c-\x1f
PAD = st.text(alphabet=" \t\x1c\x1f\xa0\u2003", max_size=2)


def _padded(cells):
    return st.tuples(PAD, cells, PAD).map("".join)


# Each kind's cells as three strategies: the form dump_csv writes, other
# forms the loader accepts (or None), and forms it may reject (or None).


def _int64_cells(kind):
    return (
        st.one_of(
            st.integers(-(2**63), INT64_MAX).map(str),
            st.integers(-50, 50).map(str),
            st.sampled_from([str(INT64_MAX), str(-(2**63))]),
        ),
        st.one_of(
            _padded(st.integers(-50, 50).map(str)),
            st.sampled_from(["+7", "-0", "٣"]),
        ),
        st.sampled_from([
            str(2**63), str(-(2**63) - 1), "", "x", "1.5", "1_000", "²", "1\n2",
        ]),
    )


def _decimal_cells(kind):
    top, scale = 10**kind.precision, kind.scale
    whole = st.integers(0, 10 ** (kind.precision - scale) - 1)
    return (
        st.integers(-top + 1, top - 1).map(lambda v: format_decimal(v, scale)),
        st.one_of(
            whole.map(lambda v: f"+{v}"),
            whole.map(lambda v: f"{v}."),
            whole.map(lambda v: f"-{v}.{'5' * (scale - 1)}"),
            _padded(whole.map(str)),
            st.just("٠"),
        ),
        st.one_of(
            # over-precision, and past int64 once scaled
            st.integers(top, 10 * top).map(lambda v: format_decimal(v, scale)),
            st.just(f"92233720368547758.{'0' * scale}08"),
            # surplus fractional digits, in the dumped form
            st.integers(-999, 999).map(lambda v: format_decimal(v, scale + 1)),
            st.sampled_from(["", ".", "-", "1..2", "1e3", "1.²", "1\n2"]),
        ),
    )


def _date_cells(kind):
    return (
        st.dates().map(lambda d: d.isoformat()),
        None,
        st.sampled_from([
            "20200101", "2020-W01-1", "2020-01", "2020-1-1", "2020-13-01",
            "2020-02-30", " 2020-01-01", "0000-01-01", "\uff12020-01-01",
            "2020-01-01\n2020-01-02",
        ]),
    )


def _text_cells(kind):
    # every string is a TEXT value
    return (
        st.sampled_from(["oak", "elm", "fir", ""]),
        st.text(alphabet='ab,"\n \\N', max_size=3),
        None,
    )


CELLS = {"INT64": _int64_cells, "DATE": _date_cells, "TEXT": _text_cells,
         "DECIMAL": _decimal_cells}


@st.composite
def kinds(draw):
    name = draw(st.sampled_from(sorted(CELLS)))
    if name != "DECIMAL":
        return parse_kind(name)
    precision = draw(st.integers(1, 18))
    return decimal(precision, draw(st.integers(0, precision)))


@st.composite
def batches(draw):
    """(schema, rows): rows of cells the loader accepts, in some columns
    only in the form dump_csv writes, with up to two cells it may reject
    put in, and now and then a row one cell short or long.  One bad cell
    among good ones is what the column checks must catch on their own."""
    schema = [
        (f"c{i}", k)
        for i, k in enumerate(draw(st.lists(kinds(), min_size=1, max_size=4)))
    ]
    cells = [CELLS[kind.name](kind) for _, kind in schema]
    good = [
        st.one_of(plain, st.just(NULL_TOKEN))
        if other is None or draw(st.booleans())
        else st.one_of(plain, other, st.just(NULL_TOKEN))
        for plain, other, _ in cells
    ]
    rows = draw(st.lists(st.tuples(*good).map(list), max_size=12))
    checked = [cix for cix, (_, _, bad) in enumerate(cells) if bad is not None]
    if rows and checked:
        for _ in range(draw(st.integers(0, 2))):
            cix = draw(st.sampled_from(checked))
            rows[draw(st.integers(0, len(rows) - 1))][cix] = draw(cells[cix][2])
    if rows and draw(st.integers(0, 7)) == 0:
        row = draw(st.sampled_from(rows))
        row.append("1") if draw(st.booleans()) else row.pop()
    return schema, rows


def _outcome(fn, *args, **kwargs):
    """The table ``fn`` builds, or the type and text of what it raises."""
    try:
        return fn(*args, **kwargs)
    except (StorageError, ValueError) as exc:
        return type(exc), str(exc)


def _table_state(t):
    if isinstance(t, tuple):
        return t
    return [
        (c.name, c.kind, c.values.tolist(), c.null_mask.tolist(),
         c.dictionary.strings() if c.kind.is_text else None)
        for c in t.columns
    ]


def _load_per_cell(text, name, schema, has_header=False):
    """``load_csv`` one cell at a time: the reference for the loader."""
    rows = []
    for lineno, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if has_header and lineno == 1:
            continue
        if len(record) != len(schema):
            raise CsvError(
                f"{name}: row {lineno}: expected {len(schema)} fields, got {len(record)}"
            )
        rows.append([None if cell == NULL_TOKEN else cell for cell in record])
    try:
        return append_rows(
            ColumnTable.empty(name, schema), rows, 2 if has_header else 1
        )
    except TypeMismatch as exc:
        raise CsvError(str(exc)) from exc


def _dump_per_cell(table):
    """``dump_csv`` one cell at a time: the reference for the dumper."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i in range(table.row_count):
        writer.writerow(
            [NULL_TOKEN if v is None else str(v) for v in table.row(i)]
        )
    return out.getvalue()


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


class TestColumnarLoad:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(batch=batches(), has_header=st.booleans())
    def test_load_csv_matches_per_cell(self, batch, has_header):
        schema, rows = batch
        text = _csv_text(([[n for n, _ in schema]] if has_header else []) + rows)
        got = _outcome(load_csv, text, "t", schema, has_header=has_header)
        want = _outcome(_load_per_cell, text, "t", schema, has_header=has_header)
        assert _table_state(got) == _table_state(want)
        if isinstance(got, ColumnTable):
            dumped = dump_csv(got)
            assert dumped == _dump_per_cell(got)
            again = load_csv(dumped, "t", schema)
            assert _table_state(again) == _table_state(got)
            assert dump_csv(again) == dumped

    def test_dump_matches_per_cell(self, tpch_small, custom_nulls):
        for t in [*tpch_small.values(), custom_nulls]:
            dumped = dump_csv(t)
            assert dumped == _dump_per_cell(t)
            # the generator's dictionaries need not be in first-appearance order
            assert dump_csv(load_csv(dumped, t.name, t.schema)) == dumped
