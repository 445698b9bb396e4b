import random

import pytest

from escdb import expr as ex
from escdb import frontend as fe
from escdb.catalog import Catalog
from escdb.errors import (
    AmbiguousColumn,
    AnalysisError,
    ArityMismatch,
    ParseError,
    TypeMismatch,
    UnknownColumn,
    UnknownFunction,
    UnknownTable,
    UnsupportedConstruct,
    UnsupportedPredicate,
)
from escdb.storage import (
    ColumnTable,
    KIND_DATE,
    KIND_INT64,
    KIND_TEXT,
    append_rows,
    decimal,
)


def _table(name, schema, rows):
    return append_rows(ColumnTable.empty(name, schema), rows)


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    cat.register(
        _table(
            "items",
            [
                ("id", KIND_INT64),
                ("qty", KIND_INT64),
                ("tag", KIND_TEXT),
                ("price", decimal(15, 2)),
                ("shipped", KIND_DATE),
            ],
            [
                ["1", "10", "oak", "10.50", "2024-01-05"],
                ["2", "20", "elm", "3.25", "2024-02-11"],
                ["3", "30", "oak", "8.00", "2024-03-17"],
            ],
        )
    )
    cat.register(
        _table(
            "boxes",
            [("id", KIND_INT64), ("item_id", KIND_INT64), ("weight", KIND_INT64)],
            [["1", "1", "5"], ["2", "3", "7"]],
        )
    )
    cat.register_udf("half", 1, lambda a: a / 2.0)
    return cat


class TestTokenizer:
    def test_positions(self):
        toks = fe.tokenize("SELECT *\nFROM t")
        assert [t.offset for t in toks] == [0, 7, 9, 14, 15]

    def test_comments_skipped(self):
        toks = fe.tokenize("SELECT -- everything\n1")
        assert [t.text for t in toks if t.type != "eof"] == ["SELECT", "1"]

    def test_string_escape(self):
        toks = fe.tokenize("'it''s'")
        assert toks[0].type == "string" and toks[0].text == "'it''s'"

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            fe.tokenize("SELECT 'oops")

    def test_bad_character(self):
        with pytest.raises(ParseError, match="line 1"):
            fe.tokenize("SELECT @")


class TestParser:
    def test_three_table_shape(self):
        q = fe.parse(
            "SELECT a.x, b.y FROM ta AS a, tb b, tc "
            "WHERE a.k = b.k AND b.j = tc.j AND a.x < 5"
        )
        assert q.select_kind == fe.COLUMNS
        assert [t.alias for t in q.tables] == ["a", "b", "tc"]
        assert len(ex.conjuncts(q.where)) == 3

    def test_count_star(self):
        q = fe.parse("SELECT COUNT(*) FROM t")
        assert q.select_kind == fe.COUNT_STAR and q.where is None

    def test_star(self):
        assert fe.parse("SELECT * FROM t").select_kind == fe.STAR

    def test_between_both_forms(self):
        a = fe.parse("SELECT * FROM t WHERE x BETWEEN 1 AND 5")
        b = fe.parse("SELECT * FROM t WHERE x BETWEEN (1, 5)")
        assert a.where == b.where

    def test_or_not_precedence(self):
        q = fe.parse("SELECT * FROM t WHERE NOT a = 1 AND b = 2 OR c = 3")
        # OR binds loosest, NOT tightest: ((NOT a=1) AND b=2) OR c=3
        assert isinstance(q.where, ex.Or)
        left = q.where.items[0]
        assert isinstance(left, ex.And)
        assert isinstance(left.items[0], ex.Not)

    def test_trailing_semicolon_ok(self):
        fe.parse("SELECT * FROM t;")

    def test_error_cites_position(self):
        with pytest.raises(ParseError, match=r"line 1, column"):
            fe.parse("SELECT * WHERE x = 1")

    @pytest.mark.parametrize(
        "sql, name",
        [
            ("SELECT * FROM t GROUP BY x", "GROUP BY"),
            ("SELECT * FROM t ORDER BY x", "ORDER BY"),
            ("SELECT * FROM t LIMIT 5", "LIMIT"),
            ("SELECT * FROM a JOIN b", "JOIN"),
            ("SELECT DISTINCT x FROM t", "DISTINCT"),
            ("SELECT * FROM t UNION SELECT * FROM u", "UNION"),
        ],
    )
    def test_unsupported_named(self, sql, name):
        with pytest.raises(UnsupportedConstruct, match=name):
            fe.parse(sql)

    def test_subquery_rejected(self):
        with pytest.raises(UnsupportedConstruct, match="subquer"):
            fe.parse("SELECT * FROM (SELECT * FROM t)")
        # in WHERE position there is no special-casing: '(' is simply
        # not a valid comparand
        with pytest.raises(ParseError, match="expected a constant"):
            fe.parse("SELECT * FROM t WHERE x = (SELECT y FROM u)")

    def test_date_literal(self):
        q = fe.parse("SELECT * FROM t WHERE d = DATE '2024-01-05'")
        const = q.where.value
        assert const.kind == "date" and const.text == "2024-01-05"


class TestRenderRoundTrip:
    """parse(render(q)) == q over a generated corpus."""

    OPS = ["=", "<", "<=", ">", ">=", "<>"]

    def _random_pred(self, rng, depth=0):
        kind = rng.randrange(8 if depth < 2 else 5)
        col = ex.ColumnRef(rng.choice([None, "t"]), rng.choice("abcd"))
        if kind == 0:
            return ex.Comparison(col, rng.choice(self.OPS),
                                 fe.AstConst("number", str(rng.randrange(-9, 100))))
        if kind == 1:
            return ex.Comparison(col, rng.choice(self.OPS),
                                 fe.AstConst("string", "x'y"))
        if kind == 2:
            return ex.Range(col, fe.AstConst("date", "2024-01-05"),
                            fe.AstConst("number", "9.5"))
        if kind == 3:
            return ex.FnCall(
                "f", (col, ex.ColumnRef("v", "e")), "<", fe.AstConst("number", "3")
            )
        if kind == 4:
            other = ex.ColumnRef(rng.choice([None, "v"]), rng.choice("abcd"))
            return ex.ColumnCompare(col, rng.choice(self.OPS), other)
        if kind == 5:
            return ex.Not(self._random_pred(rng, depth + 1))
        if kind == 6:
            return ex.And(tuple(self._random_pred(rng, depth + 1)
                                for _ in range(2)))
        return ex.Or(tuple(self._random_pred(rng, depth + 1)
                           for _ in range(2)))

    def test_round_trip_corpus(self):
        rng = random.Random(11)
        for _ in range(150):
            where = self._random_pred(rng) if rng.random() < 0.9 else None
            select_kind = rng.choice([fe.COUNT_STAR, fe.STAR, fe.COLUMNS])
            select = ()
            if select_kind == fe.COLUMNS:
                select = (ex.ColumnRef(None, "a"), ex.ColumnRef("v", "b"))
            q = fe.AstQuery(
                select_kind,
                select,
                (fe.AstTableRef("t", "t"), fe.AstTableRef("u", "v"))[
                    : rng.randrange(1, 3)
                ],
                where,
            )
            text = fe.render_query(q)
            assert fe.parse(text) == q, text

    def test_round_trip_fixed_queries(self):
        for sql in [
            "SELECT COUNT(*) FROM a, b WHERE a.x = b.y AND a.z < 3",
            "SELECT * FROM t WHERE tag = 'it''s' OR qty BETWEEN 2 AND 4",
            "SELECT t.a, t.b FROM big AS t WHERE NOT (t.a = 1 OR t.b = 2)",
            "SELECT * FROM t WHERE d = DATE '2024-01-05'",
        ]:
            q = fe.parse(sql)
            assert fe.parse(fe.render_query(q)) == q


class TestAnalyze:
    def _graph(self, catalog, sql):
        return fe.analyze(fe.parse(sql), catalog)

    def _pred(self, catalog, sql):
        """The WHERE predicate of a one-table query over items."""
        g = self._graph(catalog, sql)
        assert g.tables == ("items",) and g.edges == ()
        return g.residual("items")

    def test_shape_and_projection(self, catalog):
        g = self._graph(catalog, "SELECT qty, tag FROM items WHERE qty > 15")
        assert isinstance(g, fe.JoinGraph)
        assert [c.name for c in g.projection] == ["qty", "tag"]
        assert g.residual("items") == ex.Comparison(
            ex.ColumnRef("items", "qty"), ">", 15
        )

    def test_star_expands_in_from_order(self, catalog):
        g = self._graph(catalog, "SELECT * FROM boxes, items")
        names = [f"{c.table}.{c.name}" for c in g.projection]
        assert names[:3] == ["boxes.id", "boxes.item_id", "boxes.weight"]
        assert names[3] == "items.id"
        assert [c.kind for c in g.projection[3:5]] == [KIND_INT64, KIND_INT64]

    def test_count_star_has_no_projection(self, catalog):
        g = self._graph(catalog, "SELECT COUNT(*) FROM items")
        assert g.projection is None

    def test_int_compare_resolved(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE qty >= 20")
        assert p == ex.Comparison(ex.ColumnRef("items", "qty"), ">=", 20)

    def test_decimal_constant_scaled(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE price < 10.5")
        assert p.value == 1050

    def test_decimal_inexact_range_stays_exact_via_float(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE price < 10.505")
        assert p.value == pytest.approx(1050.5)

    def test_fractional_equality_on_int_folds_false(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE qty = 10.5")
        assert p == ex.FoldedAtom(ex.ColumnRef("items", "qty"), False)

    def test_fractional_inequality_on_int_folds_true(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE qty <> 10.5")
        assert p == ex.FoldedAtom(ex.ColumnRef("items", "qty"), True)

    def test_date_quoted_string_coerces(self, catalog):
        p1 = self._pred(catalog, "SELECT * FROM items WHERE shipped = '2024-01-05'")
        p2 = self._pred(
            catalog, "SELECT * FROM items WHERE shipped = DATE '2024-01-05'"
        )
        assert p1 == p2
        assert p1.value == 19727  # days since epoch for 2024-01-05

    def test_bad_date_literal(self, catalog):
        with pytest.raises((AnalysisError, TypeMismatch)):
            self._pred(catalog, "SELECT * FROM items WHERE shipped = 'yesterday'")

    def test_text_equality_becomes_code(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE tag = 'oak'")
        assert isinstance(p, ex.Equality)
        assert p.value == 0  # 'oak' was first encoded

    def test_text_absent_constant_folds(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE tag = 'missing'")
        assert p == ex.FoldedAtom(ex.ColumnRef("items", "tag"), False)
        p = self._pred(catalog, "SELECT * FROM items WHERE tag <> 'missing'")
        assert p == ex.FoldedAtom(ex.ColumnRef("items", "tag"), True)

    def test_text_range_keeps_string_payload(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE tag < 'pine'")
        assert isinstance(p, ex.Comparison) and p.value == "pine"

    def test_between_empty_folds_false(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE qty BETWEEN 9 AND 2")
        assert p == ex.FoldedAtom(ex.ColumnRef("items", "qty"), False)

    def test_number_on_text_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            self._pred(catalog, "SELECT * FROM items WHERE tag = 5")

    def test_string_on_int_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            self._pred(catalog, "SELECT * FROM items WHERE qty = 'many'")

    def test_column_compare_kind_mismatch(self, catalog):
        with pytest.raises(AnalysisError):
            self._pred(catalog, "SELECT * FROM items WHERE qty < shipped")

    def test_udf_resolved(self, catalog):
        p = self._pred(catalog, "SELECT * FROM items WHERE half(qty) < 8")
        assert isinstance(p, ex.FnCall)
        assert p.name == "half" and p.fn is not None and p.value == 8.0

    def test_udf_unknown(self, catalog):
        with pytest.raises(UnknownFunction):
            self._pred(catalog, "SELECT * FROM items WHERE nope(qty) < 8")

    def test_udf_arity(self, catalog):
        with pytest.raises(ArityMismatch):
            self._pred(catalog, "SELECT * FROM items WHERE half(qty, id) < 8")

    def test_udf_text_arg_rejected(self, catalog):
        with pytest.raises(AnalysisError):
            self._pred(catalog, "SELECT * FROM items WHERE half(tag) < 8")

    def test_unknown_table(self, catalog):
        with pytest.raises(UnknownTable):
            self._graph(catalog, "SELECT * FROM nowhere")

    def test_unknown_column(self, catalog):
        with pytest.raises(UnknownColumn):
            self._graph(catalog, "SELECT zz FROM items")

    def test_ambiguous_column(self, catalog):
        with pytest.raises(AmbiguousColumn):
            self._graph(catalog, "SELECT id FROM items, boxes")

    def test_qualified_disambiguates(self, catalog):
        g = self._graph(catalog, "SELECT items.id FROM items, boxes")
        assert g.projection[0].table == "items"

    def test_duplicate_alias(self, catalog):
        with pytest.raises(AnalysisError, match="duplicate"):
            self._graph(catalog, "SELECT * FROM items, items")

    def test_self_join_via_aliases(self, catalog):
        g = self._graph(
            catalog,
            "SELECT COUNT(*) FROM items a, items b WHERE a.id = b.qty",
        )
        assert g.tables == ("a", "b")
        assert g.source == {"a": "items", "b": "items"}


# Exact text and type of every frontend error class, so a refactor of the
# parser or the analyzer cannot change what a user sees.
ERROR_CASES = [
    ("SELECT * WHERE qty = 1", ParseError,
     "expected FROM, found 'WHERE' (line 1, column 10)"),
    ("SELECT * FROM items WHERE", ParseError,
     "expected a column or function call, found 'end of input' (line 1, column 26)"),
    ("SELECT * FROM items WHERE qty", ParseError,
     "expected a comparison operator or BETWEEN, found 'end of input' "
     "(line 1, column 30)"),
    ("SELECT * FROM items WHERE half(qty) BETWEEN 1 AND 2", ParseError,
     "BETWEEN requires a column on the left, found 'BETWEEN' (line 1, column 37)"),
    ("SELECT * FROM items WHERE half(1) < 2", ParseError,
     "function arguments must be column references, found '1' (line 1, column 32)"),
    ("SELECT * FROM items WHERE 1 = qty", ParseError,
     "expected a column or function call, found '1' (line 1, column 27)"),
    ("SELECT * FROM items WHERE qty = (SELECT id FROM boxes)", ParseError,
     "expected a constant, found '(' (line 1, column 33)"),
    ("SELECT * FROM items WHERE qty = - x", ParseError,
     "expected a number after '-', found 'x' (line 1, column 35)"),
    ("SELECT * FROM items WHERE shipped = DATE 5", ParseError,
     "expected a quoted date after DATE, found '5' (line 1, column 42)"),
    ("SELECT items. FROM items", ParseError,
     "expected column name after '.', found 'FROM' (line 1, column 15)"),
    ("SELECT * FROM items WHERE qty BETWEEN 1 OR 2", ParseError,
     "expected AND, found 'OR' (line 1, column 41)"),
    ("SELECT * FROM items WHERE (qty = 1", ParseError,
     "expected ')', found 'end of input' (line 1, column 35)"),
    ("SELECT * FROM items AS 5", ParseError,
     "expected alias name, found '5' (line 1, column 24)"),
    ("SELECT * FROM items WHERE qty = 'it''s", ParseError,
     "unterminated string literal (line 1, column 37)"),
    ("SELECT * FROM (SELECT * FROM items)", UnsupportedConstruct,
     "unsupported construct: subquery (line 1, column 16)"),
    ("SELECT * FROM items GROUP BY qty", UnsupportedConstruct,
     "unsupported construct: GROUP BY (line 1, column 21)"),
    ("SELECT *\nFROM items WHERE 1 = qty", ParseError,
     "expected a column or function call, found '1' (line 2, column 18)"),
    ("SELECT * -- all columns\nFROM items GROUP BY qty", UnsupportedConstruct,
     "unsupported construct: GROUP BY (line 2, column 12)"),
    ("SELECT * FROM items WHERE tag = 'a\nb' AND qty = - x", ParseError,
     "expected a number after '-', found 'x' (line 2, column 16)"),
    ("SELECT *\nFROM items\nWHERE (qty = 1\n", ParseError,
     "expected ')', found 'end of input' (line 4, column 1)"),
    ("SELECT *\nFROM items\nWHERE tag = 'oak' AND qty = @", ParseError,
     "unexpected character '@' (line 3, column 29)"),
    ("SELECT * FROM items\nWHERE tag = 'oak", ParseError,
     "unterminated string literal (line 2, column 13)"),
    ("SELECT * FROM items WHERE half(qty) < id", AnalysisError,
     "function comparison half(...) < requires a numeric constant"),
    ("SELECT * FROM items WHERE half(qty) = 'x'", AnalysisError,
     "function comparison half(...) = requires a numeric constant"),
    ("SELECT * FROM items WHERE half(zz) < 1", UnknownColumn,
     "unknown column 'zz'"),
    ("SELECT * FROM items WHERE nope(qty) < 8", UnknownFunction,
     "unknown function 'nope'"),
    ("SELECT * FROM items WHERE half(qty, id) < 8", ArityMismatch,
     "function 'half' takes 1 arguments, got 2"),
    ("SELECT * FROM items WHERE half(tag) < 8", AnalysisError,
     "type mismatch: TEXT column items.tag passed to half()"),
    ("SELECT zz FROM items", UnknownColumn, "unknown column 'zz'"),
    ("SELECT * FROM items WHERE items.zz = 1", UnknownColumn,
     "table 'items' has no column 'zz'"),
    ("SELECT * FROM items WHERE nowhere.qty = 1", UnknownTable,
     "unknown table or alias 'nowhere' in nowhere.qty"),
    ("SELECT * FROM nowhere", UnknownTable, "unknown table 'nowhere'"),
    ("SELECT * FROM items, boxes WHERE id = 1", AmbiguousColumn,
     "column 'id' is ambiguous (in tables items, boxes)"),
    ("SELECT * FROM items a, items b WHERE a.tag = b.tag", UnsupportedPredicate,
     "column-to-column comparison over TEXT: a.tag = b.tag"),
    ("SELECT * FROM items WHERE qty < shipped", AnalysisError,
     "type mismatch: cannot compare items.qty (INT64) to items.shipped (DATE)"),
    ("SELECT * FROM items WHERE shipped = DATE '2024-13-01'", AnalysisError,
     "bad date literal '2024-13-01' (expected YYYY-MM-DD)"),
    ("SELECT * FROM items WHERE shipped = DATE '20240105'", AnalysisError,
     "bad date literal '20240105' (expected YYYY-MM-DD)"),
    ("SELECT * FROM items WHERE shipped < 20240101", AnalysisError,
     "type mismatch: DATE column items.shipped compared to a number"),
    ("SELECT * FROM items WHERE tag = 5", AnalysisError,
     "type mismatch: TEXT column items.tag compared to 5"),
    ("SELECT * FROM items WHERE price BETWEEN 1 AND DATE '2024-01-01'",
     AnalysisError,
     "type mismatch: column items.price compared to DATE '2024-01-01'"),
    ("SELECT * FROM items a, boxes a", AnalysisError,
     "duplicate table alias 'a'"),
    ("SELECT COUNT(*) FROM items, boxes WHERE items.id < boxes.item_id",
     UnsupportedPredicate,
     "predicate spans tables ['boxes', 'items'] and is not an equi-join: "
     "items.id < boxes.item_id"),
    ("SELECT COUNT(*) FROM items, boxes "
     "WHERE items.id = boxes.item_id OR qty > 5", UnsupportedPredicate,
     "predicate spans tables ['boxes', 'items'] and is not an equi-join: "
     "items.id = boxes.item_id OR items.qty > 5"),
]


@pytest.mark.parametrize("sql, error, message", ERROR_CASES)
def test_error_message_pinned(catalog, sql, error, message):
    with pytest.raises(error) as info:
        fe.analyze(fe.parse(sql), catalog)
    assert type(info.value) is error
    assert str(info.value) == message


class TestJoinGraph:
    def _graph(self, catalog, sql):
        return fe.analyze(fe.parse(sql), catalog)

    def test_edges_and_residuals(self, catalog):
        g = self._graph(
            catalog,
            "SELECT COUNT(*) FROM items, boxes "
            "WHERE items.id = boxes.item_id AND qty > 5 AND weight < 9 "
            "AND tag = 'oak'",
        )
        assert len(g.edges) == 1
        assert g.edges[0].touches("items") and g.edges[0].touches("boxes")
        # items residual is qty>5 AND tag='oak' conjoined
        assert len(ex.conjuncts(g.residual("items"))) == 2
        assert len(ex.conjuncts(g.residual("boxes"))) == 1

    def test_no_residual_is_none(self, catalog):
        g = self._graph(
            catalog,
            "SELECT COUNT(*) FROM items, boxes WHERE items.id = boxes.item_id",
        )
        assert g.residual("items") is None and g.residual("boxes") is None

    def test_every_conjunct_classified(self, catalog):
        sql = (
            "SELECT COUNT(*) FROM items, boxes "
            "WHERE items.id = boxes.item_id AND qty > 5 AND (weight < 9 OR weight = 12)"
        )
        g = self._graph(catalog, sql)
        n_residual = sum(
            len(ex.conjuncts(g.residual(t)))
            for t in g.tables
            if g.residual(t) is not None
        )
        assert len(g.edges) + n_residual == 3

    def test_cross_table_non_equi_rejected(self, catalog):
        with pytest.raises(UnsupportedPredicate):
            self._graph(
                catalog,
                "SELECT COUNT(*) FROM items, boxes WHERE items.id < boxes.item_id",
            )

    def test_cross_table_or_rejected(self, catalog):
        with pytest.raises(UnsupportedPredicate):
            self._graph(
                catalog,
                "SELECT COUNT(*) FROM items, boxes "
                "WHERE items.id = boxes.item_id OR qty > 5",
            )

    def test_single_table_or_kept(self, catalog):
        g = self._graph(
            catalog,
            "SELECT COUNT(*) FROM items WHERE qty > 5 OR tag = 'oak'",
        )
        assert isinstance(g.residual("items"), ex.Or)
