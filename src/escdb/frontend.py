"""SQL subset frontend: tokenize, parse, analyze into a join graph.

Supported grammar (one statement, optional trailing semicolon):

    SELECT { * | COUNT(*) | col [, col ...] }
    FROM   table [AS alias] [, table [AS alias] ...]
    [WHERE predicate]

Predicates combine =, <, <=, >, >=, <>, BETWEEN, and registered scalar
function calls with AND/OR/NOT and parentheses.  Anything else (GROUP
BY, ORDER BY, JOIN syntax, subqueries, DISTINCT) is rejected with the
offending construct named explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as ex
from .errors import (
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
from .storage import (
    KIND_DATE,
    ColumnKind,
    ColumnTable,
    date_to_days,
)

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:[^']|'')*')
  | (?P<symbol><=|>=|<>|[-()=<>,.*;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    type: str  # ident | number | string | symbol | eof
    text: str
    line: int
    column: int


def tokenize(sql: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            if sql[pos] == "'":
                raise ParseError(
                    "unterminated string literal", line, pos - line_start + 1
                )
            raise ParseError(
                f"unexpected character {sql[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, m.start() - line_start + 1))
        for i in range(m.start(), m.end()):
            if sql[i] == "\n":
                line += 1
                line_start = i + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AstColumn:
    table: str | None
    name: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def __str__(self):
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class AstConst:
    """Literal; ``kind`` is number/string/date, ``text`` the unquoted lexeme."""

    kind: str
    text: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def __str__(self):
        if self.kind == "number":
            return self.text
        quoted = "'" + self.text.replace("'", "''") + "'"
        return f"DATE {quoted}" if self.kind == "date" else quoted


@dataclass(frozen=True)
class AstFnCall:
    name: str
    args: tuple[AstColumn, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class AstCompare:
    left: AstColumn | AstFnCall
    op: str
    right: AstConst | AstColumn

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class AstBetween:
    col: AstColumn
    lo: AstConst
    hi: AstConst

    def __str__(self):
        return f"{self.col} BETWEEN {self.lo} AND {self.hi}"


@dataclass(frozen=True)
class AstAnd:
    items: tuple

    def __str__(self):
        return " AND ".join(_pp(i) for i in self.items)


@dataclass(frozen=True)
class AstOr:
    items: tuple

    def __str__(self):
        return " OR ".join(_pp(i) for i in self.items)


@dataclass(frozen=True)
class AstNot:
    child: object

    def __str__(self):
        return f"NOT {_pp(self.child)}"


def _pp(node) -> str:
    if isinstance(node, (AstAnd, AstOr)):
        return f"({node})"
    return str(node)


@dataclass(frozen=True)
class AstTableRef:
    name: str
    alias: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def __str__(self):
        return self.name if self.alias == self.name else f"{self.name} AS {self.alias}"


COLUMNS = "columns"
STAR = "star"
COUNT_STAR = "count_star"


@dataclass(frozen=True)
class AstQuery:
    select_kind: str  # columns | star | count_star
    select: tuple[AstColumn, ...]
    tables: tuple[AstTableRef, ...]
    where: object | None


def render_query(q: AstQuery) -> str:
    """Canonical SQL text; reparsing yields an equal AST."""
    if q.select_kind == STAR:
        sel = "*"
    elif q.select_kind == COUNT_STAR:
        sel = "COUNT(*)"
    else:
        sel = ", ".join(str(c) for c in q.select)
    text = f"SELECT {sel} FROM " + ", ".join(str(t) for t in q.tables)
    if q.where is not None:
        text += f" WHERE {q.where}"
    return text


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# constructs we recognize specifically to name them in errors
_UNSUPPORTED = {
    "GROUP": "GROUP BY",
    "ORDER": "ORDER BY",
    "HAVING": "HAVING",
    "LIMIT": "LIMIT",
    "OFFSET": "OFFSET",
    "UNION": "UNION",
    "JOIN": "JOIN",
    "INNER": "JOIN",
    "OUTER": "JOIN",
    "LEFT": "JOIN",
    "RIGHT": "JOIN",
    "CROSS": "JOIN",
    "DISTINCT": "DISTINCT",
}

_COMPARE_OPS = {"=", "<", "<=", ">", ">=", "<>"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.type == "ident" and tok.text.upper() == word

    def eat_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.advance()
            return True
        return False

    def expect_kw(self, word: str):
        if not self.eat_kw(word):
            self.fail(f"expected {word}")

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.type == "symbol" and tok.text == sym

    def eat_symbol(self, sym: str) -> bool:
        if self.at_symbol(sym):
            self.advance()
            return True
        return False

    def expect_symbol(self, sym: str):
        if not self.eat_symbol(sym):
            self.fail(f"expected {sym!r}")

    def fail(self, message: str):
        tok = self.peek()
        shown = tok.text if tok.type != "eof" else "end of input"
        raise ParseError(f"{message}, found {shown!r}", tok.line, tok.column)

    def reject_unsupported(self):
        tok = self.peek()
        if tok.type == "ident":
            name = _UNSUPPORTED.get(tok.text.upper())
            if name is not None:
                raise UnsupportedConstruct(
                    f"unsupported construct: {name}", tok.line, tok.column
                )

    # -- grammar ----------------------------------------------------------

    def query(self) -> AstQuery:
        self.expect_kw("SELECT")
        self.reject_unsupported()
        if self.eat_symbol("*"):
            kind, select = STAR, ()
        elif self.at_kw("COUNT"):
            self.advance()
            self.expect_symbol("(")
            self.expect_symbol("*")
            self.expect_symbol(")")
            kind, select = COUNT_STAR, ()
        else:
            cols = [self.column_ref()]
            while self.eat_symbol(","):
                cols.append(self.column_ref())
            kind, select = COLUMNS, tuple(cols)
        self.expect_kw("FROM")
        tables = [self.table_ref()]
        while True:
            self.reject_unsupported()
            if not self.eat_symbol(","):
                break
            tables.append(self.table_ref())
        where = None
        if self.eat_kw("WHERE"):
            where = self.or_expr()
        self.eat_symbol(";")
        self.reject_unsupported()
        if self.peek().type != "eof":
            self.fail("unexpected trailing input")
        return AstQuery(kind, select, tuple(tables), where)

    def table_ref(self) -> AstTableRef:
        self.reject_unsupported()
        if self.at_symbol("("):
            nxt = self.peek(1)
            if nxt.type == "ident" and nxt.text.upper() == "SELECT":
                raise UnsupportedConstruct(
                    "unsupported construct: subquery", nxt.line, nxt.column
                )
            self.fail("expected table name")
        tok = self.peek()
        if tok.type != "ident":
            self.fail("expected table name")
        self.advance()
        alias = tok.text
        if self.eat_kw("AS"):
            alias_tok = self.peek()
            if alias_tok.type != "ident":
                self.fail("expected alias name")
            self.advance()
            alias = alias_tok.text
        elif self.peek().type == "ident" and not self._ident_is_clause_start():
            alias = self.advance().text
        return AstTableRef(tok.text, alias, tok.line, tok.column)

    def _ident_is_clause_start(self) -> bool:
        word = self.peek().text.upper()
        return word in ("WHERE", "FROM") or word in _UNSUPPORTED

    def column_ref(self) -> AstColumn:
        tok = self.peek()
        if tok.type != "ident":
            self.fail("expected column name")
        self.advance()
        if self.eat_symbol("."):
            name_tok = self.peek()
            if name_tok.type != "ident":
                self.fail("expected column name after '.'")
            self.advance()
            return AstColumn(tok.text, name_tok.text, tok.line, tok.column)
        return AstColumn(None, tok.text, tok.line, tok.column)

    def or_expr(self):
        items = [self.and_expr()]
        while self.eat_kw("OR"):
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else AstOr(tuple(items))

    def and_expr(self):
        items = [self.not_expr()]
        while self.eat_kw("AND"):
            items.append(self.not_expr())
        return items[0] if len(items) == 1 else AstAnd(tuple(items))

    def not_expr(self):
        if self.eat_kw("NOT"):
            return AstNot(self.not_expr())
        return self.primary()

    def primary(self):
        if self.at_symbol("("):
            nxt = self.peek(1)
            if nxt.type == "ident" and nxt.text.upper() == "SELECT":
                raise UnsupportedConstruct(
                    "unsupported construct: subquery", nxt.line, nxt.column
                )
            self.advance()
            inner = self.or_expr()
            self.expect_symbol(")")
            return inner
        return self.atom()

    def atom(self):
        left = self.operand()
        if self.at_kw("BETWEEN"):
            if not isinstance(left, AstColumn):
                self.fail("BETWEEN requires a column on the left")
            self.advance()
            if self.eat_symbol("("):
                lo = self.constant()
                self.expect_symbol(",")
                hi = self.constant()
                self.expect_symbol(")")
            else:
                lo = self.constant()
                self.expect_kw("AND")
                hi = self.constant()
            return AstBetween(left, lo, hi)
        op_tok = self.peek()
        if op_tok.type != "symbol" or op_tok.text not in _COMPARE_OPS:
            self.fail("expected a comparison operator or BETWEEN")
        self.advance()
        right = self.comparand()
        return AstCompare(left, op_tok.text, right)

    def operand(self):
        """Left side of an atom: a column reference or a function call."""
        tok = self.peek()
        if tok.type != "ident":
            self.fail("expected a column or function call")
        if self.peek(1).type == "symbol" and self.peek(1).text == "(":
            self.advance()
            self.advance()
            args = [self.fn_arg()]
            while self.eat_symbol(","):
                args.append(self.fn_arg())
            self.expect_symbol(")")
            return AstFnCall(tok.text.lower(), tuple(args), tok.line, tok.column)
        return self.column_ref()

    def fn_arg(self) -> AstColumn:
        tok = self.peek()
        if tok.type != "ident":
            self.fail("function arguments must be column references")
        return self.column_ref()

    def comparand(self):
        """Right side of a comparison: constant or column reference."""
        tok = self.peek()
        if tok.type == "ident":
            if tok.text.upper() == "DATE" and self.peek(1).type == "string":
                return self.constant()
            return self.column_ref()
        return self.constant()

    def constant(self) -> AstConst:
        tok = self.peek()
        if tok.type == "symbol" and tok.text == "-":
            self.advance()
            num = self.peek()
            if num.type != "number":
                self.fail("expected a number after '-'")
            self.advance()
            return AstConst("number", "-" + num.text, tok.line, tok.column)
        if tok.type == "number":
            self.advance()
            return AstConst("number", tok.text, tok.line, tok.column)
        if tok.type == "string":
            self.advance()
            return AstConst("string", _unquote(tok.text), tok.line, tok.column)
        if tok.type == "ident" and tok.text.upper() == "DATE":
            self.advance()
            s = self.peek()
            if s.type != "string":
                self.fail("expected a quoted date after DATE")
            self.advance()
            return AstConst("date", _unquote(s.text), tok.line, tok.column)
        self.fail("expected a constant")

    # fail() raises; silence "missing return" linters
    # (no code path reaches here)


def _unquote(lexeme: str) -> str:
    return lexeme[1:-1].replace("''", "'")


def parse(sql: str) -> AstQuery:
    """Parse one statement; errors carry line/column positions."""
    return _Parser(tokenize(sql)).query()


# ---------------------------------------------------------------------------
# Analysis: resolution, type checks, constant normalization
# ---------------------------------------------------------------------------


class _Scope:
    def __init__(self, tables: list[tuple[str, ColumnTable]]):
        self.tables = tables
        self.by_alias = dict(tables)

    def resolve(self, col: AstColumn) -> ex.ColumnRef:
        if col.table is not None:
            table = self.by_alias.get(col.table)
            if table is None:
                raise UnknownTable(
                    f"unknown table or alias {col.table!r} in {col}"
                )
            if not table.has_column(col.name):
                raise UnknownColumn(f"table {col.table!r} has no column {col.name!r}")
            return ex.ColumnRef(col.table, col.name, kind=table.column(col.name).kind)
        hits = [
            (alias, t) for alias, t in self.tables if t.has_column(col.name)
        ]
        if not hits:
            raise UnknownColumn(f"unknown column {col.name!r}")
        if len(hits) > 1:
            names = ", ".join(alias for alias, _ in hits)
            raise AmbiguousColumn(
                f"column {col.name!r} is ambiguous (in tables {names})"
            )
        alias, table = hits[0]
        return ex.ColumnRef(alias, col.name, kind=table.column(col.name).kind)

    def table_of(self, alias: str) -> ColumnTable:
        return self.by_alias[alias]


def _number_value(const: AstConst) -> Fraction:
    try:
        return Fraction(const.text)
    except (ValueError, ZeroDivisionError):
        raise AnalysisError(f"bad numeric literal {const.text!r}") from None


def _scaled_constant(value: Fraction, kind: ColumnKind) -> int | float:
    """Rescale a numeric literal to the column's storage units once, at
    analysis time; exact ints when possible, float otherwise."""
    scaled = value * (10 ** kind.scale if kind.is_decimal else 1)
    if scaled.denominator == 1:
        return int(scaled)
    return float(scaled)


def _const_for_column(col: ex.ColumnRef, const: AstConst, scope: _Scope):
    """Normalized comparison constant in the column's storage units.

    Returns (value, exact) where exact=False means the literal fell
    between representable values (fractional vs integer storage).
    """
    kind: ColumnKind = col.kind
    if kind.is_text:
        if const.kind != "string":
            raise AnalysisError(
                f"type mismatch: TEXT column {col} compared to {const}"
            )
        return const.text, True
    if kind is KIND_DATE or kind.name == "DATE":
        if const.kind == "number":
            raise AnalysisError(
                f"type mismatch: DATE column {col} compared to a number"
            )
        try:
            return date_to_days(const.text), True
        except TypeMismatch:
            raise AnalysisError(
                f"bad date literal {const.text!r} (expected YYYY-MM-DD)"
            ) from None
    if const.kind != "number":
        raise AnalysisError(f"type mismatch: column {col} compared to {const}")
    value = _scaled_constant(_number_value(const), kind)
    return value, isinstance(value, int)


def _text_code(col: ex.ColumnRef, text: str, scope: _Scope) -> int | None:
    dictionary = scope.table_of(col.table).column(col.name).dictionary
    return dictionary.lookup(text)


def _analyze_compare(node: AstCompare, scope: _Scope, catalog) -> ex.Expr:
    if isinstance(node.left, AstFnCall):
        return _analyze_fncall(node, scope, catalog)
    left = scope.resolve(node.left)
    if isinstance(node.right, AstColumn):
        right = scope.resolve(node.right)
        if left.kind != right.kind:
            raise AnalysisError(
                f"type mismatch: cannot compare {left} ({left.kind}) "
                f"to {right} ({right.kind})"
            )
        if left.kind.is_text:
            raise UnsupportedPredicate(
                f"column-to-column comparison over TEXT: {left} {node.op} {right}"
            )
        return ex.ColumnCompare(left, node.op, right)
    value, exact = _const_for_column(left, node.right, scope)
    if left.kind.is_text:
        if node.op in ("=", "<>"):
            code = _text_code(left, value, scope)
            if code is None:
                # constant absent from the dictionary: = never holds,
                # <> holds for every non-NULL row
                return ex.FoldedAtom(left, node.op == "<>")
            if node.op == "=":
                return ex.Equality(left, code)
            return ex.Comparison(left, "<>", code)
        return ex.Comparison(left, node.op, value)  # string payload, decoded compare
    if not exact and node.op in ("=", "<>"):
        # a fractional literal can never equal an integer-stored value
        return ex.FoldedAtom(left, node.op == "<>")
    if node.op == "=":
        return ex.Equality(left, value)
    return ex.Comparison(left, node.op, value)


def _analyze_fncall(node: AstCompare, scope: _Scope, catalog) -> ex.Expr:
    call: AstFnCall = node.left
    udf = catalog.udf(call.name)
    if udf is None:
        raise UnknownFunction(f"unknown function {call.name!r}")
    if udf.arity != len(call.args):
        raise ArityMismatch(
            f"function {call.name!r} takes {udf.arity} arguments, got {len(call.args)}"
        )
    args = []
    for arg in call.args:
        ref = scope.resolve(arg)
        if ref.kind.is_text:
            raise AnalysisError(
                f"type mismatch: TEXT column {ref} passed to {call.name}()"
            )
        args.append(ref)
    if not isinstance(node.right, AstConst) or node.right.kind != "number":
        raise AnalysisError(
            f"function comparison {call.name}(...) {node.op} requires a numeric constant"
        )
    value = float(_number_value(node.right))
    return ex.FnCall(call.name, tuple(args), node.op, value, fn=udf.fn)


def _analyze_between(node: AstBetween, scope: _Scope) -> ex.Expr:
    col = scope.resolve(node.col)
    lo, _ = _const_for_column(col, node.lo, scope)
    hi, _ = _const_for_column(col, node.hi, scope)
    if lo > hi:
        return ex.FoldedAtom(col, False)
    return ex.Range(col, lo, hi)


def _analyze_predicate(node, scope: _Scope, catalog) -> ex.Expr:
    if isinstance(node, AstAnd):
        return ex.And(tuple(_analyze_predicate(i, scope, catalog) for i in node.items))
    if isinstance(node, AstOr):
        return ex.Or(tuple(_analyze_predicate(i, scope, catalog) for i in node.items))
    if isinstance(node, AstNot):
        return ex.Not(_analyze_predicate(node.child, scope, catalog))
    if isinstance(node, AstCompare):
        return _analyze_compare(node, scope, catalog)
    if isinstance(node, AstBetween):
        return _analyze_between(node, scope)
    raise AnalysisError(f"unexpected predicate node {node!r}")


# ---------------------------------------------------------------------------
# Join graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    left: ex.ColumnRef
    right: ex.ColumnRef

    def touches(self, alias: str) -> bool:
        return self.left.table == alias or self.right.table == alias

    def key_for(self, alias: str) -> ex.ColumnRef:
        if self.left.table == alias:
            return self.left
        if self.right.table == alias:
            return self.right
        raise KeyError(alias)

    def other(self, alias: str) -> str:
        if self.left.table == alias:
            return self.right.table
        if self.right.table == alias:
            return self.left.table
        raise KeyError(alias)

    def __str__(self):
        return f"{self.left} = {self.right}"


@dataclass
class JoinGraph:
    """Tables, equi-join edges, per-table residual predicates, and the
    output columns."""

    tables: tuple[str, ...]  # aliases in FROM order
    source: dict  # alias -> base table name
    edges: tuple  # tuple[JoinEdge, ...]
    residuals: dict  # alias -> ex.Expr (absent when no residual)
    projection: tuple | None  # tuple[ex.ColumnRef, ...]; None = COUNT(*)

    def residual(self, alias: str) -> ex.Expr | None:
        return self.residuals.get(alias)


def analyze(ast: AstQuery, catalog) -> JoinGraph:
    """Resolve names and types; return the query's join graph.

    Every WHERE conjunct becomes a join edge or a one-table residual;
    anything cross-table that is not an equi-join is rejected.  The
    projection expands ``*`` in FROM order and is None for COUNT(*).
    """
    seen = set()
    resolved: list[tuple[str, ColumnTable]] = []
    for ref in ast.tables:
        if ref.alias in seen:
            raise AnalysisError(f"duplicate table alias {ref.alias!r}")
        seen.add(ref.alias)
        resolved.append((ref.alias, catalog.table(ref.name)))
    scope = _Scope(resolved)

    conjuncts = []
    if ast.where is not None:
        conjuncts = ex.conjuncts(_analyze_predicate(ast.where, scope, catalog))

    if ast.select_kind == COUNT_STAR:
        projection = None
    elif ast.select_kind == STAR:
        projection = tuple(
            ex.ColumnRef(alias, c.name, kind=c.kind)
            for alias, table in resolved
            for c in table.columns
        )
    else:
        projection = tuple(scope.resolve(c) for c in ast.select)

    edges: dict[frozenset, JoinEdge] = {}  # a = b and b = a are one edge
    residuals: dict[str, list[ex.Expr]] = {}
    for conj in conjuncts:
        touched = ex.tables(conj)
        if (
            isinstance(conj, ex.ColumnCompare)
            and conj.op == "="
            and conj.left.table != conj.right.table
        ):
            key = frozenset((conj.left, conj.right))
            edges.setdefault(key, JoinEdge(conj.left, conj.right))
        elif len(touched) == 1:
            residuals.setdefault(touched.pop(), []).append(conj)
        else:
            raise UnsupportedPredicate(
                f"predicate spans tables {sorted(touched)} and is not an "
                f"equi-join: {conj}"
            )
    return JoinGraph(
        tables=tuple(alias for alias, _ in resolved),
        source={ref.alias: ref.name for ref in ast.tables},
        edges=tuple(edges.values()),
        residuals={t: ex.conjoin(items) for t, items in residuals.items()},
        projection=projection,
    )
