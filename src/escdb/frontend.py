"""SQL subset frontend: tokenize, parse, analyze into a join graph.

``_TOKEN_RE`` is the one SQL lexer: ``tokenize`` and ``split_statements``
(which ``escdb batch`` uses) both read it.  It makes one match per token:
the whitespace and ``--`` comments before a token are part of its match,
and the end of the input is an eof token.  A token carries its offset
into the SQL text; the line and column a ``ParseError`` cites are worked
out from that offset only when the error is raised.

``parse`` returns an ``AstQuery`` whose WHERE clause is an ``expr`` tree in
parsed form (unresolved column refs, ``AstConst`` literals); ``analyze``
rewrites that tree into resolved form and splits it into a join graph.

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

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    DATE,
    TEXT,
    ColumnKind,
    ColumnTable,
    date_to_days,
)

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*  # whitespace and comments before the token
    (?:
        (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>'(?:[^']|'')*')
      | (?P<symbol><=|>=|<>|[-()=<>,.*;])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    type: str  # ident | number | string | symbol | eof
    text: str
    offset: int  # index of the first character in the SQL text
    key: str  # what the parser matches keywords and symbols by: an
    # identifier upper-cased, any other token its text


def _line_column(sql: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``sql``."""
    return sql.count("\n", 0, offset) + 1, offset - sql.rfind("\n", 0, offset)


def tokenize(sql: str) -> list[Token]:
    """The tokens of ``sql``, ending in one eof token."""
    tokens = [
        tuple.__new__(
            Token,
            (
                kind := m.lastgroup,
                text := m[kind],
                m.start(kind),
                text.upper() if kind == "ident" else text,
            ),
        )
        for m in _TOKEN_RE.finditer(sql)
    ]
    for tok in tokens:
        if tok.type == "bad":
            if tok.text == "'":
                message = "unterminated string literal"
            else:
                message = f"unexpected character {tok.text!r}"
            raise ParseError(message, *_line_column(sql, tok.offset))
    # after trailing whitespace or a comment, whose match ends in eof,
    # finditer yields the empty match at the end of the input as well
    if len(tokens) > 1 and tokens[-2].type == "eof":
        tokens.pop()
    return tokens


def split_statements(script: str) -> list[str]:
    """Cut a script into statements at its ';' tokens.

    A ';' inside a string literal or a comment does not cut, and a piece
    holding only whitespace and comments is dropped.
    """
    statements, start, blank = [], 0, True
    for m in _TOKEN_RE.finditer(script):
        kind = m.lastgroup
        if kind == "symbol" and m[kind] == ";":
            if not blank:
                statements.append(script[start : m.start(kind)].strip())
            start, blank = m.end(), True
        elif kind != "eof":
            blank = False
    if not blank:
        statements.append(script[start:].strip())
    return statements


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AstConst:
    """Literal; ``kind`` is number/string/date, ``text`` the unquoted lexeme."""

    kind: str
    text: str

    def __str__(self):
        if self.kind == "number":
            return self.text
        quoted = "'" + self.text.replace("'", "''") + "'"
        return f"DATE {quoted}" if self.kind == "date" else quoted


@dataclass(frozen=True)
class AstTableRef:
    name: str
    alias: str


COLUMNS = "columns"
STAR = "star"
COUNT_STAR = "count_star"


@dataclass(frozen=True)
class AstQuery:
    select_kind: str  # columns | star | count_star
    select: tuple[ex.ColumnRef, ...]
    tables: tuple[AstTableRef, ...]
    where: ex.Expr | None


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

# words that end a table reference, so they are neither an implicit alias
# nor a column name after '.'
_CLAUSE_WORDS = {"FROM", "WHERE", *_UNSUPPORTED}


class _Parser:
    """Recursive descent over the tokens.  The token list ends in two eof
    tokens, so a look one token past any token but the last is in range.
    Where the grammar already knows a token's type, the rules read
    ``tokens[pos]`` and step ``pos`` themselves."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.tokens.append(self.tokens[-1])
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def eat(self, key: str) -> bool:
        """Step past the next token if it is the keyword or symbol ``key``
        (keywords upper-case)."""
        if self.tokens[self.pos].key == key:
            self.pos += 1
            return True
        return False

    def expect(self, key: str):
        if not self.eat(key):
            self.fail(f"expected {key}" if key.isalpha() else f"expected {key!r}")

    def error(self, cls: type[ParseError], message: str, tok: Token):
        """``cls(message)`` citing the line and column of ``tok``."""
        return cls(message, *_line_column(self.sql, tok.offset))

    def fail(self, message: str):
        tok = self.peek()
        shown = tok.text if tok.type != "eof" else "end of input"
        raise self.error(ParseError, f"{message}, found {shown!r}", tok)

    def reject_unsupported(self):
        tok = self.peek()
        name = _UNSUPPORTED.get(tok.key)
        if name is not None:
            raise self.error(
                UnsupportedConstruct, f"unsupported construct: {name}", tok
            )

    def reject_subquery(self):
        if self.peek().key == "(" and self.peek(1).key == "SELECT":
            raise self.error(
                UnsupportedConstruct, "unsupported construct: subquery", self.peek(1)
            )

    # -- grammar ----------------------------------------------------------

    def query(self) -> AstQuery:
        self.expect("SELECT")
        self.reject_unsupported()
        if self.eat("*"):
            kind, select = STAR, ()
        elif self.eat("COUNT"):
            self.expect("(")
            self.expect("*")
            self.expect(")")
            kind, select = COUNT_STAR, ()
        else:
            cols = [self.column_ref()]
            while self.eat(","):
                cols.append(self.column_ref())
            kind, select = COLUMNS, tuple(cols)
        self.expect("FROM")
        tables = [self.table_ref()]
        while self.eat(","):
            tables.append(self.table_ref())
        self.reject_unsupported()
        where = None
        if self.eat("WHERE"):
            where = self.or_expr()
        self.eat(";")
        self.reject_unsupported()
        if self.peek().type != "eof":
            self.fail("unexpected trailing input")
        return AstQuery(kind, select, tuple(tables), where)

    def table_ref(self) -> AstTableRef:
        tok = self.tokens[self.pos]
        if tok.type != "ident" or tok.key in _UNSUPPORTED:
            self.reject_unsupported()
            self.reject_subquery()
            self.fail("expected table name")
        self.pos += 1
        alias = tok.text
        nxt = self.tokens[self.pos]
        if nxt.key == "AS":
            self.pos += 1
            alias_tok = self.tokens[self.pos]
            if alias_tok.type != "ident":
                self.fail("expected alias name")
            self.pos += 1
            alias = alias_tok.text
        elif nxt.type == "ident" and nxt.key not in _CLAUSE_WORDS:
            self.pos += 1
            alias = nxt.text
        return AstTableRef(tok.text, alias)

    def column_ref(self) -> ex.ColumnRef:
        tok = self.tokens[self.pos]
        if tok.type != "ident":
            self.fail("expected column name")
        self.pos += 1
        if self.tokens[self.pos].key == ".":
            self.pos += 1
            name_tok = self.tokens[self.pos]
            if name_tok.type != "ident" or name_tok.key in _CLAUSE_WORDS:
                self.fail("expected column name after '.'")
            self.pos += 1
            return ex.ColumnRef(tok.text, name_tok.text)
        return ex.ColumnRef(None, tok.text)

    def or_expr(self):
        items = [self.and_expr()]
        while self.eat("OR"):
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else ex.Or(tuple(items))

    def and_expr(self):
        items = [self.not_expr()]
        while self.eat("AND"):
            items.append(self.not_expr())
        return items[0] if len(items) == 1 else ex.And(tuple(items))

    def not_expr(self):
        key = self.tokens[self.pos].key
        if key == "NOT":
            self.pos += 1
            return ex.Not(self.not_expr())
        if key == "(":
            self.reject_subquery()
            self.pos += 1
            inner = self.or_expr()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> ex.Expr:
        tok = self.tokens[self.pos]
        if tok.type != "ident":
            self.fail("expected a column or function call")
        if self.tokens[self.pos + 1].key == "(":
            self.pos += 2
            args = [self.fn_arg()]
            while self.eat(","):
                args.append(self.fn_arg())
            self.expect(")")
            if self.tokens[self.pos].key == "BETWEEN":
                self.fail("BETWEEN requires a column on the left")
            op = self.compare_op()
            return ex.FnCall(tok.text.lower(), tuple(args), op, self.comparand())
        col = self.column_ref()
        if self.eat("BETWEEN"):
            if self.eat("("):
                lo = self.constant()
                self.expect(",")
                hi = self.constant()
                self.expect(")")
            else:
                lo = self.constant()
                self.expect("AND")
                hi = self.constant()
            return ex.Range(col, lo, hi)
        op = self.compare_op()
        right = self.comparand()
        if type(right) is ex.ColumnRef:
            return ex.ColumnCompare(col, op, right)
        return ex.Comparison(col, op, right)

    def compare_op(self) -> str:
        tok = self.tokens[self.pos]
        if tok.key not in _COMPARE_OPS:
            self.fail("expected a comparison operator or BETWEEN")
        self.pos += 1
        return tok.text

    def fn_arg(self) -> ex.ColumnRef:
        if self.tokens[self.pos].type != "ident":
            self.fail("function arguments must be column references")
        return self.column_ref()

    def comparand(self):
        """Right side of a comparison: constant or column reference."""
        tok = self.tokens[self.pos]
        if tok.type == "ident":
            # DATE before a literal is a (maybe malformed) date literal;
            # anywhere else it is a name, as in ssb's table ``date``
            if tok.key == "DATE" and self.peek(1).type in ("string", "number"):
                return self.constant()
            return self.column_ref()
        return self.constant()

    def constant(self) -> AstConst:
        tok = self.tokens[self.pos]
        if tok.type == "number":
            self.pos += 1
            return AstConst("number", tok.text)
        if tok.type == "string":
            self.pos += 1
            return AstConst("string", _unquote(tok.text))
        if tok.key == "-":
            self.pos += 1
            num = self.tokens[self.pos]
            if num.type != "number":
                self.fail("expected a number after '-'")
            self.pos += 1
            return AstConst("number", "-" + num.text)
        if tok.key == "DATE":
            self.pos += 1
            s = self.tokens[self.pos]
            if s.type != "string":
                self.fail("expected a quoted date after DATE")
            self.pos += 1
            return AstConst("date", _unquote(s.text))
        self.fail("expected a constant")


def _unquote(lexeme: str) -> str:
    return lexeme[1:-1].replace("''", "'")


def parse(sql: str) -> AstQuery:
    """Parse one statement; errors carry line/column positions."""
    return _Parser(sql).query()


# ---------------------------------------------------------------------------
# Analysis: resolution, type checks, constant normalization
# ---------------------------------------------------------------------------


class _Scope:
    """The FROM tables of one query, by alias and by column name."""

    def __init__(self, by_alias: dict[str, ColumnTable]):
        self.by_alias = by_alias
        # column name -> (alias, column) of every table that has it, in
        # FROM order; built once, so resolving a bare name is one lookup
        self.owners: dict[str, list] = {}
        for alias, table in by_alias.items():
            for c in table.columns:
                if c.name in self.owners:
                    self.owners[c.name].append((alias, c))
                else:
                    self.owners[c.name] = [(alias, c)]

    def resolve(self, col: ex.ColumnRef) -> ex.ColumnRef:
        if col.table is not None:
            table = self.by_alias.get(col.table)
            if table is None:
                raise UnknownTable(
                    f"unknown table or alias {col.table!r} in {col}"
                )
            try:
                kind = table.column(col.name).kind
            except KeyError:
                raise UnknownColumn(
                    f"table {col.table!r} has no column {col.name!r}"
                ) from None
            return ex.ColumnRef(col.table, col.name, kind=kind)
        hits = self.owners.get(col.name)
        if hits is None:
            raise UnknownColumn(f"unknown column {col.name!r}")
        if len(hits) > 1:
            names = ", ".join(alias for alias, _ in hits)
            raise AmbiguousColumn(
                f"column {col.name!r} is ambiguous (in tables {names})"
            )
        alias, column = hits[0]
        return ex.ColumnRef(alias, col.name, kind=column.kind)

    def table_of(self, alias: str) -> ColumnTable:
        return self.by_alias[alias]


def _number_value(const: AstConst) -> int | Fraction:
    """The literal's exact value: an ``int``, or a ``Fraction`` when it
    has a fractional part."""
    try:
        return Fraction(const.text) if "." in const.text else int(const.text)
    except (ValueError, ZeroDivisionError):
        raise AnalysisError(f"bad numeric literal {const.text!r}") from None


def _const_for_column(col: ex.ColumnRef, const: AstConst):
    """Comparison constant in the column's storage units: TEXT as its
    string, DATE as epoch days, a number as the exact ``int`` or
    ``Fraction`` of storage units (DECIMAL rescaled), which may fall
    between them."""
    kind: ColumnKind = col.kind
    if kind.name == TEXT:
        if const.kind != "string":
            raise AnalysisError(
                f"type mismatch: TEXT column {col} compared to {const}"
            )
        return const.text
    if kind.name == DATE:
        if const.kind == "number":
            raise AnalysisError(
                f"type mismatch: DATE column {col} compared to a number"
            )
        try:
            return date_to_days(const.text)
        except TypeMismatch:
            raise AnalysisError(
                f"bad date literal {const.text!r} (expected YYYY-MM-DD)"
            ) from None
    if const.kind != "number":
        raise AnalysisError(f"type mismatch: column {col} compared to {const}")
    value = _number_value(const)
    return value * 10**kind.scale if kind.scale else value


def _text_code(col: ex.ColumnRef, text: str, scope: _Scope) -> int | None:
    dictionary = scope.table_of(col.table).column(col.name).dictionary
    return dictionary.lookup(text)


def _analyze_column_compare(node: ex.ColumnCompare, scope: _Scope) -> ex.Expr:
    left = scope.resolve(node.left)
    right = scope.resolve(node.right)
    if left.kind != right.kind:
        raise AnalysisError(
            f"type mismatch: cannot compare {left} ({left.kind}) "
            f"to {right} ({right.kind})"
        )
    if left.kind.name == TEXT:
        raise UnsupportedPredicate(
            f"column-to-column comparison over TEXT: {left} {node.op} {right}"
        )
    return ex.ColumnCompare(left, node.op, right)


def _analyze_compare(node: ex.Comparison, scope: _Scope) -> ex.Expr:
    left = scope.resolve(node.col)
    value = _const_for_column(left, node.value)
    if left.kind.name == TEXT:
        if node.op in ("=", "<>"):
            code = _text_code(left, value, scope)
            if code is None:
                # constant absent from the dictionary: = never holds,
                # <> holds for every non-NULL row
                return ex.FoldedAtom(left, node.op == "<>")
            return ex.Comparison(left, node.op, code)
        return ex.Comparison(left, node.op, value)  # string payload, decoded compare
    if isinstance(value, Fraction) and value.denominator != 1:
        # every stored value is an integer: none equals a fractional
        # literal, and a bound rounds inward to the nearest integer
        if node.op in ("=", "<>"):
            return ex.FoldedAtom(left, node.op == "<>")
        if node.op in ("<", "<="):
            return ex.Comparison(left, "<=", math.floor(value))
        return ex.Comparison(left, ">=", math.ceil(value))
    return ex.Comparison(left, node.op, int(value))


def _analyze_fncall(call: ex.FnCall, scope: _Scope, catalog) -> ex.Expr:
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
        if ref.kind.name == TEXT:
            raise AnalysisError(
                f"type mismatch: TEXT column {ref} passed to {call.name}()"
            )
        args.append(ref)
    if not isinstance(call.value, AstConst) or call.value.kind != "number":
        raise AnalysisError(
            f"function comparison {call.name}(...) {call.op} requires a numeric constant"
        )
    number = _number_value(call.value)
    try:
        value = float(number)
    except OverflowError:
        # past the float range: +-inf by its sign, as sqlite3 reads it
        value = math.inf if number > 0 else -math.inf
    return ex.FnCall(call.name, tuple(args), call.op, value, fn=udf.fn)


def _analyze_between(node: ex.Range, scope: _Scope) -> ex.Expr:
    col = scope.resolve(node.col)
    lo = _const_for_column(col, node.lo)
    hi = _const_for_column(col, node.hi)
    if col.kind.name != TEXT:
        # integer storage: the bounds round inward
        lo, hi = math.ceil(lo), math.floor(hi)
    if lo > hi:
        return ex.FoldedAtom(col, False)
    return ex.Range(col, lo, hi)


def _analyze_predicate(node: ex.Expr, scope: _Scope, catalog) -> ex.Expr:
    """Rewrite a parsed predicate into resolved form."""
    kind = type(node)
    if kind is ex.Comparison:
        return _analyze_compare(node, scope)
    if kind is ex.ColumnCompare:
        return _analyze_column_compare(node, scope)
    if kind is ex.And or kind is ex.Or:
        return kind(tuple([_analyze_predicate(i, scope, catalog) for i in node.items]))
    if kind is ex.Range:
        return _analyze_between(node, scope)
    if kind is ex.Not:
        return ex.Not(_analyze_predicate(node.child, scope, catalog))
    if kind is ex.FnCall:
        return _analyze_fncall(node, scope, catalog)
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
    by_alias: dict[str, ColumnTable] = {}
    for ref in ast.tables:
        if ref.alias in by_alias:
            raise AnalysisError(f"duplicate table alias {ref.alias!r}")
        by_alias[ref.alias] = catalog.table(ref.name)
    scope = _Scope(by_alias)

    conjuncts = []
    if ast.where is not None:
        conjuncts = ex.conjuncts(_analyze_predicate(ast.where, scope, catalog))

    if ast.select_kind == COUNT_STAR:
        projection = None
    elif ast.select_kind == STAR:
        projection = tuple(
            ex.ColumnRef(alias, c.name, kind=c.kind)
            for alias, table in by_alias.items()
            for c in table.columns
        )
    else:
        projection = tuple([scope.resolve(c) for c in ast.select])

    # a = b and b = a are one edge; a ColumnRef is equal by table and name
    edges: dict[frozenset, JoinEdge] = {}
    residuals: dict[str, list[ex.Expr]] = {}
    for conj in conjuncts:
        kind = type(conj)
        if kind in _ONE_COLUMN_ATOMS:
            residuals.setdefault(conj.col.table, []).append(conj)
            continue
        if (
            kind is ex.ColumnCompare
            and conj.op == "="
            and conj.left.table != conj.right.table
        ):
            left, right = conj.left, conj.right
            key = frozenset(((left.table, left.name), (right.table, right.name)))
            edges.setdefault(key, JoinEdge(left, right))
            continue
        touched = ex.tables(conj)
        if len(touched) == 1:
            residuals.setdefault(touched.pop(), []).append(conj)
        else:
            raise UnsupportedPredicate(
                f"predicate spans tables {sorted(touched)} and is not an "
                f"equi-join: {conj}"
            )
    return JoinGraph(
        tables=tuple(by_alias),
        source={ref.alias: ref.name for ref in ast.tables},
        edges=tuple(edges.values()),
        residuals={t: ex.conjoin(items) for t, items in residuals.items()},
        projection=projection,
    )


# atoms over one column, whose conjunct is that column's table's residual
_ONE_COLUMN_ATOMS = (ex.Comparison, ex.Range, ex.FoldedAtom)
