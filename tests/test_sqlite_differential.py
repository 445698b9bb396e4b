"""Random WHERE clauses, counted by escdb and by stdlib sqlite3.

The tables are the generator's ``custom`` table with NULLs in every value
column: unique INT64 ``id``, INT64 ``a``/``b`` in 0..999, DECIMAL(15,2)
``val``, DATE ``when`` and TEXT ``tag``.  perfbench's ``_sqlite`` loads
them into sqlite3 as scaled integers (DECIMAL) and epoch days (DATE), so
each predicate is drawn once and rendered twice: as escdb SQL, and over
that storage.  Single-table clauses run over one table; join queries
join two or three of its kind, of 2000, 500 and 200 rows, in star and
chain shapes with a residual per table.
"""

import dataclasses
import importlib
import itertools
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escdb.bench import GenSpec, generate
from escdb.engine import Engine
from escdb.optimizer import ARMS
from escdb.storage import ColumnTable

from conftest import chunk_setter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OPS = ("=", "<", "<=", ">", ">=", "<>")
EPOCH = date(1970, 1, 1)
# `when` is an SQLite keyword and the loader writes column names unquoted,
# so the sqlite3 copy names that column `day`
LITE_NAMES = {"when": "day"}


def _renamed(table: ColumnTable, name: str, lite: bool) -> ColumnTable:
    """``table`` under ``name``; for sqlite3 with ``when`` renamed too."""
    names = LITE_NAMES if lite else {}
    return ColumnTable(
        name,
        [dataclasses.replace(c, name=names.get(c.name, c.name)) for c in table.columns],
    )


@pytest.fixture(scope="module")
def engines():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    data = generate(GenSpec("custom", 0.002, 5, null_fraction=0.15))["data"]
    lite = workloads._sqlite({"data": _renamed(data, "data", lite=True)})
    arms = {}
    for arm in ARMS:
        arms[arm] = Engine(arm=arm)
        arms[arm].catalog.register(data)
    yield arms, lite
    lite.close()


# A drawn predicate is (shape, escdb text, sqlite text); shape is "atom",
# "not", "and" or "or" and decides where the parent needs parentheses.


def _atom(esc: str, lite: str | None = None):
    return ("atom", esc, esc if lite is None else lite)


def _int_atom(draw, q):
    col = q + draw(st.sampled_from(("id", "a", "b")))
    if draw(st.booleans()):
        lo, hi = draw(st.integers(-5, 1005)), draw(st.integers(-5, 1005))
        if draw(st.booleans()):
            return _atom(f"{col} BETWEEN ({lo}, {hi})", f"{col} BETWEEN {lo} AND {hi}")
        return _atom(f"{col} BETWEEN {lo} AND {hi}")
    return _atom(f"{col} {draw(st.sampled_from(OPS))} {draw(st.integers(-5, 1005))}")


def _decimal(draw) -> tuple[str, str]:
    """A literal with 0-3 fraction digits and the same value in cents."""
    digits = draw(st.integers(0, 3))
    value = Decimal(draw(st.integers(-1000, 10_001_000))).scaleb(-3)
    value = value.quantize(Decimal(1).scaleb(-digits))
    return format(value, "f"), format(value.scaleb(2), "f")


def _decimal_atom(draw, q):
    esc, lite = _decimal(draw)
    if draw(st.booleans()):
        esc_hi, lite_hi = _decimal(draw)
        return _atom(
            f"{q}val BETWEEN {esc} AND {esc_hi}",
            f"{q}val BETWEEN {lite} AND {lite_hi}",
        )
    op = draw(st.sampled_from(OPS))
    return _atom(f"{q}val {op} {esc}", f"{q}val {op} {lite}")


def _date(draw) -> tuple[str, str]:
    """A DATE literal, with or without the keyword, and its epoch day."""
    day = draw(st.integers(8000, 10500))  # 1991-11 .. 1998-10
    text = f"'{(EPOCH + timedelta(days=day)).isoformat()}'"
    return (f"DATE {text}" if draw(st.booleans()) else text), str(day)


def _date_atom(draw, q):
    esc, lite = _date(draw)
    if draw(st.booleans()):
        esc_hi, lite_hi = _date(draw)
        return _atom(
            f"{q}when BETWEEN {esc} AND {esc_hi}",
            f"{q}day BETWEEN {lite} AND {lite_hi}",
        )
    op = draw(st.sampled_from(OPS))
    return _atom(f"{q}when {op} {esc}", f"{q}day {op} {lite}")


WORDS = ("alder", "elm", "oak", "pine", "", "aaa", "oak2", "Oak", "zzz", "it''s")


def _text_atom(draw, q):
    word = f"'{draw(st.sampled_from(WORDS))}'"
    if draw(st.booleans()):
        return _atom(f"{q}tag BETWEEN {word} AND '{draw(st.sampled_from(WORDS))}'")
    return _atom(f"{q}tag {draw(st.sampled_from(OPS))} {word}")


def _column_atom(draw, q):
    left, right = draw(
        st.sampled_from(
            [("a", "b"), ("b", "a"), ("id", "a"), ("b", "id"), ("val", "val"),
             ("when", "when")]
        )
    )
    op = draw(st.sampled_from(OPS))
    lite = f"{q}{LITE_NAMES.get(left, left)} {op} {q}{LITE_NAMES.get(right, right)}"
    return _atom(f"{q}{left} {op} {q}{right}", lite)


@st.composite
def atoms(draw, q: str = ""):
    """One atom over the columns of one table; ``q`` is its qualifier
    (``"r."``) or empty."""
    make = draw(
        st.sampled_from(
            [_int_atom, _decimal_atom, _date_atom, _text_atom, _column_atom]
        )
    )
    return make(draw, q)


def _paren(node, inside: str) -> tuple[str, str]:
    """Parenthesize a child of a NOT/AND/OR only where precedence needs it."""
    shape, esc, lite = node
    if shape in ("and", "or") and not (shape == "and" and inside == "or"):
        return f"({esc})", f"({lite})"
    return esc, lite


def _negate(node):
    esc, lite = _paren(node, "not")
    return ("not", f"NOT {esc}", f"NOT {lite}")


def _join(op: str):
    def join(items):
        parts = [_paren(i, op.lower()) for i in items]
        return (
            op.lower(),
            f" {op} ".join(e for e, _ in parts),
            f" {op} ".join(s for _, s in parts),
        )

    return join


def predicates(q: str = "", max_leaves: int = 6):
    return st.recursive(
        atoms(q),
        lambda children: st.one_of(
            children.map(_negate),
            st.lists(children, min_size=2, max_size=3).map(_join("AND")),
            st.lists(children, min_size=2, max_size=3).map(_join("OR")),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pred=predicates(), arm=st.sampled_from(ARMS))
def test_count_matches_sqlite(engines, pred, arm):
    arms, lite = engines
    _, esc, lite_sql = pred
    (want,) = lite.execute(f"SELECT COUNT(*) FROM data WHERE {lite_sql}").fetchone()
    got = arms[arm].run(f"SELECT COUNT(*) FROM data WHERE {esc}").count
    assert got == want, (esc, lite_sql)


JOIN_TABLES = {"r": (0.002, 5), "s": (0.0005, 6), "t": (0.0002, 7)}
JOIN_KEYS = ("id", "a", "b")


@pytest.fixture(scope="module")
def join_engines():
    """An engine per arm, and the sqlite3 copy."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    tables = {
        name: generate(GenSpec("custom", scale, seed, null_fraction=0.15))["data"]
        for name, (scale, seed) in JOIN_TABLES.items()
    }
    lite = workloads._sqlite(
        {name: _renamed(t, name, lite=True) for name, t in tables.items()}
    )
    engines = []
    for arm in ARMS:
        eng = Engine(arm=arm)
        for name, t in tables.items():
            eng.catalog.register(_renamed(t, name, lite=False))
        engines.append(eng)
    yield engines, lite
    lite.close()


@st.composite
def join_queries(draw):
    """(FROM list, escdb WHERE, sqlite WHERE) of a two-table join, or a
    three-table star or chain, with equi-join edges over the INT64
    columns and an optional residual per table."""
    shape = draw(st.sampled_from(("two", "star", "chain")))
    x, y, z = draw(st.permutations(tuple(JOIN_TABLES)))
    tables, edges = [x, y], [(x, y)]
    if shape != "two":
        tables.append(z)
        edges.append((x if shape == "star" else y, z))
    nodes = []
    for left, right in edges:
        lcol, rcol = draw(st.sampled_from(JOIN_KEYS)), draw(st.sampled_from(JOIN_KEYS))
        nodes.append(_atom(f"{left}.{lcol} = {right}.{rcol}"))
    for name in tables:
        residual = draw(st.none() | predicates(f"{name}.", max_leaves=3))
        if residual is not None:
            nodes.append(residual)
    _, esc, lite = _join("AND")(nodes)
    return ", ".join(tables), esc, lite


def _lite_row(row: tuple, n_tables: int) -> tuple:
    """A sqlite3 row of ``n_tables`` ids, then each table's ``val``,
    ``day`` and ``tag``, with ``val`` from cents and ``day`` from epoch
    days to the strings escdb decodes them to."""
    out = list(row)
    for i in range(n_tables, len(row), 3):
        val, day = row[i], row[i + 1]
        if val is not None:
            out[i] = format(Decimal(val).scaleb(-2), "f")
        if day is not None:
            out[i + 1] = (EPOCH + timedelta(days=day)).isoformat()
    return tuple(out)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(query=join_queries())
def test_join_matches_sqlite(join_engines, query):
    """COUNT(*) under every arm with the probe in 1 and 2 chunks; and under
    the first arm in 1 and 2 chunks, each joined table's ``id``, ``val``,
    ``when`` and ``tag`` from a SELECT, as sqlite3 gives them, in the same
    order under both.  Hypothesis runs many examples per function-scoped
    fixture, so the chunk count is set through a MonkeyPatch of its own."""
    engines, lite = join_engines
    tables, esc, lite_sql = query
    (want,) = lite.execute(f"SELECT COUNT(*) FROM {tables} WHERE {lite_sql}").fetchone()
    with pytest.MonkeyPatch.context() as mp:
        set_chunks = chunk_setter(mp)
        for chunks, eng in itertools.product((1, 2), engines):
            set_chunks(chunks)
            got = eng.run(f"SELECT COUNT(*) FROM {tables} WHERE {esc}").count
            assert got == want, (eng.arm, chunks, esc, lite_sql)
        names = tables.split(", ")
        # the ids first: they identify a joined row, so sorting compares no
        # column that may be NULL
        cols = [f"{name}.id" for name in names]
        for name in names:
            cols += [f"{name}.val", f"{name}.when", f"{name}.tag"]
        lite_cols = ", ".join(cols).replace(".when", ".day")
        want_rows = sorted(
            _lite_row(row, len(names))
            for row in lite.execute(
                f"SELECT {lite_cols} FROM {tables} WHERE {lite_sql}"
            )
        )
        runs = []
        for chunks in (1, 2):
            set_chunks(chunks)
            sql = f"SELECT {', '.join(cols)} FROM {tables} WHERE {esc}"
            rows = engines[0].run(sql).rows
            runs.append([rows.row(i) for i in range(rows.row_count)])
            assert sorted(runs[-1]) == want_rows, (chunks, esc, lite_sql)
        assert runs[0] == runs[1], (esc, lite_sql)
