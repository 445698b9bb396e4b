"""Random single-table WHERE clauses, counted by escdb and by stdlib sqlite3.

The table is the generator's ``custom`` table with NULLs in every value
column: INT64 ``a``/``b``, DECIMAL(15,2) ``val``, DATE ``when`` and TEXT
``tag``.  perfbench's ``_sqlite`` loads it into sqlite3 as scaled integers
(DECIMAL) and epoch days (DATE), so each predicate is drawn once and
rendered twice: as escdb SQL, and over that storage.
"""

import dataclasses
import importlib
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escdb.bench import GenSpec, generate
from escdb.engine import Engine
from escdb.optimizer import ARMS, EscConfig
from escdb.storage import ColumnTable

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OPS = ("=", "<", "<=", ">", ">=", "<>")
EPOCH = date(1970, 1, 1)
# `when` is an SQLite keyword and the loader writes column names unquoted,
# so the sqlite3 copy names that column `day`
LITE_NAMES = {"when": "day"}


@pytest.fixture(scope="module")
def engines():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    data = generate(GenSpec("custom", 0.002, 5, null_fraction=0.15))["data"]
    lite_copy = ColumnTable(
        "data",
        [
            dataclasses.replace(c, name=LITE_NAMES.get(c.name, c.name))
            for c in data.columns
        ],
    )
    lite = workloads._sqlite({"data": lite_copy})
    arms = {}
    for arm in ARMS:
        arms[arm] = Engine(config=EscConfig(arm=arm))
        arms[arm].catalog.register(data)
    yield arms, lite
    lite.close()


# A drawn predicate is (shape, escdb text, sqlite text); shape is "atom",
# "not", "and" or "or" and decides where the parent needs parentheses.


def _atom(esc: str, lite: str | None = None):
    return ("atom", esc, esc if lite is None else lite)


def _int_atom(draw):
    col = draw(st.sampled_from(("id", "a", "b")))
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


def _decimal_atom(draw):
    esc, lite = _decimal(draw)
    if draw(st.booleans()):
        esc_hi, lite_hi = _decimal(draw)
        return _atom(
            f"val BETWEEN {esc} AND {esc_hi}", f"val BETWEEN {lite} AND {lite_hi}"
        )
    op = draw(st.sampled_from(OPS))
    return _atom(f"val {op} {esc}", f"val {op} {lite}")


def _date(draw) -> tuple[str, str]:
    """A DATE literal, with or without the keyword, and its epoch day."""
    day = draw(st.integers(8000, 10500))  # 1991-11 .. 1998-10
    text = f"'{(EPOCH + timedelta(days=day)).isoformat()}'"
    return (f"DATE {text}" if draw(st.booleans()) else text), str(day)


def _date_atom(draw):
    esc, lite = _date(draw)
    if draw(st.booleans()):
        esc_hi, lite_hi = _date(draw)
        return _atom(
            f"when BETWEEN {esc} AND {esc_hi}", f"day BETWEEN {lite} AND {lite_hi}"
        )
    op = draw(st.sampled_from(OPS))
    return _atom(f"when {op} {esc}", f"day {op} {lite}")


WORDS = ("alder", "elm", "oak", "pine", "", "aaa", "oak2", "Oak", "zzz", "it''s")


def _text_atom(draw):
    word = f"'{draw(st.sampled_from(WORDS))}'"
    if draw(st.booleans()):
        return _atom(f"tag BETWEEN {word} AND '{draw(st.sampled_from(WORDS))}'")
    return _atom(f"tag {draw(st.sampled_from(OPS))} {word}")


def _column_atom(draw):
    left, right = draw(
        st.sampled_from(
            [("a", "b"), ("b", "a"), ("id", "a"), ("b", "id"), ("val", "val"),
             ("when", "when")]
        )
    )
    op = draw(st.sampled_from(OPS))
    lite = f"{LITE_NAMES.get(left, left)} {op} {LITE_NAMES.get(right, right)}"
    return _atom(f"{left} {op} {right}", lite)


@st.composite
def atoms(draw):
    make = draw(
        st.sampled_from(
            [_int_atom, _decimal_atom, _date_atom, _text_atom, _column_atom]
        )
    )
    return make(draw)


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


predicates = st.recursive(
    atoms(),
    lambda children: st.one_of(
        children.map(_negate),
        st.lists(children, min_size=2, max_size=3).map(_join("AND")),
        st.lists(children, min_size=2, max_size=3).map(_join("OR")),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pred=predicates, arm=st.sampled_from(ARMS))
def test_count_matches_sqlite(engines, pred, arm):
    arms, lite = engines
    _, esc, lite_sql = pred
    (want,) = lite.execute(f"SELECT COUNT(*) FROM data WHERE {lite_sql}").fetchone()
    got = arms[arm].run(f"SELECT COUNT(*) FROM data WHERE {esc}").count
    assert got == want, (esc, lite_sql)
