"""Boolean predicate expressions over one or more tables' columns.

The parser builds these with raw constants; the analyzer rewrites them
into *resolved* form: every ColumnRef carries its table alias and kind,
and constants are normalized to the column's storage representation
(DECIMAL constants rescaled to the column scale, DATE literals to epoch
days, TEXT equality constants to dictionary codes).  Atoms that can be
decided at analysis time collapse to FoldedAtom, which keeps its column
anchor so predicate classification still knows which table it belongs to.

NULL semantics: every atom evaluates to false when any operand is NULL;
AND/OR/NOT combine the resulting two-valued masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

@dataclass(frozen=True)
class ColumnRef:
    """``alias.name`` column reference; ``table`` is None until resolved."""

    table: str | None
    name: str
    kind: object = field(default=None, compare=False)

    def __str__(self):
        return f"{self.table}.{self.name}" if self.table else self.name


class Expr:
    """Base class for predicate nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Equality(Expr):
    col: ColumnRef
    value: object

    def __str__(self):
        return f"{self.col} = {self.value}"


@dataclass(frozen=True)
class Comparison(Expr):
    col: ColumnRef
    op: str
    value: object

    def __str__(self):
        return f"{self.col} {self.op} {self.value}"


@dataclass(frozen=True)
class Range(Expr):
    """Inclusive BETWEEN."""

    col: ColumnRef
    lo: object
    hi: object

    def __str__(self):
        return f"{self.col} BETWEEN {self.lo} AND {self.hi}"


@dataclass(frozen=True)
class ColumnCompare(Expr):
    left: ColumnRef
    op: str
    right: ColumnRef

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class FnCall(Expr):
    """``name(args...) op value`` over a registered scalar function."""

    name: str
    args: tuple[ColumnRef, ...]
    op: str
    value: object
    fn: Callable | None = field(default=None, compare=False)

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        return f"{self.name}({args}) {self.op} {self.value}"


@dataclass(frozen=True)
class FoldedAtom(Expr):
    """Atom decided at analysis time: ``result`` on non-NULL rows, false on NULL.

    Keeps the source column so join-graph classification can attribute
    the conjunct to its table.
    """

    col: ColumnRef
    result: bool

    def __str__(self):
        return f"<folded:{self.result} on {self.col}>"


@dataclass(frozen=True)
class And(Expr):
    items: tuple[Expr, ...]

    def __str__(self):
        return " AND ".join(_paren(i) for i in self.items)


@dataclass(frozen=True)
class Or(Expr):
    items: tuple[Expr, ...]

    def __str__(self):
        return " OR ".join(_paren(i) for i in self.items)


@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def __str__(self):
        return f"NOT {_paren(self.child)}"


ATOM_TYPES = (Equality, Comparison, Range, ColumnCompare, FnCall, FoldedAtom)


def _paren(e: Expr) -> str:
    if isinstance(e, (And, Or)):
        return f"({e})"
    return str(e)


def conjuncts(e: Expr) -> list[Expr]:
    """Flatten the top-level AND spine."""
    if isinstance(e, And):
        out = []
        for item in e.items:
            out.extend(conjuncts(item))
        return out
    return [e]


def conjoin(items: list[Expr]) -> Expr | None:
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def atoms(e: Expr) -> Iterator[Expr]:
    """Yield every leaf atom in the tree."""
    if isinstance(e, ATOM_TYPES):
        yield e
    elif isinstance(e, (And, Or)):
        for item in e.items:
            yield from atoms(item)
    elif isinstance(e, Not):
        yield from atoms(e.child)
    else:
        raise TypeError(f"not a predicate node: {e!r}")


def columns(e: Expr) -> set[ColumnRef]:
    out: set[ColumnRef] = set()
    for atom in atoms(e):
        if isinstance(atom, (Equality, Comparison, Range, FoldedAtom)):
            out.add(atom.col)
        elif isinstance(atom, ColumnCompare):
            out.add(atom.left)
            out.add(atom.right)
        elif isinstance(atom, FnCall):
            out.update(atom.args)
    return out


def tables(e: Expr) -> set[str]:
    return {c.table for c in columns(e)}
