"""Seeded data generators and benchmark suites.

Two dataset families mirror the shapes the engine is measured on:

* ``tpch_subset``: lineitem / orders / part / supplier with foreign-key
  containment, scaled off 1.5M orders (≈6M lineitem) at scale 1.0.
* ``ssb_subset``: a star schema (lineorder fact + date / customer /
  supplier / part dims) where the fact table carries >= 95% of all rows.
* ``custom``: one wide mixed-kind table with a NULL knob, for property
  tests.

Selected column pairs are exact copies (o_channel/o_segment,
p_class/p_subclass, the custom table's a/b) and lineitem inherits its
parent order's channel, so conjunctions over the pairs defeat any
estimator that multiplies per-column selectivities.

Suites time each cell through ``Engine.run``, whose clock covers plan
and execute.  Cells run in rounds, each round running every cell once,
so a drift in the host's speed does not land on one cell: two untimed
(cache-warming) rounds, then ``reps`` timed ones, whose median is
reported.  An overhead suite's rounds take every cell of the suite; a
plan-quality suite times one query at a time, its two arms alternating.
Overhead suites run the ``esc`` arm, which counts every filtered build
table and pushes it down, so every cell measures a sub-query and its
push-down; plan-quality runs the ``baseline`` arm against the ``esc`` arm.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import optimizer
from .catalog import Catalog
from .engine import Engine
from .errors import ScaleOutOfRange
from .storage import (
    Column,
    ColumnTable,
    Dictionary,
    KIND_DATE,
    KIND_INT64,
    KIND_TEXT,
    date_to_days,
    decimal,
)


# ---------------------------------------------------------------------------
# Generator spec
# ---------------------------------------------------------------------------

BENCHMARKS = ("tpch_subset", "ssb_subset", "custom")


@dataclass(frozen=True)
class GenSpec:
    benchmark: str
    scale: float = 0.01
    seed: int = 42
    null_fraction: float = 0.0  # custom only

    def __post_init__(self):
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"benchmark must be one of {BENCHMARKS}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ScaleOutOfRange(
                f"scale must be a finite positive number, got {self.scale}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# the most rows a generated table may have; a larger scale is a usage
# error, reported before any array is allocated
MAX_TABLE_ROWS = 2**31


def _scaled(base: int, scale: float, what: str) -> int:
    rows = base * scale
    if rows > MAX_TABLE_ROWS:
        raise ScaleOutOfRange(
            f"scale {scale} yields {rows:g} rows for {what} "
            f"(at most {MAX_TABLE_ROWS} allowed)"
        )
    n = round(rows)
    if n < 1:
        raise ScaleOutOfRange(
            f"scale {scale} yields {n} rows for {what} (needs >= 1)"
        )
    return n


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one independent, reproducible stream per table
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


# ---------------------------------------------------------------------------
# Column builders (arrays in, storage columns out)
# ---------------------------------------------------------------------------


def _ints(name, arr, nulls=None):
    arr = np.asarray(arr, dtype=np.int64)
    mask = np.zeros(len(arr), bool) if nulls is None else nulls
    if nulls is not None:
        arr = np.where(mask, 0, arr)
    return Column(name, KIND_INT64, arr, mask)


def _dates(name, days, nulls=None):
    c = _ints(name, days, nulls)
    return Column(name, KIND_DATE, c.values, c.null_mask)


def _decimals(name, cents, nulls=None):
    c = _ints(name, cents, nulls)
    return Column(name, decimal(15, 2), c.values, c.null_mask)


def _texts(name, indices, vocab, nulls=None):
    """A TEXT column whose row ``i`` holds ``vocab[indices[i]]``."""
    d = Dictionary(vocab)
    c = _ints(name, d.codes(vocab)[indices], nulls)
    return Column(name, KIND_TEXT, c.values, c.null_mask, d)


DAY_1992 = date_to_days("1992-01-01")
DAY_1998_0802 = date_to_days("1998-08-02")
SSB_DAYS = 2556  # 1992-01-01 .. 1998-12-30, fixed calendar dimension


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate(spec: GenSpec) -> dict[str, ColumnTable]:
    """Deterministic tables for ``spec``; identical spec, identical bytes."""
    if spec.benchmark == "tpch_subset":
        return _gen_tpch(spec)
    if spec.benchmark == "ssb_subset":
        return _gen_ssb(spec)
    return _gen_custom(spec)


def _gen_tpch(spec: GenSpec) -> dict[str, ColumnTable]:
    orders_n = _scaled(1_500_000, spec.scale, "orders")
    _scaled(7 * 1_500_000, spec.scale, "lineitem")  # at most 7 lines per order
    part_n = _scaled(200_000, spec.scale, "part")
    supp_n = _scaled(10_000, spec.scale, "supplier")

    g = _rng(spec.seed, 1)
    okey = np.arange(1, orders_n + 1, dtype=np.int64)
    channel = g.integers(0, 1000, orders_n)
    orders = ColumnTable(
        "orders",
        [
            _ints("o_orderkey", okey),
            _ints("o_custkey", g.integers(1, max(orders_n // 10, 1) + 1, orders_n)),
            _ints("o_channel", channel),
            _ints("o_segment", channel.copy()),
            _texts(
                "o_orderstatus",
                g.choice(3, orders_n, p=[0.49, 0.49, 0.02]),
                ["F", "O", "P"],
            ),
            _decimals("o_totalprice", g.integers(90_000, 45_000_001, orders_n)),
            _dates("o_orderdate", g.integers(DAY_1992, DAY_1998_0802 + 1, orders_n)),
        ],
    )

    g = _rng(spec.seed, 2)
    lines = g.integers(1, 8, orders_n)
    nl = int(lines.sum())
    lineitem = ColumnTable(
        "lineitem",
        [
            _ints("l_orderkey", np.repeat(okey, lines)),
            _ints("l_partkey", g.integers(1, part_n + 1, nl)),
            _ints("l_suppkey", g.integers(1, supp_n + 1, nl)),
            _ints("l_quantity", g.integers(1, 51, nl)),
            _ints("l_orderchannel", np.repeat(channel, lines)),
            _decimals("l_extendedprice", g.integers(10_000, 10_000_001, nl)),
            _dates("l_shipdate", g.integers(DAY_1992, DAY_1998_0802 + 1, nl)),
        ],
    )

    g = _rng(spec.seed, 3)
    p_class = g.integers(0, 1000, part_n)
    part = ColumnTable(
        "part",
        [
            _ints("p_partkey", np.arange(1, part_n + 1, dtype=np.int64)),
            _ints("p_class", p_class),
            _ints("p_subclass", p_class.copy()),
            _texts(
                "p_brand",
                g.integers(0, 25, part_n),
                [f"BRAND{i:02d}" for i in range(25)],
            ),
            _decimals("p_retailprice", g.integers(10_000, 200_001, part_n)),
        ],
    )

    g = _rng(spec.seed, 4)
    supplier = ColumnTable(
        "supplier",
        [
            _ints("s_suppkey", np.arange(1, supp_n + 1, dtype=np.int64)),
            _ints("s_nationkey", g.integers(0, 25, supp_n)),
            _decimals("s_acctbal", g.integers(-99_999, 1_000_000, supp_n)),
        ],
    )
    return {
        "orders": orders,
        "lineitem": lineitem,
        "part": part,
        "supplier": supplier,
    }


def _gen_ssb(spec: GenSpec) -> dict[str, ColumnTable]:
    cust_n = _scaled(30_000, spec.scale, "customer")
    supp_n = _scaled(2_000, spec.scale, "supplier")
    part_n = _scaled(200_000, spec.scale, "part")
    lo_n = _scaled(6_000_000, spec.scale, "lineorder")

    days = np.arange(SSB_DAYS, dtype=np.int64) + DAY_1992
    d64 = days.astype("datetime64[D]")
    years = d64.astype("datetime64[Y]").astype(np.int64) + 1970
    months = (d64.astype("datetime64[M]") - d64.astype("datetime64[Y]")).astype(
        np.int64
    ) + 1
    date_dim = ColumnTable(
        "date",
        [
            _ints("d_datekey", np.arange(1, SSB_DAYS + 1, dtype=np.int64)),
            _dates("d_date", days),
            _ints("d_year", years),
            _ints("d_month", months),
            _ints("d_yearmonthnum", years * 100 + months),
        ],
    )

    regions = [f"REGION{i}" for i in range(5)]
    nations = [f"NATION{i:02d}" for i in range(25)]
    cities = [f"CITY{i:03d}" for i in range(250)]

    # customer: region 0 holds 60% of rows (weak region filters)
    g = _rng(spec.seed, 11)
    c_nation = g.choice(25, cust_n, p=[0.12] * 5 + [0.02] * 20)
    customer = ColumnTable(
        "customer",
        [
            _ints("c_custkey", np.arange(1, cust_n + 1, dtype=np.int64)),
            _texts("c_region", c_nation // 5, regions),
            _texts("c_nation", c_nation, nations),
            _texts("c_city", c_nation * 10 + g.integers(0, 10, cust_n), cities),
        ],
    )

    # supplier: region 0 holds 92% (region filters pass almost everything)
    g = _rng(spec.seed, 12)
    s_nation = g.choice(25, supp_n, p=[0.184] * 5 + [0.004] * 20)
    supplier = ColumnTable(
        "supplier",
        [
            _ints("s_suppkey", np.arange(1, supp_n + 1, dtype=np.int64)),
            _texts("s_region", s_nation // 5, regions),
            _texts("s_nation", s_nation, nations),
            _texts("s_city", s_nation * 10 + g.integers(0, 10, supp_n), cities),
        ],
    )

    g = _rng(spec.seed, 13)
    mfgr = g.integers(0, 5, part_n)
    category = mfgr * 5 + g.integers(0, 5, part_n)
    brand = category * 40 + g.integers(0, 40, part_n)
    part = ColumnTable(
        "part",
        [
            _ints("p_partkey", np.arange(1, part_n + 1, dtype=np.int64)),
            _texts("p_mfgr", mfgr, [f"MFGR{i + 1}" for i in range(5)]),
            _texts("p_category", category, [f"CAT{i:02d}" for i in range(25)]),
            _texts("p_brand1", brand, [f"BRAND{i:03d}" for i in range(1000)]),
        ],
    )

    dims_total = SSB_DAYS + cust_n + supp_n + part_n
    # fact must carry >= 95% of all rows even when the fixed date dim dominates
    lo_n = max(lo_n, 19 * dims_total)
    g = _rng(spec.seed, 14)
    lineorder = ColumnTable(
        "lineorder",
        [
            _ints("lo_orderkey", np.arange(1, lo_n + 1, dtype=np.int64)),
            _ints("lo_custkey", g.integers(1, cust_n + 1, lo_n)),
            _ints("lo_suppkey", g.integers(1, supp_n + 1, lo_n)),
            _ints("lo_partkey", g.integers(1, part_n + 1, lo_n)),
            _ints("lo_orderdate", g.integers(1, SSB_DAYS + 1, lo_n)),
            _ints("lo_quantity", g.integers(1, 51, lo_n)),
            _decimals("lo_revenue", g.integers(100_000, 10_000_001, lo_n)),
        ],
    )
    return {
        "lineorder": lineorder,
        "date": date_dim,
        "customer": customer,
        "supplier": supplier,
        "part": part,
    }


_WORDS = ["alder", "birch", "cedar", "elm", "fir", "hazel", "larch", "maple", "oak", "pine"]


def _gen_custom(spec: GenSpec) -> dict[str, ColumnTable]:
    n = _scaled(1_000_000, spec.scale, "data")
    g = _rng(spec.seed, 21)
    a = g.integers(0, 1000, n)
    b = a.copy()

    def nulls():
        if spec.null_fraction <= 0:
            return None
        return g.random(n) < spec.null_fraction

    data = ColumnTable(
        "data",
        [
            _ints("id", np.arange(1, n + 1, dtype=np.int64)),
            _ints("a", a, nulls()),
            _ints("b", b, nulls()),
            _decimals("val", g.integers(0, 1_000_001, n), nulls()),
            _dates("when", g.integers(DAY_1992, DAY_1998_0802 + 1, n), nulls()),
            _texts("tag", g.integers(0, len(_WORDS), n), _WORDS, nulls()),
        ],
    )
    return {"data": data}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class BenchReport:
    suite: str
    benchmark: str
    scale: object  # one scale or the list a suite sweeps
    seed: int
    rows: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "spec": {
                "benchmark": self.benchmark,
                "scale": self.scale,
                "seed": self.seed,
            },
            "rows": self.rows,
        }

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    def speedups(self) -> dict[str, float]:
        """baseline_time / esc_time per query (overhead inside esc_time)."""
        by_query: dict[str, dict[str, float]] = {}
        for r in self.rows:
            by_query.setdefault(r["query"], {})[r["arm"]] = r["time_ms"]
        out = {}
        for q, arms in by_query.items():
            if "baseline" in arms and "esc" in arms and arms["esc"] > 0:
                out[q] = arms["baseline"] / arms["esc"]
        return out

    def overhead_ratio(self) -> float | None:
        """max/min of the per-row sub-query overhead (flatness check)."""
        vals = [r["overhead_ms"] for r in self.rows if r["overhead_ms"] > 0]
        if not vals:
            return None
        return max(vals) / min(vals)

    def to_text(self) -> str:
        headers = [
            "query",
            "arm",
            "time_ms",
            "overhead_ms",
            "build_cards",
            "result",
        ]
        table = [headers]
        for r in self.rows:
            table.append(
                [
                    r["query"],
                    r["arm"],
                    f"{r['time_ms']:.3f}",
                    f"{r['overhead_ms']:.3f}",
                    str(r["build_card_sum"]),
                    str(r["result_count"]),
                ]
            )
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = [f"suite: {self.suite}  benchmark: {self.benchmark} "
                 f"scale: {self.scale}  seed: {self.seed}"]
        for i, row in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        ups = self.speedups()
        for q in sorted(ups):
            lines.append(f"speedup {q}: {ups[q]:.2f}x")
        ratio = self.overhead_ratio()
        if ratio is not None and not ups:
            lines.append(f"overhead max/min ratio: {ratio:.2f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Timing harness
# ---------------------------------------------------------------------------


# untimed rounds first; after only one, a fresh process timed its cells slow
WARMUP_ROUNDS = 2


def _timed_cells(cells: list[tuple[str, str, Engine, str]], reps: int) -> list[dict]:
    """Median-of-reps timing for each ``(label, arm, engine, sql)`` cell.

    Runs ``reps + WARMUP_ROUNDS`` rounds, each running every cell once
    in turn, and discards the warm-up rounds.  Alternating the cells
    round by round spreads any drift in the host's speed over every cell
    alike.  Every run re-plans, so ESC sub-query and push-down time lands
    inside ``time_ms``; ``overhead_ms`` reports that share separately.
    """
    times = [[] for _ in cells]
    overheads = [[] for _ in cells]
    last = [None] * len(cells)
    for _ in range(reps + WARMUP_ROUNDS):
        for i, (_, _, engine, sql) in enumerate(cells):
            last[i] = result = engine.run(sql)
            times[i].append(result.time_ms)
            overheads[i].append(result.plan.overhead_ms)
    return [
        {
            "query": label,
            "arm": arm,
            "time_ms": statistics.median(t[WARMUP_ROUNDS:]),
            "overhead_ms": statistics.median(o[WARMUP_ROUNDS:]),
            "build_card_sum": result.plan.build_card_sum,
            "probe_tuples": sum(result.stats.probe_out),
            "result_count": result.count,
            "decisions": optimizer.explain_json(result.plan)["decisions"],
        }
        for (label, arm, _, _), t, o, result in zip(cells, times, overheads, last)
    ]


def _overhead_engine(tables: dict[str, ColumnTable]) -> Engine:
    engine = Engine()
    for t in tables.values():
        engine.catalog.register(t)
    return engine


# ---------------------------------------------------------------------------
# Overhead suites
# ---------------------------------------------------------------------------

_SCALE_TABLES = (
    ("orders", "l_orderkey = o_orderkey", "o_custkey = 7"),
    ("part", "l_partkey = p_partkey", "p_class = 500"),
    ("supplier", "l_suppkey = s_suppkey", "s_nationkey = 7"),
)


def overhead_suite_scale(
    scales=(0.001, 0.01, 0.05), seed: int = 42, reps: int = 5
) -> BenchReport:
    """3 scales x 3 joined tables, sub-query and push-down overhead per
    cell."""
    report = BenchReport("overhead-scale", "tpch_subset", list(scales), seed)
    cells = []
    for scale in scales:
        tables = generate(GenSpec("tpch_subset", scale, seed))
        engine = _overhead_engine(tables)
        for table, join, pred in _SCALE_TABLES:
            sql = f"SELECT COUNT(*) FROM lineitem, {table} WHERE {join} AND {pred}"
            cells.append((f"scale={scale} table={table}", "esc", engine, sql))
    report.rows = _timed_cells(cells, reps)
    return report


def overhead_suite_selectivity(
    fractions=(0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0),
    scale: float = 0.01,
    seed: int = 42,
    reps: int = 5,
) -> BenchReport:
    """Six selectivity points on the orders key domain, fixed scale.

    ``u`` is chosen so the range predicate o_orderkey < u matches
    max(round(N * fraction), 1) rows; at 100% that is u = max key + 1.
    """
    report = BenchReport("overhead-selectivity", "tpch_subset", scale, seed)
    tables = generate(GenSpec("tpch_subset", scale, seed))
    engine = _overhead_engine(tables)
    n = tables["orders"].row_count
    cells = []
    for f in fractions:
        u = max(round(n * f), 1) + 1
        sql = (
            "SELECT COUNT(*) FROM lineitem, orders "
            f"WHERE l_orderkey = o_orderkey AND o_orderkey < {u}"
        )
        cells.append((f"fraction={f}", "esc", engine, sql))
    report.rows = _timed_cells(cells, reps)
    return report


def overhead_suite_attributes(
    scale: float = 0.01, seed: int = 42, reps: int = 5
) -> BenchReport:
    """1..4-attribute equality conjunctions on orders.

    Constants come from one existing row, so every prefix of the
    conjunction matches at least that row (counts positive, and
    non-increasing as attributes are added).  Attribute 3 is TEXT,
    attribute 4 DECIMAL.
    """
    report = BenchReport("overhead-attributes", "tpch_subset", scale, seed)
    tables = generate(GenSpec("tpch_subset", scale, seed))
    engine = _overhead_engine(tables)
    orders = tables["orders"]
    row = orders.row(orders.row_count // 3)
    vals = dict(zip([c.name for c in orders.columns], row))
    atoms = [
        f"o_custkey = {vals['o_custkey']}",
        f"o_channel = {vals['o_channel']}",
        f"o_orderstatus = '{vals['o_orderstatus']}'",
        f"o_totalprice = {vals['o_totalprice']}",
    ]
    cells = []
    for k in range(1, 5):
        pred = " AND ".join(atoms[:k])
        sql = (
            "SELECT COUNT(*) FROM lineitem, orders "
            f"WHERE l_orderkey = o_orderkey AND {pred}"
        )
        cells.append((f"attrs={k}", "esc", engine, sql))
    report.rows = _timed_cells(cells, reps)
    return report


# ---------------------------------------------------------------------------
# Plan-quality suite
# ---------------------------------------------------------------------------


def _mix200(a: float, b: float) -> float:
    return (a * 31.0 + b) % 200.0


def tpch4_queries() -> list[tuple[str, str]]:
    """Four 3-table joins, one selection per table.

    The conjunctions over copied column pairs (o_channel/o_segment,
    p_class/p_subclass) are exactly as selective as one atom, which an
    independence-assuming estimator underestimates by orders of
    magnitude; query 4 filters through a UDF no histogram can see.
    """
    return [
        (
            "tpch4.1",
            "SELECT COUNT(*) FROM lineitem, orders, part "
            "WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey "
            "AND l_quantity <= 45 "
            "AND o_channel < 10 AND o_segment < 10 AND p_class < 900",
        ),
        (
            "tpch4.2",
            "SELECT COUNT(*) FROM lineitem, orders, supplier "
            "WHERE l_orderkey = o_orderkey AND l_suppkey = s_suppkey "
            "AND l_quantity <= 40 "
            "AND o_channel = 7 AND o_segment = 7 AND s_nationkey >= 2",
        ),
        (
            "tpch4.3",
            "SELECT COUNT(*) FROM lineitem, part, supplier "
            "WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey "
            "AND l_quantity <= 35 "
            "AND p_class < 30 AND p_subclass < 30 AND s_nationkey >= 1",
        ),
        (
            "tpch4.4",
            "SELECT COUNT(*) FROM lineitem, orders, part "
            "WHERE l_orderkey = o_orderkey AND l_partkey = p_partkey "
            "AND l_orderchannel < 500 "
            "AND mix200(o_custkey, o_channel) < 50 AND p_class < 850",
        ),
    ]


def ssb_queries() -> list[tuple[str, str]]:
    """SSB flights 2.x/3.x/4.x reduced to COUNT(*) over the same joins."""
    j_d = "lo_orderdate = d_datekey"
    j_p = "lo_partkey = p_partkey"
    j_s = "lo_suppkey = s_suppkey"
    j_c = "lo_custkey = c_custkey"
    return [
        (
            "ssb2.1",
            f"SELECT COUNT(*) FROM lineorder, date, part, supplier "
            f"WHERE {j_d} AND {j_p} AND {j_s} "
            f"AND p_category = 'CAT12' AND s_region = 'REGION0'",
        ),
        (
            "ssb2.2",
            f"SELECT COUNT(*) FROM lineorder, date, part, supplier "
            f"WHERE {j_d} AND {j_p} AND {j_s} "
            f"AND p_brand1 BETWEEN 'BRAND240' AND 'BRAND247' "
            f"AND s_region = 'REGION0'",
        ),
        (
            "ssb2.3",
            f"SELECT COUNT(*) FROM lineorder, date, part, supplier "
            f"WHERE {j_d} AND {j_p} AND {j_s} "
            f"AND p_brand1 = 'BRAND244' AND s_region = 'REGION0'",
        ),
        (
            "ssb3.1",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, date "
            f"WHERE {j_c} AND {j_s} AND {j_d} "
            f"AND c_region = 'REGION0' AND s_region = 'REGION0' "
            f"AND d_year BETWEEN 1993 AND 1997",
        ),
        (
            "ssb3.2",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, date "
            f"WHERE {j_c} AND {j_s} AND {j_d} "
            f"AND c_nation = 'NATION02' AND s_nation = 'NATION02' "
            f"AND d_year BETWEEN 1993 AND 1997",
        ),
        (
            "ssb3.3",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, date "
            f"WHERE {j_c} AND {j_s} AND {j_d} "
            f"AND (c_city = 'CITY021' OR c_city = 'CITY025') "
            f"AND (s_city = 'CITY021' OR s_city = 'CITY025') "
            f"AND d_year BETWEEN 1993 AND 1997",
        ),
        (
            "ssb3.4",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, date "
            f"WHERE {j_c} AND {j_s} AND {j_d} "
            f"AND (c_city = 'CITY021' OR c_city = 'CITY025') "
            f"AND (s_city = 'CITY021' OR s_city = 'CITY025') "
            f"AND d_yearmonthnum = 199712",
        ),
        (
            "ssb4.1",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, part, date "
            f"WHERE {j_c} AND {j_s} AND {j_p} AND {j_d} "
            f"AND c_region = 'REGION0' AND s_region = 'REGION0' "
            f"AND (p_mfgr = 'MFGR1' OR p_mfgr = 'MFGR2')",
        ),
        (
            "ssb4.2",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, part, date "
            f"WHERE {j_c} AND {j_s} AND {j_p} AND {j_d} "
            f"AND c_region = 'REGION0' AND s_region = 'REGION0' "
            f"AND (p_mfgr = 'MFGR1' OR p_mfgr = 'MFGR2') "
            f"AND (d_year = 1997 OR d_year = 1998)",
        ),
        (
            "ssb4.3",
            f"SELECT COUNT(*) FROM lineorder, customer, supplier, part, date "
            f"WHERE {j_c} AND {j_s} AND {j_p} AND {j_d} "
            f"AND c_region = 'REGION0' AND s_region = 'REGION0' "
            f"AND p_category = 'CAT13' AND d_year = 1997",
        ),
    ]


def plan_quality_catalog(which: str, scale: float, seed: int) -> Catalog:
    benchmark = "tpch_subset" if which == "tpch4" else "ssb_subset"
    catalog = Catalog()
    for t in generate(GenSpec(benchmark, scale, seed)).values():
        catalog.register(t)
    if which == "tpch4":
        catalog.register_udf("mix200", 2, _mix200)
    return catalog


def plan_quality_suite(
    which: str = "tpch4",
    scale: float = 0.01,
    seed: int = 42,
    reps: int = 5,
) -> BenchReport:
    """The ``baseline`` arm vs the ``esc`` arm per query, one engine per
    arm over one shared catalog."""
    if which not in ("tpch4", "ssb"):
        raise ValueError("which must be 'tpch4' or 'ssb'")
    queries = tpch4_queries() if which == "tpch4" else ssb_queries()
    benchmark = "tpch_subset" if which == "tpch4" else "ssb_subset"
    catalog = plan_quality_catalog(which, scale, seed)
    engines = {}
    for arm in ("baseline", "esc"):
        engines[arm] = Engine(arm)
        engines[arm].catalog = catalog
    report = BenchReport(which, benchmark, scale, seed)
    for label, sql in queries:
        cells = [(label, arm, engine, sql) for arm, engine in engines.items()]
        report.rows += _timed_cells(cells, reps)
    return report


SUITES = {
    "overhead-scale": overhead_suite_scale,
    "overhead-selectivity": overhead_suite_selectivity,
    "overhead-attrs": overhead_suite_attributes,
    "tpch4": lambda **kw: plan_quality_suite("tpch4", **kw),
    "ssb": lambda **kw: plan_quality_suite("ssb", **kw),
}
