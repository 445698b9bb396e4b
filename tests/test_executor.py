import random

import numpy as np
import pytest

from escdb import expr as ex
from escdb.errors import ExecutionError
from escdb.executor import (
    BuildStep,
    HashTableIndex,
    RowSelection,
    build_hash,
    count_star,
    eval_predicate,
    probe_joins,
)
from escdb.storage import ColumnTable, KIND_INT64, KIND_TEXT, append_rows

from oracles import oracle_join, oracle_select, table_multiset


class PredGen:
    """Random resolved predicates whose constants come from stored values,
    so generated atoms have non-trivial selectivity."""

    OPS = ("<", "<=", ">", ">=", "<>")

    def __init__(self, table, rng):
        self.table = table
        self.rng = rng
        self.cols = list(table.columns)
        self.int_cols = [c for c in self.cols if not c.kind.is_text]

    def _stored(self, col):
        for _ in range(50):
            i = self.rng.randrange(self.table.row_count)
            if not col.null_mask[i]:
                return int(col.values[i])
        return 0

    def _ref(self, col):
        return ex.ColumnRef(self.table.name, col.name, col.kind)

    def atom(self):
        r = self.rng.random()
        if r < 0.08:
            a, b = self.rng.sample(
                [c for c in self.int_cols if c.kind is KIND_INT64], 2
            )
            return ex.ColumnCompare(
                self._ref(a), self.rng.choice(self.OPS + ("=",)), self._ref(b)
            )
        if r < 0.16:
            a, b = self.rng.sample(self.int_cols, 2)
            return ex.FnCall(
                "mixy",
                (self._ref(a), self._ref(b)),
                self.rng.choice(("<", ">=")),
                float(self.rng.randrange(13)),
                lambda x, y: (x * 7.0 + y) % 13.0,
            )
        col = self.rng.choice(self.cols)
        ref = self._ref(col)
        if col.kind.is_text:
            if r < 0.6:
                return ex.Equality(ref, self._stored(col))
            word = col.dictionary.decode(self._stored(col))
            return ex.Comparison(ref, self.rng.choice(self.OPS[:4]), word)
        if r < 0.4:
            return ex.Equality(ref, self._stored(col))
        if r < 0.8:
            return ex.Comparison(ref, self.rng.choice(self.OPS), self._stored(col))
        if r < 0.93:
            lo, hi = sorted((self._stored(col), self._stored(col)))
            return ex.Range(ref, lo, hi)
        return ex.FoldedAtom(ref, self.rng.random() < 0.5)

    def pred(self, depth=0):
        r = self.rng.random()
        if depth >= 3 or r < 0.45:
            return self.atom()
        if r < 0.7:
            return ex.And(tuple(self.pred(depth + 1) for _ in range(2)))
        if r < 0.9:
            return ex.Or(tuple(self.pred(depth + 1) for _ in range(2)))
        return ex.Not(self.pred(depth + 1))


class TestEvalPredicate:
    def test_matches_oracle_on_random_predicates(self, custom_nulls):
        gen = PredGen(custom_nulls, random.Random(101))
        for _ in range(60):
            pred = gen.pred()
            got = eval_predicate(custom_nulls, pred).to_indices().tolist()
            assert got == oracle_select(custom_nulls, pred), str(pred)

    def test_none_pred_selects_all(self, custom_nulls):
        sel = eval_predicate(custom_nulls, None)
        assert sel.count == custom_nulls.row_count

    def test_chaining_equals_conjunction(self, custom_nulls):
        gen = PredGen(custom_nulls, random.Random(77))
        for _ in range(15):
            a, b = gen.pred(), gen.pred()
            chained = eval_predicate(
                custom_nulls, b, eval_predicate(custom_nulls, a)
            )
            fused = eval_predicate(custom_nulls, ex.And((a, b)))
            assert chained.to_indices().tolist() == fused.to_indices().tolist()

    def test_folded_false_excludes_everything(self, custom_nulls):
        col = custom_nulls.column("a")
        pred = ex.FoldedAtom(ex.ColumnRef("data", "a", col.kind), False)
        assert eval_predicate(custom_nulls, pred).count == 0

    def test_folded_true_excludes_only_nulls(self, custom_nulls):
        col = custom_nulls.column("a")
        pred = ex.FoldedAtom(ex.ColumnRef("data", "a", col.kind), True)
        n_null = int(col.null_mask.sum())
        assert n_null > 0  # fixture has nulls by construction
        assert eval_predicate(custom_nulls, pred).count == (
            custom_nulls.row_count - n_null
        )

    def test_not_readmits_null_rows(self, custom_nulls):
        """Two-valued NOT: rows where the atom was false-by-NULL flip to
        true under NOT, matching the oracle's semantics."""
        col = custom_nulls.column("a")
        ref = ex.ColumnRef("data", "a", col.kind)
        atom = ex.Comparison(ref, "<", 10**9)  # true on every non-null row
        sel = eval_predicate(custom_nulls, ex.Not(atom))
        assert sel.count == int(col.null_mask.sum())


class TestCountStar:
    def test_equals_selection_count(self, custom_nulls):
        gen = PredGen(custom_nulls, random.Random(55))
        for _ in range(20):
            pred = gen.pred()
            assert count_star(custom_nulls, pred) == eval_predicate(
                custom_nulls, pred
            ).count

    def test_none_pred(self, custom_nulls):
        assert count_star(custom_nulls, None) == custom_nulls.row_count


def _int_col_table(name, **columns):
    """Build a table of INT64 columns from python lists (None = NULL)."""
    names = list(columns)
    schema = [(n, KIND_INT64) for n in names]
    rows = zip(*(columns[n] for n in names))
    return append_rows(
        ColumnTable.empty(name, schema),
        [[None if v is None else str(v) for v in row] for row in rows],
    )


class TestHashIndex:
    def _oracle_map(self, keys):
        out = {}
        for i, k in enumerate(keys):
            if k is not None:
                out.setdefault(k, []).append(i)
        return out

    def test_lookup_matches_dict_oracle(self):
        rng = random.Random(9)
        keys = [rng.randrange(50) if rng.random() > 0.1 else None for _ in range(2000)]
        t = _int_col_table("t", k=keys)
        idx = build_hash(t, "k")
        want = self._oracle_map(keys)
        assert idx.n_entries == sum(len(v) for v in want.values())
        assert idx.distinct_keys == len(want)
        for k in list(want) + [-1, 50, 10**9]:
            assert sorted(idx.lookup(k).tolist()) == want.get(k, [])

    def test_probe_groups_vectorized(self):
        keys = [5, 5, 7, None, 9]
        t = _int_col_table("t", k=keys)
        idx = build_hash(t, "k")
        probes = np.asarray([5, 6, 7, 9, 5], dtype=np.int64)
        groups = idx.probe_groups(probes, np.ones(5, dtype=bool))
        assert (groups >= 0).tolist() == [True, False, True, True, True]
        # same key -> same group
        assert groups[0] == groups[4]

    def test_invalid_probe_positions_miss(self):
        t = _int_col_table("t", k=[1, 2, 3])
        idx = build_hash(t, "k")
        groups = idx.probe_groups(
            np.asarray([1, 2], dtype=np.int64), np.asarray([True, False])
        )
        assert groups[0] >= 0 and groups[1] == -1

    def test_empty_build(self):
        t = _int_col_table("t", k=[])
        idx = build_hash(t, "k")
        assert idx.n_entries == 0 and idx.distinct_keys == 0
        assert idx.lookup(5).size == 0
        g = idx.probe_groups(np.asarray([5], dtype=np.int64), np.ones(1, dtype=bool))
        assert g.tolist() == [-1]

    def test_all_null_keys(self):
        t = _int_col_table("t", k=[None, None])
        assert build_hash(t, "k").n_entries == 0

    def test_residual_filters_build_rows(self):
        t = _int_col_table("t", k=[1, 1, 2, 3], v=[10, 20, 30, 40])
        idx = build_hash(
            t, "k", ex.Comparison(ex.ColumnRef("t", "v"), ">=", 20)
        )
        assert idx.n_entries == 3
        assert sorted(idx.lookup(1).tolist()) == [1]

    def test_heavy_duplicates(self):
        rng = random.Random(4)
        keys = [rng.randrange(3) for _ in range(5000)]
        t = _int_col_table("t", k=keys)
        idx = build_hash(t, "k")
        want = self._oracle_map(keys)
        for k in range(3):
            assert sorted(idx.lookup(k).tolist()) == want[k]


@pytest.fixture(scope="module")
def join_data():
    rng = random.Random(13)
    n_orders, n_parts, n_lines = 15, 8, 40
    orders = []
    for i in range(1, n_orders + 1):
        orders.append(
            dict(
                o_id=i,
                o_ch=rng.randrange(10),
                o_pid=rng.randrange(1, n_parts + 1),
            )
        )
    parts = [
        dict(p_id=i, p_cls=rng.randrange(5)) for i in range(1, n_parts + 1)
    ]
    # duplicate part key to exercise multi-row match expansion
    parts.append(dict(p_id=3, p_cls=1))
    lines = []
    for _ in range(n_lines):
        lines.append(
            dict(
                l_oid=rng.randrange(1, n_orders + 1) if rng.random() > 0.1 else None,
                l_pid=rng.randrange(1, n_parts + 1),
                l_qty=rng.randrange(1, 50),
            )
        )
    cols = lambda recs, k: [r[k] for r in recs]
    return {
        "orders": _int_col_table(
            "orders",
            o_id=cols(orders, "o_id"),
            o_ch=cols(orders, "o_ch"),
            o_pid=cols(orders, "o_pid"),
        ),
        "parts": _int_col_table(
            "parts", p_id=cols(parts, "p_id"), p_cls=cols(parts, "p_cls")
        ),
        "lines": _int_col_table(
            "lines",
            l_oid=cols(lines, "l_oid"),
            l_pid=cols(lines, "l_pid"),
            l_qty=cols(lines, "l_qty"),
        ),
    }


def _ref(t, c):
    return ex.ColumnRef(t, c)


class TestProbeJoins:
    def _steps(self, d, order=("orders", "parts")):
        steps = []
        for alias in order:
            if alias == "orders":
                steps.append(
                    BuildStep(
                        "orders",
                        build_hash(
                            d["orders"],
                            "o_id",
                            ex.Comparison(_ref("orders", "o_ch"), "<", 6),
                        ),
                        _ref("lines", "l_oid"),
                    )
                )
            else:
                steps.append(
                    BuildStep(
                        "parts",
                        build_hash(d["parts"], "p_id"),
                        _ref("lines", "l_pid"),
                    )
                )
        return steps

    def _full_pred(self):
        return ex.And(
            (
                ex.ColumnCompare(_ref("lines", "l_oid"), "=", _ref("orders", "o_id")),
                ex.ColumnCompare(_ref("lines", "l_pid"), "=", _ref("parts", "p_id")),
                ex.Comparison(_ref("orders", "o_ch"), "<", 6),
                ex.Comparison(_ref("lines", "l_qty"), ">", 5),
            )
        )

    def test_count_matches_nested_loop_oracle(self, join_data):
        probe_pred = ex.Comparison(_ref("lines", "l_qty"), ">", 5)
        _, stats = probe_joins(
            join_data["lines"], "lines", probe_pred, self._steps(join_data), None
        )
        want, _ = oracle_join(join_data, self._full_pred())
        assert want > 0  # non-degenerate scenario
        assert stats.result_rows == want

    def test_build_order_does_not_change_count(self, join_data):
        probe_pred = ex.Comparison(_ref("lines", "l_qty"), ">", 5)
        a = probe_joins(
            join_data["lines"], "lines", probe_pred,
            self._steps(join_data, ("orders", "parts")), None,
        )[1].result_rows
        b = probe_joins(
            join_data["lines"], "lines", probe_pred,
            self._steps(join_data, ("parts", "orders")), None,
        )[1].result_rows
        assert a == b

    def test_projection_multiset_matches_oracle(self, join_data):
        projection = (
            _ref("lines", "l_qty"),
            _ref("orders", "o_ch"),
            _ref("parts", "p_cls"),
        )
        probe_pred = ex.Comparison(_ref("lines", "l_qty"), ">", 5)
        result, stats = probe_joins(
            join_data["lines"], "lines", probe_pred,
            self._steps(join_data), projection,
        )
        want_count, want_bag = oracle_join(join_data, self._full_pred(), projection)
        assert stats.materialized_rows == result.row_count == want_count
        assert table_multiset(result) == want_bag

    def test_probe_key_from_earlier_build(self, join_data):
        """Second hash table probed with a column of the first build's
        matched rows, not of the probe table."""
        steps = [
            BuildStep(
                "orders", build_hash(join_data["orders"], "o_id"),
                _ref("lines", "l_oid"),
            ),
            BuildStep(
                "parts", build_hash(join_data["parts"], "p_id"),
                _ref("orders", "o_pid"),
            ),
        ]
        _, stats = probe_joins(join_data["lines"], "lines", None, steps, None)
        pred = ex.And(
            (
                ex.ColumnCompare(_ref("lines", "l_oid"), "=", _ref("orders", "o_id")),
                ex.ColumnCompare(_ref("orders", "o_pid"), "=", _ref("parts", "p_id")),
            )
        )
        want, _ = oracle_join(join_data, pred)
        assert want > 0
        assert stats.result_rows == want

    def test_empty_build_side_short_circuits_results(self, join_data):
        steps = [
            BuildStep(
                "orders",
                build_hash(
                    join_data["orders"], "o_id",
                    ex.Comparison(_ref("orders", "o_ch"), "<", -1),
                ),
                _ref("lines", "l_oid"),
            )
        ]
        result, stats = probe_joins(
            join_data["lines"], "lines", None, steps, (_ref("lines", "l_qty"),)
        )
        assert stats.build_cards == [0]
        assert stats.result_rows == 0 and result.row_count == 0

    def test_null_probe_keys_never_match(self):
        lines = _int_col_table("lines", l_oid=[1, None, 1], l_qty=[1, 2, 3])
        orders = _int_col_table("orders", o_id=[1])
        steps = [
            BuildStep("orders", build_hash(orders, "o_id"), _ref("lines", "l_oid"))
        ]
        _, stats = probe_joins(lines, "lines", None, steps, None)
        assert stats.result_rows == 2

    def test_workers_preserve_order_and_rows(self, join_data):
        projection = (
            _ref("lines", "l_qty"),
            _ref("orders", "o_ch"),
            _ref("parts", "p_cls"),
        )
        probe_pred = ex.Comparison(_ref("lines", "l_qty"), ">", 5)
        results = []
        for w in (1, 3, 8):
            result, _ = probe_joins(
                join_data["lines"], "lines", probe_pred,
                self._steps(join_data), projection, workers=w,
            )
            results.append(
                [result.row(i) for i in range(result.row_count)]
            )
        assert results[0] == results[1] == results[2]

    def test_stats_shape(self, join_data):
        probe_pred = ex.Comparison(_ref("lines", "l_qty"), ">", 5)
        steps = self._steps(join_data)
        result, stats = probe_joins(
            join_data["lines"], "lines", probe_pred, steps,
            (_ref("lines", "l_qty"),),
        )
        assert stats.probe_in == join_data["lines"].row_count
        assert stats.build_cards == [s.index.n_entries for s in steps]
        assert stats.build_distinct == [s.index.distinct_keys for s in steps]
        assert len(stats.probe_out) == len(steps) + 1
        assert stats.probe_out[0] == count_star(join_data["lines"], probe_pred)
        assert stats.probe_out[-1] == stats.result_rows == result.row_count
        assert stats.build_card_sum == sum(stats.build_cards)

    def test_duplicate_column_names_requalified(self, join_data):
        projection = (_ref("lines", "l_qty"), _ref("lines", "l_qty"))
        result, _ = probe_joins(
            join_data["lines"], "lines", None, self._steps(join_data), projection
        )
        assert [c.name for c in result.columns] == ["l_qty", "lines.l_qty"]
