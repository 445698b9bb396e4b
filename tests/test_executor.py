import itertools
import random

import numpy as np
import pytest

from escdb import executor
from escdb import expr as ex
from escdb.errors import ExecutionError
from escdb.executor import (
    _DENSE_PAD,
    _DENSE_RATIO,
    BuildStep,
    HashTableIndex,
    build_hash,
    count_star,
    eval_predicate,
    probe_joins,
)
from escdb.executor import _compact, _row_ids
from escdb.storage import KIND_INT64, KIND_TEXT, Column, ColumnTable

from oracles import (
    load_rows,
    oracle_count,
    oracle_join,
    oracle_select,
    table_multiset,
)


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
                return ex.Comparison(ref, "=", self._stored(col))
            word = col.dictionary.decode(self._stored(col))
            return ex.Comparison(ref, self.rng.choice(self.OPS[:4]), word)
        if r < 0.4:
            return ex.Comparison(ref, "=", self._stored(col))
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
            got = eval_predicate(custom_nulls, pred).tolist()
            assert got == oracle_select(custom_nulls, pred), str(pred)

    def test_folded_false_excludes_everything(self, custom_nulls):
        col = custom_nulls.column("a")
        pred = ex.FoldedAtom(ex.ColumnRef("data", "a", col.kind), False)
        assert eval_predicate(custom_nulls, pred).size == 0

    def test_folded_true_excludes_only_nulls(self, custom_nulls):
        col = custom_nulls.column("a")
        pred = ex.FoldedAtom(ex.ColumnRef("data", "a", col.kind), True)
        n_null = int(col.null_mask.sum())
        assert n_null > 0  # fixture has nulls by construction
        assert eval_predicate(custom_nulls, pred).size == (
            custom_nulls.row_count - n_null
        )

    def test_not_leaves_null_rows_out(self, custom_nulls):
        """SQL NOT: an atom over a NULL is unknown, and NOT of unknown is
        unknown, so NULL rows pass neither the atom nor its negation."""
        col = custom_nulls.column("a")
        ref = ex.ColumnRef("data", "a", col.kind)
        atom = ex.Comparison(ref, ">=", 10**9)  # false on every non-null row
        rows = eval_predicate(custom_nulls, ex.Not(atom))
        assert rows.size == custom_nulls.row_count - int(col.null_mask.sum())
        assert eval_predicate(custom_nulls, ex.Not(ex.Not(atom))).size == 0


class TestCountStar:
    def test_equals_selection_count(self, custom_nulls):
        gen = PredGen(custom_nulls, random.Random(55))
        for _ in range(20):
            pred = gen.pred()
            count, mask = count_star(custom_nulls, pred)
            rows = eval_predicate(custom_nulls, pred)
            assert count == rows.size
            assert np.array_equal(np.flatnonzero(mask), rows)


class TestTextRanges:
    """TEXT ranges compare decoded strings, by each code's rank among the
    dictionary's sorted strings."""

    WORDS = ["pine", "", "oak", "Oak", "alder", "oak2", "elm", "zzz", "\u00e9"]
    BOUNDS = ["", "a", "oak", "oak1", "Oak", "pine", "zzzz", "\u00e9", "\u00fc"]
    REF = ex.ColumnRef("t", "tag", KIND_TEXT)

    def _table(self):
        rng = random.Random(5)
        rows = [
            [i, None if rng.random() < 0.2 else rng.choice(self.WORDS)]
            for i in range(300)
        ]
        return load_rows("t", [("id", KIND_INT64), ("tag", KIND_TEXT)], rows)

    def _check(self, table):
        for lo in self.BOUNDS:
            preds = [ex.Comparison(self.REF, op, lo) for op in ("<", "<=", ">", ">=")]
            preds += [ex.Range(self.REF, lo, hi) for hi in self.BOUNDS]
            for pred in preds:
                for p in (pred, ex.Not(pred)):
                    assert count_star(table, p)[0] == oracle_count(table, p), str(p)

    def test_match_oracle(self):
        self._check(self._table())

    def test_match_oracle_after_dictionary_grows(self):
        table = self._table()
        self._check(table)  # ranks the dictionary as loaded
        tag = table.column("tag")
        new = ["oak1", "a", "zz", "Pine", "oak"]
        codes = tag.dictionary.encode_all(new)
        self._check(table)
        # a table whose codes include the new strings, sharing the dictionary
        grown = ColumnTable(
            "t",
            [
                Column("id", KIND_INT64, np.arange(len(new)), np.zeros(len(new), bool)),
                Column("tag", KIND_TEXT, codes, np.zeros(len(new), bool), tag.dictionary),
            ],
        )
        self._check(grown)


class TestCompact:
    """``_compact`` against boolean indexing, for array and slice ids."""

    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("form", ["array", "slice"])
    def test_matches_flatnonzero(self, fraction, form):
        rng = np.random.default_rng(17)
        n = 2000
        hit = np.zeros(n, dtype=bool)
        hit[rng.choice(n, round(n * fraction), replace=False)] = True
        if form == "slice":
            ids = slice(300, 300 + n)
        else:
            ids = np.sort(rng.choice(10**6, n, replace=False))
        got = _compact(ids, hit, int(np.count_nonzero(hit)))
        want = _row_ids(ids)[np.flatnonzero(hit)]
        assert np.array_equal(_row_ids(got), want)
        if fraction == 1.0:
            assert got is ids  # every row kept: no copy


def _int_col_table(name, **columns):
    """Build a table of INT64 columns from python lists (None = NULL)."""
    names = list(columns)
    schema = [(n, KIND_INT64) for n in names]
    return load_rows(name, schema, zip(*(columns[n] for n in names)))


def _group(idx, g):
    """The build rows of group ``g`` (none for -1)."""
    if g < 0:
        return []
    if idx.unique:
        return [int(idx.group_rows[g])]
    return idx.group_rows[idx.group_start[g] : idx.group_start[g + 1]].tolist()


def _rows_of_key(idx, key):
    """The build rows of ``key``'s group, read through ``probe_groups``."""
    (g,) = idx.probe_groups(np.asarray([key], dtype=np.int64)).tolist()
    return _group(idx, g)


def _check_shape(idx, rows_read, dense_unique):
    """An index holds row ids iff they are read; a dense index with unique
    keys is a direct-address table: ``slots`` when its rows are read,
    else ``present``."""
    assert (idx.group_rows is not None) == rows_read
    assert (idx.slots is not None) == (dense_unique and rows_read)
    assert (idx.present is not None) == (dense_unique and not rows_read)


def _check_groups(idx, probes, valid, want):
    """Every probe's group agrees with the ``want`` map of key to build
    rows, or, when the index holds no row ids, with its row count; an
    invalid position misses.  An index with ``present`` has no groups."""
    if idx.present is not None:
        return
    groups = idx.probe_groups(np.asarray(probes, dtype=np.int64), valid)
    for k, v, g in zip(probes, valid, groups.tolist()):
        rows = want.get(k, []) if v else []
        if idx.group_rows is not None:
            assert _group(idx, g) == rows
        elif g < 0 or idx.unique:
            assert (g >= 0) == bool(rows)
        else:
            assert idx.group_counts[g] == len(rows)


class TestHashIndex:
    def _oracle_map(self, keys):
        out = {}
        for i, k in enumerate(keys):
            if k is not None:
                out.setdefault(k, []).append(i)
        return out

    # the widest key span that a unique build of 50 keys may have, its
    # probe column's bounds included, and be dense
    DENSE_SPAN_50 = _DENSE_RATIO * 50 + _DENSE_PAD

    # (build-key pool, probe keys absent from it, dense when the probes
    # are the probe column)
    ORACLE_CASES = [
        (range(50), [-1, 50, 10**5], True),
        # negatives; probes below the smallest and above the largest key
        (range(-30, 30, 3), [-31, -1, 31], True),
        # int64-extreme probe bounds are too wide for a slot table
        (range(-30, 30, 3), [-(2**63), -1, 31, 2**63 - 1], False),
        # the int64 extremes are build keys themselves
        ([-(2**63), -7, 0, 2**63 - 1], [-(2**63) + 1, 1, 2**63 - 2], False),
        # sparse without extremes
        (range(-20 * 10**6, 30 * 10**6, 10**6), [-1, 5, 10**6 + 1], False),
        # keys at either end of int64: dense with probes near them, and
        # on the sorted path with probes from the other end
        (range(2**63 - 5, 2**63), [2**63 - 90, 2**63 - 6], True),
        (range(-(2**63), -(2**63) + 5), [-(2**63) + 5, -(2**63) + 90], True),
        (range(2**63 - 5, 2**63), [-(2**63), -(2**63) + 1, 2**63 - 6], False),
        (range(-(2**63), -(2**63) + 5), [-(2**63) + 5, 2**63 - 2, 2**63 - 1], False),
        (range(-2, 3), [-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1], False),
    ]

    def test_lookup_matches_dict_oracle(self):
        """Each case with unique and with repeated build keys, and each of
        those twice: with the probes as the probe column (a direct-address
        table where dense and unique) and without a probe column (the
        sorted path); each of those with and without its rows read."""
        rng = random.Random(9)
        for pool, absent, dense in self.ORACLE_CASES:
            pool = list(pool)
            # every pool key is a build key, so the pool sets the key span
            draws = [
                rng.choice(pool) if rng.random() > 0.1 else None for _ in range(2000)
            ]
            for keys in (pool, pool + draws):
                t = _int_col_table("t", k=keys)
                want = self._oracle_map(keys)
                probes = list(want) + absent
                col = _int_col_table("p", k=probes).column("k")
                valid = np.arange(len(probes)) % 3 != 0
                for probe, rows_read in itertools.product((col, None), (True, False)):
                    idx = build_hash(t, "k", probe=probe, rows_read=rows_read)
                    assert idx.unique == (keys is pool)
                    _check_shape(
                        idx, rows_read, dense and probe is not None and idx.unique
                    )
                    assert idx.n_entries == sum(len(v) for v in want.values())
                    assert idx.distinct_keys == len(want)
                    if rows_read:
                        for k in probes:
                            assert _rows_of_key(idx, k) == want.get(k, [])
                    # one vectorized call: a hit names its key's group, a
                    # miss or an invalid position is -1
                    _check_groups(idx, probes, valid, want)
                    # the counting stage's membership test
                    hits = idx.probe_hits(col.values, valid)
                    assert hits.tolist() == [
                        v and k in want for k, v in zip(probes, valid)
                    ]

    # (build keys, probe-key column with None = NULL, the slot table's
    # base or None on the sorted path, unique)
    WIDENED_CASES = [
        # probe keys below lo and above hi; based at 0, not at their min
        (range(100, 200), [*range(50, 300, 7), 299], 0, True),
        # NULL probe slots store 0, which is also a build key
        (range(0, 50), [5, None, 60, None, 0, 49], 0, True),
        # negative build and probe keys, based at the probe column's min
        (range(-50, 0), range(-80, 30), -80, True),
        # far from 0: based at the widened minimum, not at 0
        (range(10**7, 10**7 + 50), range(10**7 - 100, 10**7 + 200), 10**7 - 100, True),
        # int64-extreme probe bounds are too wide: the sorted path
        (range(50), [-(2**63), 3, None, 2**63 - 1], None, True),
        # a probe range too wide for a slot table, even based at 0
        (range(1000, 1050), [0, 999, 1049, 1050, 10**7], None, True),
        # duplicate keys with a probe range too wide: the sorted path
        ([1, 1, 2, 3, 3, 3], [-5, 1, 3, 10**7], None, False),
        # dense duplicate keys take the sorted path too
        ([1, 1, 2, 3, 3, 3], range(-5, 10), None, False),
        # the span exactly at the density bound, then one past it
        (range(50), [0, DENSE_SPAN_50 - 1], 0, True),
        (range(50), [0, DENSE_SPAN_50], None, True),
        (range(-50, 0), [-50, DENSE_SPAN_50 - 51], -50, True),
        (range(-50, 0), [-50, DENSE_SPAN_50 - 50], None, True),
    ]

    @pytest.mark.parametrize("build,probe,base,unique", WIDENED_CASES)
    def test_widened_lookup_matches_dict_oracle(self, build, probe, base, unique):
        """A build handed its probe-key column is a direct-address table
        that covers that column's bounds when its keys are unique and the
        density bound allows, with and without its rows read; every stored
        probe value, NULL slots' 0 included, then finds its rows by one
        gather."""
        build, probe = list(build), list(probe)
        t = _int_col_table("t", k=build)
        col = _int_col_table("p", k=probe).column("k")
        want = self._oracle_map(build)
        valid = ~col.null_mask
        for rows_read in (True, False):
            idx = build_hash(t, "k", probe=col, rows_read=rows_read)
            assert idx.unique == unique
            _check_shape(idx, rows_read, base is not None)
            table = idx.present if idx.slots is None else idx.slots
            if table is not None:
                assert table.size <= _DENSE_RATIO * idx.n_entries + _DENSE_PAD
                lo, hi = col.bounds
                assert idx.base == base <= min(lo, *build)
                assert max(hi, *build) == base + table.size - 1
            stored = [0 if k is None else k for k in probe]
            _check_groups(idx, stored, valid, want)
            hits = idx.probe_hits(col.values, valid)
            assert hits.tolist() == [
                v and k in want for k, v in zip(stored, valid.tolist())
            ]
            if col.has_nulls:
                # without ``valid`` a NULL slot's stored 0 finds build key 0
                assert idx.probe_hits(col.values).tolist() == [
                    k in want for k in stored
                ]

    def test_bounds_of_a_column(self):
        col = _int_col_table("p", k=[7, None, -3, 2**63 - 1]).column("k")
        assert col.bounds == (-3, 2**63 - 1)
        assert _int_col_table("p", k=[None, 5]).column("k").bounds == (0, 5)
        assert _int_col_table("p", k=[]).column("k").bounds is None

    @pytest.mark.parametrize(
        "pool",
        [range(2**63 - 5, 2**63), range(-(2**63), -(2**63) + 5), range(-2, 3)],
    )
    def test_dense_probe_at_int64_extremes(self, pool):
        """Dense keys probed at and near the int64 extremes.  A probe
        column whose bounds reach both extremes is too wide for a slot
        table, so the build takes the sorted path; one whose bounds stay
        next to the pool is a slot table whose offsets do not overflow.
        Both find every key, with and without ``valid``."""
        t = _int_col_table("t", k=list(pool))
        lo, hi = -(2**63), 2**63 - 1
        near = [max(pool[0] - 2, lo), *pool, min(pool[-1] + 2, hi)]
        wide = [lo, lo + 1, *pool, hi - 1, hi]
        for probes, dense in ((wide, False), (near, True), (wide, None)):
            col = None if dense is None else _int_col_table("p", k=probes).column("k")
            idx = build_hash(t, "k", probe=col)
            assert (idx.slots is not None) == bool(dense) and idx.unique
            want = [pool.index(k) if k in pool else -1 for k in probes]
            keys = np.asarray(probes, dtype=np.int64)
            assert idx.probe_groups(keys).tolist() == want
            valid = np.arange(len(probes)) % 2 == 0
            got = idx.probe_groups(keys, valid).tolist()
            assert got == [g if v else -1 for g, v in zip(want, valid)]
            assert idx.probe_hits(keys, valid).tolist() == [g >= 0 for g in got]

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
        assert _rows_of_key(idx, 5) == []
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
        assert _rows_of_key(idx, 1) == [1]

    def test_heavy_duplicates(self):
        rng = random.Random(4)
        keys = [rng.randrange(3) for _ in range(5000)]
        t = _int_col_table("t", k=keys)
        idx = build_hash(t, "k")
        assert not idx.unique
        want = self._oracle_map(keys)
        for k in range(3):
            assert _rows_of_key(idx, k) == want[k]


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
        assert result.row_count == want_count
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape", ["star", "chain"])
    @pytest.mark.parametrize("unique_parts", [True, False])
    def test_covered_builds_match_oracle(
        self, join_data, shape, unique_parts, workers
    ):
        """Builds handed their probe-key columns cover them (l_oid's NULL
        slots store 0), and give the oracle's answers whether a stage
        gathers from ``present`` (its rows are not read, so it only
        counts), from ``slots``, or takes the sorted path (duplicate part
        keys).  Each projection gets builds made by its own liveness."""
        d = dict(join_data)
        if unique_parts:
            parts = join_data["parts"]
            first = np.arange(parts.row_count - 1)  # all but the duplicate
            d["parts"] = ColumnTable("parts", [c.take(first) for c in parts.columns])
        part_key = (
            _ref("orders", "o_pid") if shape == "chain" else _ref("lines", "l_pid")
        )

        def step(alias, key, probe_key, read):
            probe = d[probe_key.table].column(probe_key.name)
            index = build_hash(d[alias], key, probe=probe, rows_read=read)
            return BuildStep(alias, index, probe_key)

        pred = ex.And(
            (
                ex.ColumnCompare(_ref("lines", "l_oid"), "=", _ref("orders", "o_id")),
                ex.ColumnCompare(part_key, "=", _ref("parts", "p_id")),
            )
        )
        projections = [
            None,
            (_ref("lines", "l_qty"),),
            (_ref("orders", "o_ch"), _ref("parts", "p_cls")),
        ]
        for projection in projections:
            stages = [
                BuildStep("orders", None, _ref("lines", "l_oid")),
                BuildStep("parts", None, part_key),
            ]
            live = executor.live_aliases(stages, projection)
            read = [s.alias in alive for s, alive in zip(stages, live[1:])]
            # orders is read in a chain, or when projected; parts only
            # when projected
            assert read == [
                shape == "chain" or projection == projections[2],
                projection == projections[2],
            ]
            steps = [
                step("orders", "o_id", stages[0].probe_key, read[0]),
                step("parts", "p_id", part_key, read[1]),
            ]
            # every key set is dense, so a build is a direct-address
            # table iff its keys are unique
            for s, r, u in zip(steps, read, [True, unique_parts]):
                assert s.index.unique == u
                _check_shape(s.index, r, u)
            result, stats = probe_joins(
                d["lines"], "lines", None, steps, projection,
                workers=workers, live=live,
            )
            want_count, want_bag = oracle_join(d, pred, projection)
            assert stats.result_rows == want_count > 0
            if projection is not None:
                assert table_multiset(result) == want_bag

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
        assert steps[0].index.n_entries == 0
        assert stats.result_rows == 0 and result.row_count == 0

    def test_null_probe_keys_never_match(self):
        lines = _int_col_table("lines", l_oid=[1, None, 1], l_qty=[1, 2, 3])
        orders = _int_col_table("orders", o_id=[1])
        steps = [
            BuildStep("orders", build_hash(orders, "o_id"), _ref("lines", "l_oid"))
        ]
        _, stats = probe_joins(lines, "lines", None, steps, None)
        assert stats.result_rows == 2

    def _same_across_workers(self, lines, probe_pred, steps, projection, kept=None):
        """Output rows in order, per-stage tuple counts and result count
        are the same with 1, 3 and 8 probe workers.  Given ``kept``, the
        probe filter keeps that many rows; else the result is not empty."""
        runs = []
        for w in (1, 3, 8):
            result, stats = probe_joins(
                lines, "lines", probe_pred, steps, projection, workers=w
            )
            rows = [result.row(i) for i in range(result.row_count)]
            runs.append((rows, stats.probe_out, stats.result_rows))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][2] == len(runs[0][0])
        if kept is None:
            assert runs[0][2] > 0  # non-degenerate scenario
        else:
            assert runs[0][1][0] == kept

    def test_workers_preserve_order_and_rows(self, join_data):
        projection = (
            _ref("lines", "l_qty"),
            _ref("orders", "o_ch"),
            _ref("parts", "p_cls"),
        )
        cases = [
            (">", 5, None),
            (">", 48, 0),  # no row reaches the pipeline
            ("=", 47, 1),
            (">", 45, 3),  # one chunk under 3 and 8 workers
            (">", 40, 8),  # one chunk under 8 workers, three under 3
        ]
        for op, qty, kept in cases:
            probe_pred = ex.Comparison(_ref("lines", "l_qty"), op, qty)
            self._same_across_workers(
                join_data["lines"], probe_pred, self._steps(join_data), projection,
                kept,
            )

    def test_pool_capped_at_cpu_count(self, join_data, monkeypatch):
        """``workers`` sets the chunk count, of the probe rows or of the
        rows the probe filter keeps, and the pool runs them on at most one
        thread per core.  A recording stand-in for the pool runs the chunks
        in turn, so no thread is started."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.chunks = 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                self.chunks = len(chunks)
                return map(fn, chunks)

        lines = join_data["lines"]
        steps = self._steps(join_data)
        projection = (_ref("lines", "l_qty"), _ref("parts", "p_cls"))
        monkeypatch.setattr(executor, "ThreadPoolExecutor", RecordingPool)
        # the filter keeps 38 of the 40 rows, at least two per chunk
        for probe_pred in (None, ex.Comparison(_ref("lines", "l_qty"), ">", 5)):
            want, _ = probe_joins(lines, "lines", probe_pred, steps, projection)
            for cores, threads in ((2, 2), (None, 1)):
                monkeypatch.setattr(executor.os, "cpu_count", lambda: cores)
                got, _ = probe_joins(
                    lines, "lines", probe_pred, steps, projection, workers=8
                )
                assert (pools[-1].max_workers, pools[-1].chunks) == (threads, 8)
                assert [got.row(i) for i in range(got.row_count)] == [
                    want.row(i) for i in range(want.row_count)
                ]

    def test_workers_with_probe_key_from_earlier_build(self, join_data):
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
        projection = (_ref("lines", "l_oid"), _ref("parts", "p_cls"))
        self._same_across_workers(join_data["lines"], None, steps, projection)

    def test_workers_with_negated_nullable_probe_predicate(self, join_data):
        # l_oid is NULL on about a tenth of the lines; NOT leaves those out
        probe_pred = ex.Not(ex.Comparison(_ref("lines", "l_oid"), "<", 8))
        projection = (_ref("lines", "l_oid"), _ref("orders", "o_ch"))
        self._same_across_workers(
            join_data["lines"], probe_pred, self._steps(join_data), projection
        )

    def test_stats_shape(self, join_data):
        probe_pred = ex.Comparison(_ref("lines", "l_qty"), ">", 5)
        steps = self._steps(join_data)
        result, stats = probe_joins(
            join_data["lines"], "lines", probe_pred, steps,
            (_ref("lines", "l_qty"),),
        )
        assert stats.build_distinct == [s.index.distinct_keys for s in steps]
        assert len(stats.probe_out) == len(steps) + 1
        assert stats.probe_out[0] == count_star(join_data["lines"], probe_pred)[0]
        assert stats.probe_out[-1] == stats.result_rows == result.row_count

    def test_duplicate_column_names_requalified(self, join_data):
        projection = (_ref("lines", "l_qty"), _ref("lines", "l_qty"))
        result, _ = probe_joins(
            join_data["lines"], "lines", None, self._steps(join_data), projection
        )
        assert [c.name for c in result.columns] == ["l_qty", "lines.l_qty"]
