import numpy as np
import pytest

from escdb import expr as ex
from escdb.catalog import (
    Catalog,
    build_histogram,
    estimate_selectivity,
)
from escdb.errors import (
    DuplicateFunction,
    DuplicateTable,
    EmptySchema,
    Inestimable,
    UnknownTable,
    UnsupportedColumnKind,
)
from escdb.storage import (
    ColumnTable,
    KIND_INT64,
    KIND_TEXT,
    append_rows,
)

from oracles import oracle_count


def _int_table(name, values, extra_text=None):
    schema = [("v", KIND_INT64)]
    if extra_text is not None:
        schema.append(("t", KIND_TEXT))
    rows = []
    for i, v in enumerate(values):
        row = [None if v is None else str(v)]
        if extra_text is not None:
            row.append(extra_text[i % len(extra_text)])
        rows.append(row)
    return append_rows(ColumnTable.empty(name, schema), rows)


class TestCatalogRegistry:
    def test_duplicate_table(self):
        cat = Catalog()
        cat.register(_int_table("t", [1]))
        with pytest.raises(DuplicateTable):
            cat.register(_int_table("t", [2]))

    def test_unknown_table(self):
        with pytest.raises(UnknownTable):
            Catalog().table("ghost")

    def test_empty_schema(self):
        with pytest.raises(EmptySchema):
            Catalog().register(ColumnTable("t", []))

    def test_udf_duplicate_case_insensitive(self):
        cat = Catalog()
        cat.register_udf("Fn", 1, lambda a: a)
        with pytest.raises(DuplicateFunction):
            cat.register_udf("fn", 1, lambda a: a)
        assert cat.udf("FN").arity == 1
        assert cat.udf("ghost") is None


class TestHistogram:
    def test_counts_partition_non_null(self):
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 1000, size=5000).tolist() + [None] * 40
        h = build_histogram(_int_table("t", vals), "v", 64)
        assert int(h.counts.sum()) == 5000
        assert h.null_count == 40 and h.row_count == 5040
        assert h.non_null == 5000
        assert np.all(np.diff(h.boundaries) > 0)
        assert h.boundaries[0] == min(v for v in vals if v is not None)
        assert h.boundaries[-1] == max(v for v in vals if v is not None)

    def test_equi_depth_balance(self):
        vals = list(range(6400))
        h = build_histogram(_int_table("t", vals), "v", 64)
        assert h.counts.size == 64
        assert int(h.counts.max()) == int(h.counts.min()) == 100

    def test_single_bucket(self):
        h = build_histogram(_int_table("t", [3, 1, 2]), "v", 1)
        assert h.counts.tolist() == [3]
        assert h.boundaries.tolist() == [1, 3]

    def test_constant_column(self):
        h = build_histogram(_int_table("t", [7] * 10), "v", 8)
        assert h.counts.tolist() == [10]
        assert h.distincts.tolist() == [1]
        assert h.boundaries[0] == h.boundaries[-1] == 7

    def test_text_rejected(self):
        t = _int_table("t", [1, 2], extra_text=["a"])
        with pytest.raises(UnsupportedColumnKind):
            build_histogram(t, "t", 8)

    def test_empty_table(self):
        h = build_histogram(_int_table("t", []), "v", 8)
        assert h.counts.size == 0 and h.row_count == 0

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            build_histogram(_int_table("t", [1]), "v", 0)

    def test_catalog_cache_keyed_by_table_and_column(self):
        cat = Catalog()
        t = append_rows(
            ColumnTable.empty("t", [("a", KIND_INT64), ("b", KIND_INT64)]),
            [["1", "5"], ["2", "6"]],
        )
        cat.register(t)
        assert cat.histogram("t", "a") is cat.histogram("t", "a")
        assert cat.histogram("t", "a") is not cat.histogram("t", "b")


def _col(name="v", kind=None):
    return ex.ColumnRef("t", name, kind)


@pytest.fixture(scope="module")
def uniform():
    """10000 rows uniform over [0, 1000); exact counts known via oracle."""
    rng = np.random.default_rng(17)
    vals = rng.integers(0, 1000, size=10_000).tolist()
    table = _int_table("t", vals)
    hist = build_histogram(table, "v", 64)
    return table, (lambda ref: hist)


class TestEstimates:
    def _exact(self, table, pred):
        return oracle_count(table, pred) / table.row_count

    def test_le_close_on_uniform(self, uniform):
        table, hist_for = uniform
        for v in (0, 137, 499, 900, 999, 2000):
            pred = ex.Comparison(_col(), "<=", v)
            est = estimate_selectivity(hist_for, pred)
            assert est == pytest.approx(self._exact(table, pred), abs=0.02)

    def test_all_comparison_ops_close(self, uniform):
        table, hist_for = uniform
        for op in ("<", "<=", ">", ">=", "<>"):
            pred = ex.Comparison(_col(), op, 400)
            est = estimate_selectivity(hist_for, pred)
            assert est == pytest.approx(self._exact(table, pred), abs=0.02), op

    def test_range_close(self, uniform):
        table, hist_for = uniform
        pred = ex.Range(_col(), 100, 299)
        est = estimate_selectivity(hist_for, pred)
        assert est == pytest.approx(self._exact(table, pred), abs=0.02)

    def test_equality_within_distinct_model(self, uniform):
        table, hist_for = uniform
        pred = ex.Equality(_col(), 500)
        est = estimate_selectivity(hist_for, pred)
        # uniform over 1000 values: truth near 1/1000
        assert 0.0003 < est < 0.003

    def test_fractional_equality_zero(self, uniform):
        _, hist_for = uniform
        assert estimate_selectivity(hist_for, ex.Equality(_col(), 4.5)) == 0.0

    def test_out_of_range_clamps(self, uniform):
        _, hist_for = uniform
        assert estimate_selectivity(hist_for, ex.Comparison(_col(), "<", -5)) == 0.0
        assert estimate_selectivity(hist_for, ex.Comparison(_col(), "<=", 10**9)) == 1.0

    def test_conjunction_multiplies(self, uniform):
        _, hist_for = uniform
        a = ex.Comparison(_col(), "<", 500)
        b = ex.Comparison(_col(), ">=", 100)
        got = estimate_selectivity(hist_for, ex.And((a, b)))
        want = estimate_selectivity(hist_for, a) * estimate_selectivity(hist_for, b)
        assert got == pytest.approx(want)

    def test_disjunction_inclusion_exclusion(self, uniform):
        _, hist_for = uniform
        a = ex.Comparison(_col(), "<", 200)
        b = ex.Comparison(_col(), ">=", 800)
        sa = estimate_selectivity(hist_for, a)
        sb = estimate_selectivity(hist_for, b)
        got = estimate_selectivity(hist_for, ex.Or((a, b)))
        assert got == pytest.approx(sa + sb - sa * sb)

    def test_not_complements(self, uniform):
        _, hist_for = uniform
        a = ex.Comparison(_col(), "<", 300)
        assert estimate_selectivity(hist_for, ex.Not(a)) == pytest.approx(
            1.0 - estimate_selectivity(hist_for, a)
        )

    def test_folded_atoms(self, uniform):
        _, hist_for = uniform
        assert estimate_selectivity(hist_for, ex.FoldedAtom(_col(), True)) == 1.0
        assert estimate_selectivity(hist_for, ex.FoldedAtom(_col(), False)) == 0.0

    def test_udf_inestimable(self, uniform):
        _, hist_for = uniform
        pred = ex.FnCall("f", (_col(),), "<", 3.0, lambda a: a)
        with pytest.raises(Inestimable):
            estimate_selectivity(hist_for, pred)

    def test_column_compare_inestimable(self, uniform):
        _, hist_for = uniform
        with pytest.raises(Inestimable):
            estimate_selectivity(
                hist_for, ex.ColumnCompare(_col("v"), "=", _col("w"))
            )

    def test_text_column_inestimable(self):
        ref = ex.ColumnRef("t", "tag", KIND_TEXT)
        with pytest.raises(Inestimable):
            estimate_selectivity(lambda r: None, ex.Equality(ref, 0))

    def test_correlated_conjunction_underestimates(self):
        """The failure mode the exact-count optimizer exists to avoid:
        independence multiplies per-atom fractions, so a predicate over a
        copied column pair is estimated near (1/n)^2 when the truth is 1/n.
        """
        rng = np.random.default_rng(23)
        a = rng.integers(0, 1000, size=20_000)
        t = ColumnTable.empty("t", [("a", KIND_INT64), ("b", KIND_INT64)])
        t = append_rows(t, [[str(x), str(x)] for x in a.tolist()])
        hists = {
            "a": build_histogram(t, "a", 64),
            "b": build_histogram(t, "b", 64),
        }
        hist_for = lambda ref: hists[ref.name]
        pred = ex.And(
            (
                ex.Equality(ex.ColumnRef("t", "a"), 5),
                ex.Equality(ex.ColumnRef("t", "b"), 5),
            )
        )
        est = estimate_selectivity(hist_for, pred)
        true = oracle_count(t, pred) / t.row_count
        assert true > 0
        assert est < true / 10
