import pytest

from escdb import executor
from escdb.bench import GenSpec, generate
from escdb.catalog import Catalog


@pytest.fixture(scope="session")
def tpch_small():
    """orders 1500 / lineitem ~6000 / part 200 / supplier 10."""
    return generate(GenSpec("tpch_subset", 0.001, 7))


@pytest.fixture(scope="session")
def custom_nulls():
    """20K-row mixed-kind table with ~8% NULLs per nullable column."""
    return generate(GenSpec("custom", 0.02, 3, null_fraction=0.08))["data"]


def make_catalog(*tables) -> Catalog:
    cat = Catalog()
    for t in tables:
        cat.register(t)
    return cat


@pytest.fixture()
def tpch_catalog(tpch_small):
    return make_catalog(*tpch_small.values())


def chunk_setter(mp: pytest.MonkeyPatch):
    """``set_chunks(n)``: from then on, until ``mp`` is undone, every probe
    splits its table's rows into ``n`` chunks, one thread each, whatever
    the table's size and the count of cores."""

    def set_chunks(n: int):
        mp.setattr(executor, "_chunk_count", lambda rows: n)

    return set_chunks


@pytest.fixture()
def set_chunks(monkeypatch):
    """Sets the probe's chunk count for the test; see ``chunk_setter``."""
    return chunk_setter(monkeypatch)
