"""The benchmark's traced run wraps escdb functions by name.  Renaming or
removing one breaks ``perfbench/run.py --trace 1``; this test makes it
break the test suite too."""

import importlib
from pathlib import Path

import pytest

from escdb import executor, optimizer
from escdb.engine import Engine
from escdb.optimizer import EscConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_trace_targets_install_and_uninstall(perfbench, tmp_path):
    workloads, spans = perfbench
    targets = workloads.trace_targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        assert all(vars(t.owner)[t.attr] is not o for t, o in zip(targets, originals))
        engine = Engine(config=EscConfig(min_table_size=1))
        csv = tmp_path / "t.csv"
        csv.write_text("".join(f"{i},{i % 5}\n" for i in range(1, 21)))
        engine.load_csv_file(str(csv), "big", "b_id:int64,b_k:int64")
        engine.load_csv_file(str(csv), "small", "s_id:int64,s_k:int64")
        engine.run("SELECT COUNT(*) FROM big, small WHERE b_id = s_id AND s_k = 0")
    finally:
        tracer.uninstall()
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))

    names = [s[spans.NAME] for s in tracer.spans]
    subquery = names.index(f"{optimizer.__name__}.compute_exact_selectivity")
    count = names.index(f"{executor.__name__}.count_star")
    # the sub-query reaches count_star through the executor module
    assert tracer.spans[count][spans.PARENT] == subquery
    assert f"{optimizer.__name__}.materialize_pushdown" in names
