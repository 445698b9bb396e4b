"""Regression pins on plan choice and EXPLAIN text for the bench queries.

``plan_golden.json`` records, for each of the 14 ``tpch4_queries()`` and
``ssb_queries()`` at scale 0.01, seed 42, in both the ``COUNT(*)`` and the
``SELECT *`` form, under each of the three planner arms: the build order,
each build's ``input_rows``, each ESC decision's ``(table, count,
pushdown)``, the distinct keys of each built index, the tuples each probe
stage produced, the result count, and for ``SELECT *`` a SHA-256 of the
result in row order.  Every plan runs with its probe in one chunk and in
two, and both runs must match the same pins.  ``explain_golden.txt``
holds each of those plans' ``explain_text``, byte for byte, with
``time_ms`` masked.

This is a regression pin, not an oracle. The file holds what the planner
chose when it was written, not what it should choose; correctness is
checked against the oracles elsewhere. A change that means to alter plans
or their text rewrites the files and says why:

    PYTHONPATH=src python tests/test_plan_golden.py
"""

import hashlib
import json
import re
from pathlib import Path

from escdb import frontend as fe
from escdb.bench import plan_quality_catalog, ssb_queries, tpch4_queries
from escdb.optimizer import ARMS, execute_plan, explain_text, plan

GOLDEN = Path(__file__).with_name("plan_golden.json")
EXPLAIN_GOLDEN = Path(__file__).with_name("explain_golden.txt")


def result_digest(table) -> str:
    """SHA-256 over every column's name, values and null mask, in row order."""
    h = hashlib.sha256()
    for col in table.columns:
        h.update(col.name.encode())
        h.update(col.values.tobytes())
        h.update(col.null_mask.tobytes())
    return h.hexdigest()


def bench_plans():
    """Yield ``("query/form/arm", catalog, plan)`` for every bench query in
    its ``count`` and ``star`` form under every arm."""
    for which, queries in (("tpch4", tpch4_queries()), ("ssb", ssb_queries())):
        catalog = plan_quality_catalog(which, 0.01, 42)
        for label, sql in queries:
            star = sql.replace("SELECT COUNT(*)", "SELECT *", 1)
            for form, text in (("count", sql), ("star", star)):
                graph = fe.analyze(fe.parse(text), catalog)
                for arm in ARMS:
                    yield f"{label}/{form}/{arm}", catalog, plan(graph, catalog, arm)


def plan_pins() -> dict:
    pins = {}
    for key, catalog, p in bench_plans():
        result, count, stats = execute_plan(p, catalog)
        pin = {
            "builds": [[b.alias, int(b.input_rows)] for b in p.builds],
            "decisions": [
                [d.table, int(d.exact_count), d.pushed_down]
                for d in p.decisions
            ],
            "build_distinct": [int(n) for n in stats.build_distinct],
            "probe_out": [int(n) for n in stats.probe_out],
            "count": int(count),
        }
        if result is not None:
            pin["digest"] = result_digest(result)
        pins[key] = pin
    return pins


def explain_texts() -> str:
    """Every bench plan's ``explain_text`` under a ``# query/form/arm``
    line, one block per plan, with ``time_ms`` masked."""
    blocks = []
    for key, _, p in bench_plans():
        text = re.sub(r"time_ms=\S+", "time_ms=*", explain_text(p))
        blocks.append(f"# {key}\n{text}\n")
    return "\n".join(blocks)


def _assert_pins(got: dict):
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, {key: (want[key], got[key]) for key in changed}


def test_plans_match_golden(set_chunks):
    set_chunks(1)
    _assert_pins(plan_pins())


def test_two_workers_match_golden(set_chunks):
    """Chunked probing, two chunks on two threads, changes no stage count
    and no output row or order."""
    set_chunks(2)
    _assert_pins(plan_pins())


def test_explain_text_matches_golden():
    assert explain_texts() == EXPLAIN_GOLDEN.read_text()


if __name__ == "__main__":
    pins = plan_pins()
    lines = [f" {json.dumps(key)}: {json.dumps(pins[key])}" for key in sorted(pins)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    EXPLAIN_GOLDEN.write_text(explain_texts())
