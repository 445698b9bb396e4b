"""Regression pin on plan choice for the bench queries.

``plan_golden.json`` records, for each of the 14 ``tpch4_queries()`` and
``ssb_queries()`` at scale 0.01, seed 42, in both the ``COUNT(*)`` and the
``SELECT *`` form, under each of the four planner arms: the build order,
each build's ``input_rows``, each ESC decision's ``(table, count,
pushdown)``, the distinct keys of each built index, the tuples each probe
stage produced, and the result count.

This is a regression pin, not an oracle. The file holds what the planner
chose when it was written, not what it should choose; correctness is
checked against the oracles elsewhere. A change that means to alter plans
rewrites the file and says why:

    PYTHONPATH=src python tests/test_plan_golden.py
"""

import json
from pathlib import Path

from escdb import frontend as fe
from escdb.bench import plan_quality_catalog, ssb_queries, tpch4_queries
from escdb.optimizer import ARMS, EscConfig, execute_plan, plan

GOLDEN = Path(__file__).with_name("plan_golden.json")


def plan_pins() -> dict:
    pins = {}
    for which, queries in (("tpch4", tpch4_queries()), ("ssb", ssb_queries())):
        catalog = plan_quality_catalog(which, 0.01, 42)
        for label, sql in queries:
            star = sql.replace("SELECT COUNT(*)", "SELECT *", 1)
            for form, text in (("count", sql), ("star", star)):
                graph = fe.analyze(fe.parse(text), catalog)
                for arm in ARMS:
                    p = plan(graph, catalog, EscConfig(arm=arm))
                    _, count, stats = execute_plan(p, catalog)
                    pins[f"{label}/{form}/{arm}"] = {
                        "builds": [[b.alias, int(b.input_rows)] for b in p.builds],
                        "decisions": [
                            [d.table, int(d.exact_count), d.pushed_down]
                            for d in p.decisions
                        ],
                        "build_distinct": [int(n) for n in stats.build_distinct],
                        "probe_out": [int(n) for n in stats.probe_out],
                        "count": int(count),
                    }
    return pins


def test_plans_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = plan_pins()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, {key: (want[key], got[key]) for key in changed}


if __name__ == "__main__":
    pins = plan_pins()
    lines = [f" {json.dumps(key)}: {json.dumps(pins[key])}" for key in sorted(pins)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
