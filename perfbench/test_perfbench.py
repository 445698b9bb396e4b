"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import math
import random
import types

import numpy as np
import pytest

from measure import (
    MIN_P90_SAMPLES,
    TooFewSamples,
    gm_over_classes,
    hash_strings,
    multiset_digest,
    p50,
    p90,
    sustained_rate,
)
from spans import NO_PARENT, Tracer, Target, root_time, self_times


def test_gm_of_per_class_medians_weighs_classes_equally():
    samples = {"fast": [1.0, 2.0, 3.0], "slow": [8.0] * 50}
    assert gm_over_classes(samples, p50) == pytest.approx(math.sqrt(2.0 * 8.0))


def test_gm_of_per_class_p90():
    samples = {
        "a": [float(v) for v in range(1, 101)],
        "b": [float(v) for v in range(1001, 1201)],
    }
    # nearest rank: the 90th of 100 values, the 180th of 200
    assert p90(samples["a"]) == 90.0
    assert p90(samples["b"]) == 1180.0
    assert gm_over_classes(samples, p90) == pytest.approx(math.sqrt(90.0 * 1180.0))


def test_p90_leaves_ten_samples_beyond_it():
    values = list(range(MIN_P90_SAMPLES))
    assert sum(v > p90(values) for v in values) == 10


def test_gm_p90_refused_below_100_samples_in_any_class():
    samples = {
        "enough": [1.0] * MIN_P90_SAMPLES,
        "short": [1.0] * (MIN_P90_SAMPLES - 1),
    }
    assert gm_over_classes(samples, p50) == 1.0
    with pytest.raises(TooFewSamples):
        gm_over_classes(samples, p90)


def test_sustained_rate_is_ops_over_p90_pass_time():
    pass_ms = [100.0] * 90 + [200.0] * 10
    # nine passes in ten take at most 100 ms: 10 ops per pass -> 100 ops/s
    assert sustained_rate(pass_ms, 10) == pytest.approx(100.0)
    assert sustained_rate(pass_ms[:-1] + [400.0], 10) == pytest.approx(100.0)
    with pytest.raises(TooFewSamples):
        sustained_rate(pass_ms[:-1], 10)


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_nested_and_sibling_spans():
    spans = [
        _span("root", 0.0, 10.0, NO_PARENT),
        _span("a", 1.0, 4.0, 0),  # sibling of b
        _span("b", 5.0, 9.0, 0),
        _span("c", 6.0, 7.0, 2),  # nested in b
        _span("a", 7.5, 8.0, 2),  # same name, other parent: adds up
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 3.5, "b": 2.5, "c": 1.0})
    assert sum(got.values()) == pytest.approx(root_time(spans))


def test_tracer_records_nesting_and_restores_originals():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original_inner = ns.inner
    calls = []
    tracer = Tracer(
        [
            Target(ns, "outer", "outer"),
            Target(ns, "inner", "inner", lambda c, a, r: calls.append((a, r))),
        ]
    )
    tracer.install()
    tracer.op = 7
    assert ns.outer(1) == 4
    tracer.uninstall()
    assert ns.inner is original_inner
    assert ns.outer(1) == 4
    (outer, inner) = tracer.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", NO_PARENT, 7)
    assert (inner[0], inner[3], inner[4]) == ("inner", 0, 7)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert calls == [((1,), 2)]


def _digest(rows):
    cols = list(zip(*rows))
    return multiset_digest(
        [np.array(cols[0], dtype=np.int64), hash_strings(list(cols[1]))]
    )


def test_digest_ignores_row_order():
    rows = [(i % 7 - 3, f"s{i % 5}") for i in range(200)]
    shuffled = rows[:]
    random.Random(1).shuffle(shuffled)
    assert _digest(shuffled) == _digest(rows)


def test_digest_sees_multiplicity_and_changed_rows():
    rows = [(1, "a"), (2, "b"), (3, "c")]
    assert _digest(rows + [(1, "a")]) != _digest(rows)
    assert _digest([(1, "a"), (1, "a"), (3, "c")]) != _digest(rows)
    assert _digest([(1, "b"), (2, "a"), (3, "c")]) != _digest(rows)


def test_digest_of_no_rows():
    empty = np.empty(0, dtype=np.int64)
    assert multiset_digest([empty, empty]) == (0, 0)
