"""Metric arithmetic and the order-independent answer digest.

Nothing here imports escdb, so the tests of this module run without the
engine.
"""

from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np

# p90 by nearest rank leaves n - ceil(0.9 n) samples above it; 100 is the
# smallest n that leaves at least ten.
MIN_P90_SAMPLES = 100


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def p50(values) -> float:
    if not values:
        raise TooFewSamples("p50 of no samples")
    return statistics.median(values)


def p90(values) -> float:
    """Nearest-rank 90th percentile of at least ``MIN_P90_SAMPLES`` values."""
    if len(values) < MIN_P90_SAMPLES:
        raise TooFewSamples(
            f"p90 needs {MIN_P90_SAMPLES} samples, got {len(values)}"
        )
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def sustained_rate(pass_ms, ops_per_pass: int) -> float:
    """Ops per second that nine passes in ten sustain: ``ops_per_pass``
    over the nearest-rank p90 of the pass times (ms)."""
    return ops_per_pass * 1e3 / p90(pass_ms)


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def gm_over_classes(samples: dict[str, list[float]], percentile) -> float:
    """Geometric mean over op classes of each class's ``percentile``, so
    every class weighs the same whatever its latency or sample count."""
    return geometric_mean([percentile(v) for v in samples.values()])


# ---------------------------------------------------------------------------
# Multiset digest of result rows
# ---------------------------------------------------------------------------

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
NULL_CODE = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; uint64 arithmetic wraps."""
    x = x ^ (x >> np.uint64(30))
    x = x * _M1
    x = x ^ (x >> np.uint64(27))
    x = x * _M2
    return x ^ (x >> np.uint64(31))


def hash_strings(strings) -> np.ndarray:
    """Stable 64-bit code per string (the same in every process)."""
    return np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(s.encode(), digest_size=8).digest(), "little"
            )
            for s in strings
        ),
        dtype=np.uint64,
        count=len(strings),
    )


def multiset_digest(columns) -> tuple[int, int]:
    """(row count, wrapping sum of per-row hashes) of equal-length columns
    of 64-bit codes.

    The sum does not depend on row order, and a row that occurs twice
    adds twice, so two results agree exactly when they hold the same
    rows as a multiset (up to hash collisions).  Column order matters.
    """
    n = len(columns[0])
    h = np.zeros(n, dtype=np.uint64)
    for col in columns:
        h = _mix(h ^ np.asarray(col).astype(np.uint64))
    return n, int(h.sum(dtype=np.uint64))
