"""escdb benchmark: one workload, one seed, one timed closed loop.

    python3 perfbench/run.py --workload ssb-flights --seed 42 --seconds 50 --trace 0

Run from the root of a checkout; escdb is imported from its ``src/``.
One client runs ops round-robin over the workload's op classes for
``--seconds`` seconds, each pass on the next of ``DATASETS`` datasets,
after an untimed warm-up pass on each; the loop and the answer check run
in a child forked after set-up.  Every op's answer is checked against
sqlite3.  The output lists each class's latencies and
every metric by name and unit; its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics (means per
traced op) and ``trace.overhead_frac``, and writes the spans to
``.perfbench-out/``.

Exit status: 0 when every answer matches the reference, 1 when an op
failed or a metric lacks samples, 2 when escdb cannot be imported from the
checkout or the arguments are bad.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import measure
from spans import Tracer, root_time, self_times, total_times, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# Set-up is timed this many times and the median kept: on the shared
# 2-core test box the same Python code ran up to 1.7x slower from one
# second to the next, so one import or one build is too noisy a sample.
SETUP_REPS = 11
# A fresh interpreter makes this script's imports and prints their time.
_IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import run, workloads; print(time.perf_counter() - t0)"
)
# Each run spreads its ops over this many datasets, generated from seeds
# derived from --seed.  Per-query latency depends on the data (how many
# dimension rows a selective flight matches, how hash-table keys happen
# to cluster) by 15% or more between seeds at these scales; pooling
# several datasets per run keeps that out of the run-to-run spread.
DATASETS = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload",
        required=True,
        choices=("ssb-flights", "tpch-correlated"),
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_escdb() -> bool:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import escdb
    except ImportError as exc:
        print(f"perfbench: cannot import escdb from {src}: {exc}", file=sys.stderr)
        return False
    found = Path(escdb.__file__).resolve().parent
    if found != (src / "escdb").resolve():
        print(f"perfbench: escdb imported from {found}, not {src}", file=sys.stderr)
        return False
    return True


@dataclass
class Loop:
    """What the timed loop saw."""

    samples: dict  # class -> latencies (ms) of ops that returned
    # (dataset, class, answer) -> ops
    observed: Counter = field(default_factory=Counter)
    attempted: int = 0
    errors: int = 0  # ops that raised
    busy_s: float = 0.0  # time inside ops
    traced_ops: int = 0
    traced_busy_s: float = 0.0
    udf_rows: int = 0  # rows the UDF saw during traced ops
    # complete passes only, keyed by "traced"
    pass_ops: dict = field(default_factory=lambda: {False: 0, True: 0})
    pass_busy_s: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    pass_ms: list = field(default_factory=list)  # complete untraced passes

    def error(self):
        """Count the exception being handled; print the first one."""
        if not self.errors:
            traceback.print_exc()
        self.errors += 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not _import_escdb():
        return 2
    import workloads

    import_s = statistics.median(_import_times(SETUP_REPS))
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        # set-up: every dataset, several times over
        build_s = []
        for _ in range(SETUP_REPS):
            states = None  # free the previous set before timing the next
            gc.collect()
            t0 = time.perf_counter()
            states = [
                workload.setup(args.seed * DATASETS + j, os.path.join(workdir, str(j)))
                for j in range(DATASETS)
            ]
            build_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_s)

        print(
            f"workload {workload.name}  seed {args.seed}  scale {workload.scale}  "
            f"datasets {DATASETS}  seconds {args.seconds:g}  trace {args.trace}"
        )
        for j, state in enumerate(states):
            print(f"dataset {j} tables: " + "  ".join(
                f"{n}={t.row_count}" for n, t in state.tables.items()
            ))
        for state in states:
            for op in workload.classes:
                try:
                    workload.execute(state, op)
                except Exception:
                    pass  # warm-up only; the timed loop records every failure

        # Freeze what set-up built, so that the loop's garbage collections
        # scan only what the ops allocate, as they would in a process that
        # holds one dataset (a CLI run holds none).
        gc.collect()
        gc.freeze()
        return _in_child(lambda: _measure(args, workload, states, setup_s))


def _import_times(n: int) -> list[float]:
    """This run's import time, and that of ``n - 1`` fresh interpreters
    making the same imports."""
    times = [time.perf_counter() - _T0]
    for _ in range(n - 1):
        probe = subprocess.run(
            [sys.executable, "-B", "-c", _IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        times.append(float(probe.stdout))
    return times


def _in_child(fn) -> int:
    """Run ``fn`` in a forked child; return its exit status.

    A child's ``ru_maxrss`` starts from its RSS at the fork, so set-up's
    passing peak (ssb-flights generates the whole fact table before
    cutting it) stays out of ``peak_rss_mb``, which then covers what the
    datasets hold and what the ops allocate.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = fn()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code if code >= 0 else 1


def _measure(args, workload, states, setup_s) -> int:
    """The timed loop, the answer check and the report."""
    import workloads

    tracer = Tracer(workloads.trace_targets()) if args.trace else None
    loop = _timed_loop(workload, states, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    expected = [workload.reference(state) for state in states]

    failed = loop.errors
    for (j, name, answer), n in loop.observed.items():
        if answer != expected[j][name]:
            failed += n
            print(f"MISMATCH dataset {j} {name}: got {answer!r}, "
                  f"expected {expected[j][name]!r}", file=sys.stderr)
    for name, v in loop.samples.items():
        p90 = measure.p90(v) if len(v) >= measure.MIN_P90_SAMPLES else float("nan")
        p50 = measure.p50(v) if v else float("nan")
        print(f"class {name:<16} n={len(v):<4} p50={p50:8.3f} ms  p90={p90:8.3f} ms")
    print(f"failed_frac {failed / loop.attempted} ratio "
          f"({failed} of {loop.attempted} ops)")

    try:
        if tracer is None:
            metrics = _end_to_end(loop, failed, setup_s, peak_rss_mb)
        else:
            metrics = _per_layer(loop, tracer)
    except (measure.TooFewSamples, ZeroDivisionError) as exc:
        print(f"perfbench: cannot report metrics: {exc}", file=sys.stderr)
        return 1
    if tracer is not None:
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(path, tracer.spans)
        print(f"spans: {len(tracer.spans)} written to {path}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _timed_loop(workload, states, seconds, tracer) -> Loop:
    """One client, closed loop, round-robin over the op classes.  Each
    pass over the classes uses the next dataset.  With a tracer, odd
    passes are traced and even passes are not; an odd number of datasets
    gives each dataset both kinds."""
    classes = workload.classes
    loop = Loop({op.name: [] for op in classes})
    this_pass = 0.0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = loop.attempted % len(classes)
        p = loop.attempted // len(classes)
        traced = tracer is not None and p % 2 == 1
        j = p % len(states)
        state = states[j]
        if k == 0:
            this_pass = 0.0
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
        op = classes[k]
        udf_before = state.udf_rows()
        if tracer is not None:
            tracer.op = loop.attempted
        t0 = time.perf_counter()
        try:
            raw = workload.execute(state, op)
        except Exception:
            raw = None
            loop.error()
        dt = time.perf_counter() - t0
        if raw is not None:
            loop.samples[op.name].append(dt * 1e3)
            try:
                loop.observed[j, op.name, workload.answer(op, raw)] += 1
            except Exception:
                loop.error()
        loop.attempted += 1
        loop.busy_s += dt
        this_pass += dt
        if traced:
            loop.traced_ops += 1
            loop.traced_busy_s += dt
            loop.udf_rows += state.udf_rows() - udf_before
        if k == len(classes) - 1:
            loop.pass_ops[traced] += len(classes)
            loop.pass_busy_s[traced] += this_pass
            if not traced:
                loop.pass_ms.append(this_pass * 1e3)
    if tracer is not None:
        tracer.uninstall()
    return loop


def _end_to_end(loop, failed, setup_s, peak_rss_mb) -> dict:
    """The bounded metrics.  The mean rate and the median latency are
    printed but not bounded: the test box runs at two speeds about 1.4x
    apart, and both move with the share of a run spent at each (see
    DESIGN.md).  A p90 falls among the slow-speed samples in nearly
    every run."""
    print(f"samples per class: min {min(map(len, loop.samples.values()))} "
          f"over {len(loop.samples)} classes; complete passes {len(loop.pass_ms)}")
    print(f"ops_per_s {(loop.attempted - failed) / loop.busy_s:.6g} ops/s "
          f"(mean over the run; not bounded)")
    print(f"op_ms.gm_p50 {measure.gm_over_classes(loop.samples, measure.p50):.6g} ms "
          f"(not bounded)")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s.p10": (
            measure.sustained_rate(loop.pass_ms, len(loop.samples)), "ops/s"
        ),
        "op_ms.gm_p90": (measure.gm_over_classes(loop.samples, measure.p90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def _per_layer(loop, tracer) -> dict:
    """Means per traced op.  Self times plus ``other_ms`` (op time that no
    span covers) add up to the op's wall time."""
    import workloads

    n = loop.traced_ops
    own, total = self_times(tracer.spans), total_times(tracer.spans)
    metrics = {}
    for span, metric in workloads.self_time_metrics().items():
        metrics[metric] = (own.get(span, 0.0) * 1e3 / n, "ms")
        if metric in workloads.TOTAL_TIME_METRICS:
            metrics[workloads.TOTAL_TIME_METRICS[metric]] = (
                total.get(span, 0.0) * 1e3 / n, "ms"
            )
    counts = tracer.counts
    counts["executor.udf_rows"] = loop.udf_rows
    for name in workloads.COUNT_METRICS:
        metrics[name] = (counts[name] / n, "count")
    subqueries = counts["optimizer.subqueries"]
    metrics["optimizer.pushdown_ratio"] = (
        counts["optimizer.pushdowns"] / subqueries if subqueries else 0.0,
        "ratio",
    )
    metrics["other_ms"] = (
        (loop.traced_busy_s - root_time(tracer.spans)) * 1e3 / n, "ms"
    )
    rate = {t: loop.pass_ops[t] / loop.pass_busy_s[t] for t in (False, True)}
    metrics["trace.overhead_frac"] = (1.0 - rate[True] / rate[False], "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
