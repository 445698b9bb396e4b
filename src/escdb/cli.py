"""Command-line entry point.

Subcommands: ``load`` (validate a CSV against a schema), ``sql`` (run one
query), ``batch`` (run a ``.sql`` file), ``repl`` (interactive), and
``bench`` (run a benchmark suite and write its JSON report).

Exit codes: 0 success, 1 runtime failure (a missing or unreadable file,
storage/parse/analysis/planning/execution errors), 2 usage errors (bad
flags, unknown suite).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bench as bench_mod
from . import frontend, optimizer
from .engine import Engine
from .errors import EscdbError, UsageError


def _add_query_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="TABLE:PATH:SCHEMA",
        help="load a CSV before running; schema is name:kind,... "
        "(kinds: int64, date, text, decimal(p,s)); repeatable",
    )
    p.add_argument(
        "--header",
        action="store_true",
        help="loaded CSVs start with a header row",
    )
    p.add_argument(
        "--arm",
        choices=optimizer.ARMS,
        default="esc",
        help="where join-order selectivities come from: exact counts, "
        "none, or histogram estimates (default: esc)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="probe pipeline worker threads (default: 1)",
    )
    p.add_argument(
        "--explain", action="store_true", help="print the plan before results"
    )
    p.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="result format (default: text)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``escdb`` argument parser, built once per process: ``parse_args``
    leaves it unchanged, and ``--load``'s append action copies its default."""
    parser = argparse.ArgumentParser(
        prog="escdb",
        description="In-memory columnar SQL engine with exact "
        "selectivity computation in the optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="validate a CSV file against a schema")
    p.add_argument("path")
    p.add_argument("--table", required=True)
    p.add_argument("--schema", required=True, metavar="SPEC")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("sql", help="run one SQL query")
    p.add_argument("query")
    _add_query_flags(p)

    p = sub.add_parser("batch", help="run ;-separated statements from a file")
    p.add_argument("path")
    _add_query_flags(p)

    p = sub.add_parser("repl", help="interactive session")
    _add_query_flags(p)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("suite", choices=sorted(bench_mod.SUITES))
    p.add_argument(
        "--scale",
        type=float,
        help="generator scale (default: 0.01); overhead-scale runs its own scales",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")
    p.add_argument("--output", choices=("text", "json"), default="text")

    return parser


def _engine_from_args(args) -> Engine:
    """The engine the flags configure, with no table loaded yet; every bad
    flag, ``--load`` specs included, is a usage error before a file is
    opened."""
    try:
        engine = Engine(arm=args.arm, workers=args.workers)
    except ValueError as e:
        raise UsageError(str(e)) from e
    for item in args.load:
        if item.count(":") < 2:
            raise UsageError(
                f"--load expects TABLE:PATH:SCHEMA, got {item!r}"
            )
    return engine


def _run_loads(engine: Engine, args):
    for item in args.load:
        table, path, schema = item.split(":", 2)
        _load_table(engine, table, path, schema, args.header)


def _load_table(engine: Engine, table, path, schema, has_header):
    """Load one CSV for ``escdb load``, ``--load`` or the REPL's ``\\load``.
    A malformed schema spec is a usage error; an unreadable path raises
    OSError, a runtime failure reported as ``error [io]``."""
    try:
        return engine.load_csv_file(path, table, schema, has_header=has_header)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _result_payload(result, explain: bool) -> dict:
    payload: dict = {
        "time_ms": round(result.time_ms, 3),
        "overhead_ms": round(result.plan.overhead_ms, 3),
    }
    if result.is_count:
        payload["count"] = result.count
    else:
        payload["columns"] = [c.name for c in result.rows.columns]
        payload["rows"] = [
            list(result.rows.row(i)) for i in range(result.rows.row_count)
        ]
    if explain:
        payload["plan"] = optimizer.explain_json(result.plan, result.stats)
    return payload


def _print_result(result, args, out=None):
    out = out or sys.stdout
    if args.output == "json":
        json.dump(_result_payload(result, args.explain), out, indent=2)
        out.write("\n")
        return
    if args.explain:
        out.write(optimizer.explain_text(result.plan))
        out.write("\n")
    if result.is_count:
        out.write(f"count: {result.count}\n")
    else:
        from .storage import dump_csv

        out.write(dump_csv(result.rows, include_header=True))


def _error_line(e: EscdbError | OSError) -> str:
    """A runtime failure as one ``error [phase]: ...`` line; a missing or
    unreadable file is phase ``io``."""
    phase = "io" if isinstance(e, OSError) else e.phase
    return f"error [{phase}]: {e}"


def cmd_load(args) -> int:
    table = _load_table(Engine(), args.table, args.path, args.schema, args.header)
    print(
        f"loaded {table.name}: {table.row_count} rows, "
        f"{len(table.columns)} columns"
    )
    return 0


def cmd_sql(args) -> int:
    engine = _engine_from_args(args)
    _run_loads(engine, args)
    result = engine.run(args.query)
    _print_result(result, args)
    return 0


def cmd_batch(args) -> int:
    # the script is read before any --load, so a missing or undecodable
    # script is reported without waiting for the loads
    engine = _engine_from_args(args)
    with open(args.path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise OSError(
            f"{args.path}: line {line}: byte 0x{data[exc.start]:02x} is not "
            f"valid utf-8 ({exc.reason})"
        ) from exc
    _run_loads(engine, args)
    for stmt in frontend.split_statements(text):
        result = engine.run(stmt)
        _print_result(result, args)
    return 0


def cmd_repl(args, stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    engine = _engine_from_args(args)
    _run_loads(engine, args)
    stdout.write("escdb repl; end with 'exit', load with "
                 "'\\load TABLE PATH SCHEMA'\n")
    for line in stdin:
        line = line.strip()
        if line in ("exit", "quit"):
            break
        # a line is one \load, or any number of statements and comments
        is_load = line.startswith("\\load")
        for command in [line] if is_load else frontend.split_statements(line):
            try:
                if is_load:
                    parts = command.split()
                    if len(parts) != 4:
                        raise UsageError("usage: \\load TABLE PATH SCHEMA")
                    _, table, path, schema = parts
                    loaded = _load_table(engine, table, path, schema, args.header)
                    stdout.write(f"loaded {table}: {loaded.row_count} rows\n")
                else:
                    result = engine.run(command)
                    _print_result(result, args, out=stdout)
                    stdout.write(f"({result.time_ms:.3f} ms)\n")
            except (EscdbError, OSError) as e:
                stdout.write(_error_line(e) + "\n")
    return 0


def cmd_bench(args) -> int:
    for flag, least in (("reps", 1), ("workers", 1), ("seed", 0)):
        value = getattr(args, flag)
        if value < least:
            raise UsageError(f"--{flag} must be at least {least}, got {value}")
    kwargs = dict(seed=args.seed, reps=args.reps, workers=args.workers)
    if args.scale is not None:
        if args.suite == "overhead-scale":
            raise UsageError("--scale does not apply to overhead-scale")
        kwargs["scale"] = args.scale
    report = bench_mod.SUITES[args.suite](**kwargs)
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    if args.output == "json":
        json.dump(report.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(report.to_text())
    return 0


_COMMANDS = {
    "load": cmd_load,
    "sql": cmd_sql,
    "batch": cmd_batch,
    "repl": cmd_repl,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (EscdbError, OSError) as e:
        print(_error_line(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
