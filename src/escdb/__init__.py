"""escdb: in-memory columnar SQL engine whose optimizer measures
predicate selectivities exactly by running COUNT sub-queries at
planning time, builds each counted table from the boolean mask its
count selected, and orders hash joins by the measured cardinalities."""

from .bench import BenchReport, GenSpec, generate, plan_quality_suite
from .engine import Engine, QueryResult
from .errors import EscdbError
from .optimizer import explain_json, explain_text, plan
from .storage import ColumnTable, load_csv, dump_csv

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ColumnTable",
    "Engine",
    "EscdbError",
    "GenSpec",
    "QueryResult",
    "__version__",
    "dump_csv",
    "explain_json",
    "explain_text",
    "generate",
    "load_csv",
    "plan",
    "plan_quality_suite",
]
