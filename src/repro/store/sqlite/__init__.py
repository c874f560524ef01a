"""The SQLite storage engine behind every :class:`~repro.store.engine.GraphStore`.

One database per store root (WAL mode), or a ``:memory:`` database for an
in-memory store, with relational extras on top of named-graph storage:
interval-encoded reachability served as recursive range scans
(:mod:`repro.store.sqlite.reachability`), paged out-of-core graph loads
(:mod:`repro.store.sqlite.paging`), FTS node search and a materialized
account listing.  :mod:`repro.store.sqlite.legacy` imports roots written
by the retired JSON file engine.
"""

from repro.store.sqlite.connection import BUSY_TIMEOUT_MS, Database
from repro.store.sqlite.paging import DEFAULT_PAGE_ROWS, PagingStats, load_graph_paged
from repro.store.sqlite.reachability import interval_reach, visible_frontier
from repro.store.sqlite.schema import SCHEMA_VERSION, ensure_schema
from repro.store.sqlite.storage import (
    DATABASE_NAME,
    RecoveryReport,
    SQLiteGraphStorage,
    replay_operation,
)
from repro.store.sqlite.wal import KNOWN_OPS, LogRecord, SQLiteWriteLog, WalRecoveryInfo

__all__ = [
    "BUSY_TIMEOUT_MS",
    "DATABASE_NAME",
    "DEFAULT_PAGE_ROWS",
    "Database",
    "KNOWN_OPS",
    "LogRecord",
    "PagingStats",
    "RecoveryReport",
    "SCHEMA_VERSION",
    "SQLiteGraphStorage",
    "SQLiteWriteLog",
    "WalRecoveryInfo",
    "ensure_schema",
    "interval_reach",
    "load_graph_paged",
    "replay_operation",
    "visible_frontier",
]
