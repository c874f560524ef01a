"""Embedded graph store: the database substrate behind the PLUS prototype.

The paper's evaluation (Figure 10) times four phases of serving a protected
graph: DB access, building the graph, protecting it by hiding and protecting
it by surrogates.  The original PLUS prototype sits on a relational store;
this package provides the equivalent substrate in pure Python:

* :mod:`repro.store.wal` — an append-only write log with replay;
* :mod:`repro.store.storage` — durable named-graph storage (JSON snapshots
  + log), or fully in-memory operation;
* :mod:`repro.store.index` — the feature index;
* :mod:`repro.store.transactions` — atomic multi-operation batches;
* :mod:`repro.store.catalog` — the named-graph catalog;
* :mod:`repro.store.engine` — the :class:`~repro.store.engine.GraphStore`
  facade with phase timing instrumentation used by the Figure-10 benchmark;
* :mod:`repro.store.sqlite` — the SQLite storage engine: the same surface
  over one database per store root, with interval-encoded reachability
  served as SQL range scans, paged out-of-core loads and FTS node search
  (``GraphStore(..., engine="sqlite")``).
"""

from repro.store.engine import STORE_ENGINES, GraphStore, PhaseTimer, StoreStats
from repro.store.storage import GraphStorage, RecoveryReport
from repro.store.transactions import Transaction
from repro.store.catalog import Catalog, GraphDescriptor
from repro.store.index import FeatureIndex
from repro.store.wal import WriteAheadLog, LogRecord

__all__ = [
    "STORE_ENGINES",
    "GraphStore",
    "PhaseTimer",
    "StoreStats",
    "GraphStorage",
    "RecoveryReport",
    "Transaction",
    "Catalog",
    "GraphDescriptor",
    "FeatureIndex",
    "WriteAheadLog",
    "LogRecord",
]
