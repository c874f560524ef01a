"""Embedded graph store: the database substrate behind the PLUS prototype.

The paper's evaluation (Figure 10) times four phases of serving a protected
graph: DB access, building the graph, protecting it by hiding and protecting
it by surrogates.  The original PLUS prototype sits on a relational store;
this package provides the equivalent substrate on SQLite:

* :mod:`repro.store.sqlite` — one database per store root (or a
  ``:memory:`` database), holding snapshot rows, the logical write log,
  interval-encoded reachability served as SQL range scans, paged
  out-of-core loads and FTS node search;
* :mod:`repro.store.index` — the feature index;
* :mod:`repro.store.transactions` — atomic multi-operation batches;
* :mod:`repro.store.catalog` — the named-graph catalog;
* :mod:`repro.store.engine` — the :class:`~repro.store.engine.GraphStore`
  facade the Figure-10 benchmark drives.
"""

from repro.store.engine import GraphStore, StoreStats
from repro.store.sqlite import LogRecord, RecoveryReport
from repro.store.transactions import Transaction
from repro.store.catalog import Catalog, GraphDescriptor
from repro.store.index import FeatureIndex

__all__ = [
    "GraphStore",
    "StoreStats",
    "RecoveryReport",
    "Transaction",
    "Catalog",
    "GraphDescriptor",
    "FeatureIndex",
    "LogRecord",
]
