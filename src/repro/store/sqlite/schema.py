"""Schema DDL for the SQLite store engine.

One database per tenant root.  ``nodes``/``edges`` rows are the
*snapshot* (rewritten wholesale per graph at put/checkpoint time),
``wal_log`` rows are the logical write log (one row per record, each
committed through SQLite's own WAL), and ``meta`` carries the write log's
sequence counter across truncations.

Derived tables ride along with each snapshot write:

* ``intervals`` / ``extra_edges`` — the pre/post-order DFS-forest encoding
  (:mod:`repro.graph.intervals`) that serves ancestor/descendant closures
  as recursive range scans;
* ``node_search`` — an FTS5 index over node kinds and features (created
  only when the build ships FTS5; the engine degrades to a LIKE scan);
* ``accounts`` / ``markings`` / ``account_listing`` — protected-account
  payloads exploded into rows, with a materialized listing table so
  "what accounts does this tenant hold" is one indexed scan instead of a
  catalog walk + JSON parse per descriptor.
"""

from __future__ import annotations

from repro.store.sqlite.connection import Database

#: Bumped when the layout changes incompatibly; stored under ``meta``.
SCHEMA_VERSION = 1

_DDL = [
    """CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS graphs (
        name        TEXT PRIMARY KEY,
        kind        TEXT NOT NULL DEFAULT 'graph',
        description TEXT NOT NULL DEFAULT '',
        metadata    TEXT NOT NULL DEFAULT '{}',
        node_count  INTEGER NOT NULL DEFAULT 0,
        edge_count  INTEGER NOT NULL DEFAULT 0,
        position    INTEGER NOT NULL,
        snapshotted INTEGER NOT NULL DEFAULT 0
    )""",
    """CREATE TABLE IF NOT EXISTS nodes (
        graph    TEXT NOT NULL,
        id       TEXT NOT NULL,
        kind     TEXT,
        features TEXT NOT NULL DEFAULT '{}',
        position INTEGER NOT NULL,
        PRIMARY KEY (graph, id)
    ) WITHOUT ROWID""",
    """CREATE TABLE IF NOT EXISTS edges (
        graph    TEXT NOT NULL,
        source   TEXT NOT NULL,
        target   TEXT NOT NULL,
        label    TEXT,
        features TEXT NOT NULL DEFAULT '{}',
        position INTEGER NOT NULL,
        PRIMARY KEY (graph, source, target)
    ) WITHOUT ROWID""",
    "CREATE INDEX IF NOT EXISTS edges_by_target ON edges (graph, target)",
    """CREATE TABLE IF NOT EXISTS wal_log (
        seq     INTEGER PRIMARY KEY,
        op      TEXT NOT NULL,
        graph   TEXT NOT NULL,
        payload TEXT NOT NULL DEFAULT '{}'
    )""",
    """CREATE TABLE IF NOT EXISTS intervals (
        graph  TEXT NOT NULL,
        node   TEXT NOT NULL,
        pre    INTEGER NOT NULL,
        post   INTEGER NOT NULL,
        level  INTEGER NOT NULL,
        rpre   INTEGER NOT NULL,
        rpost  INTEGER NOT NULL,
        rlevel INTEGER NOT NULL,
        PRIMARY KEY (graph, node)
    ) WITHOUT ROWID""",
    "CREATE INDEX IF NOT EXISTS intervals_fwd ON intervals (graph, pre, post)",
    "CREATE INDEX IF NOT EXISTS intervals_rev ON intervals (graph, rpre, rpost)",
    """CREATE TABLE IF NOT EXISTS extra_edges (
        graph       TEXT NOT NULL,
        direction   TEXT NOT NULL,
        source      TEXT NOT NULL,
        target      TEXT NOT NULL,
        source_pre  INTEGER NOT NULL,
        source_post INTEGER NOT NULL
    )""",
    # The source node's own ranks ride along denormalized so the reach
    # fixpoint finds "extra edges leaving a reached interval" with one
    # bounded index range scan instead of probing intervals per edge.
    "CREATE INDEX IF NOT EXISTS extra_edges_window "
    "ON extra_edges (graph, direction, source_pre, source_post)",
    """CREATE TABLE IF NOT EXISTS accounts (
        name    TEXT PRIMARY KEY,
        graph   TEXT NOT NULL,
        payload TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS markings (
        account     TEXT NOT NULL,
        node        TEXT,
        edge_source TEXT,
        edge_target TEXT,
        marking     TEXT NOT NULL
    )""",
    "CREATE INDEX IF NOT EXISTS markings_by_account ON markings (account)",
    """CREATE TABLE IF NOT EXISTS account_listing (
        name            TEXT PRIMARY KEY,
        graph           TEXT NOT NULL,
        tenant          TEXT,
        privilege       TEXT,
        strategy        TEXT,
        node_count      INTEGER NOT NULL DEFAULT 0,
        edge_count      INTEGER NOT NULL DEFAULT 0,
        surrogate_nodes INTEGER NOT NULL DEFAULT 0,
        surrogate_edges INTEGER NOT NULL DEFAULT 0
    )""",
]

_FTS_DDL = (
    "CREATE VIRTUAL TABLE IF NOT EXISTS node_search "
    "USING fts5(graph UNINDEXED, id UNINDEXED, body)"
)


def ensure_schema(db: Database) -> None:
    """Create any missing tables/indexes (idempotent) and stamp the version."""
    with db.transaction("sqlite.schema"):
        for statement in _DDL:
            db.execute(statement)
        if db.fts_enabled:
            db.execute(_FTS_DDL)
        db.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
