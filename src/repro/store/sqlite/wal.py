"""The store's logical write log, kept in the ``wal_log`` table.

Every mutation of the store is one :class:`LogRecord`; replaying the log
over the snapshot rows reconstructs the store's state.  Each append is one
committed SQLite transaction, so a record is either wholly durable or
absent: SQLite's own WAL journal supplies the atomicity, and there is no
torn tail to find on reopen.

Sequence numbers survive truncation: :meth:`SQLiteWriteLog.truncate`
persists ``base_seq`` (the highest sequence truncated away) into the
``meta`` table in the same transaction that clears the rows, so the
service-checkpoint stamp protocol (:mod:`repro.api.checkpoints`) can prove
a tail complete — a stamp ``S`` is complete history exactly when
``S > base_seq``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.exceptions import StoreError
from repro.store.io import StorageIO
from repro.store.sqlite.connection import Database

#: Operations understood by the replay logic.  ``txn`` is a composite record
#: whose payload carries a whole transaction's operations — one committed
#: append, so the batch commits (and replays) atomically.
KNOWN_OPS = (
    "create_graph",
    "drop_graph",
    "add_node",
    "remove_node",
    "add_edge",
    "remove_edge",
    "set_node_features",
    "txn",
)


@dataclass(frozen=True)
class LogRecord:
    """One entry of the write log."""

    seq: int
    op: str
    graph: str
    payload: Dict[str, Any]


@dataclass
class WalRecoveryInfo:
    """What opening the write log found (surfaced via ``service.health()``)."""

    records: int = 0


def write_base_seq(db: Database, base_seq: int) -> None:
    """Persist the log's ``base_seq`` (inside the caller's transaction)."""
    db.execute(
        "INSERT INTO meta (key, value) VALUES ('wal_base_seq', ?) "
        "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
        (str(base_seq),),
    )


class SQLiteWriteLog:
    """Append-only logical write log stored in the ``wal_log`` table."""

    def __init__(self, db: Database, *, io: StorageIO) -> None:
        self.db = db
        self.io = io
        self._base_seq = int(self._meta("wal_base_seq") or 0)
        count, top = self.db.execute("SELECT count(*), max(seq) FROM wal_log").fetchone()
        self.recovery_info = WalRecoveryInfo(records=count)
        self._next_seq = max(top or 0, self._base_seq) + 1

    def _meta(self, key: str) -> Optional[str]:
        row = self.db.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return row[0] if row is not None else None

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, op: str, graph: str, payload: Optional[Dict[str, Any]] = None) -> LogRecord:
        """Durably append one record: one INSERT, one committed transaction.

        The sequence counter advances only after the commit succeeded, so
        a failed (and retried) append never runs ahead of durable state.  A
        fault reported *after* the commit leaves the counter where it was,
        so the retry rewrites the same row instead of colliding with it.
        """
        if op not in KNOWN_OPS:
            raise StoreError(f"unknown write-log operation {op!r}")
        record = LogRecord(seq=self._next_seq, op=op, graph=graph, payload=dict(payload or {}))
        with self.db.transaction("sqlite.append"):
            self.db.execute(
                "INSERT OR REPLACE INTO wal_log (seq, op, graph, payload) VALUES (?, ?, ?, ?)",
                (record.seq, record.op, record.graph, json.dumps(record.payload, default=str)),
            )
        self._next_seq += 1
        return record

    def truncate(self) -> None:
        """Discard every record, preserving the sequence counter in ``meta``.

        Clearing the rows and advancing ``base_seq`` commit atomically —
        a crash mid-truncate leaves either the full old log or the
        truncated one, never a partial history.
        """
        marker_seq = self._next_seq
        with self.db.transaction("sqlite.wal.truncate"):
            self.db.execute("DELETE FROM wal_log")
            write_base_seq(self.db, marker_seq)
        self._base_seq = marker_seq
        self._next_seq = marker_seq + 1

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    # Reads see the rows below ``next_seq``: every row a writable log
    # appended, and on a read-only (follower) open exactly the rows present
    # at open, however far the leader has written since.
    def records(self) -> List[LogRecord]:
        """All records currently in the log, in order."""
        return self.records_since(0)

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended record will carry."""
        return self._next_seq

    @property
    def base_seq(self) -> int:
        """The highest sequence number truncated away (0 on a full log)."""
        return self._base_seq

    def records_since(self, seq: int) -> List[LogRecord]:
        """Records with sequence numbers strictly greater than ``seq``."""
        rows = self.db.execute(
            "SELECT seq, op, graph, payload FROM wal_log WHERE seq > ? AND seq < ? ORDER BY seq",
            (seq, self._next_seq),
        ).fetchall()
        return [
            LogRecord(seq=number, op=op, graph=graph, payload=json.loads(payload))
            for number, op, graph, payload in rows
        ]

    def __len__(self) -> int:
        (count,) = self.db.execute(
            "SELECT count(*) FROM wal_log WHERE seq < ?", (self._next_seq,)
        ).fetchone()
        return count

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records())
