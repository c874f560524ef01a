"""SQLite connection management for the store engine.

One :class:`Database` wraps one ``sqlite3`` connection with:

* the WAL-mode pragma recipe (``journal_mode=WAL``, ``synchronous=NORMAL``,
  ``busy_timeout``, ``foreign_keys=ON``) — group commit with durable-enough
  sync for a single-writer store, concurrent readers never block the writer;
* explicit transactions with **named injection points** threaded through the
  :class:`~repro.store.io.StorageIO` seam, so the fault-injection harness
  can crash the process on either side of every commit;
* typed error mapping — ``sqlite3.OperationalError`` (locks, I/O) surfaces
  as :class:`~repro.exceptions.TransientError` so retry policies apply, and
  other ``sqlite3.DatabaseError``\\ s (a corrupt or non-database file)
  surface as :class:`~repro.exceptions.CorruptionError` so the storage
  layer can quarantine the file;
* a close when the :class:`Database` is freed.  A ``sqlite3.Connection``
  sits in a reference cycle with its own statement cache, so one that
  nobody closes lives until a full collection, keeping the root's
  ``-wal``/``-shm`` files in place until then.
"""

from __future__ import annotations

import sqlite3
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.exceptions import CorruptionError, ReadOnlyStoreError, TransientError
from repro.store.io import StorageIO

#: Matches the recipe in SNIPPETS.md Snippet 1: wait up to 30 s on a locked
#: database before surfacing a transient error.
BUSY_TIMEOUT_MS = 30_000


class Database:
    """One SQLite connection with pragmas, locking and injection points."""

    def __init__(
        self,
        target: Union[str, Path],
        *,
        io: StorageIO,
        page_cache_pages: Optional[int] = None,
        read_only: bool = False,
    ) -> None:
        self.io = io
        self.path = None if str(target) == ":memory:" else Path(target)
        self.read_only = read_only
        self._lock = threading.RLock()
        if read_only and self.path is None:
            raise ValueError("an in-memory database cannot be opened read-only")
        try:
            if read_only:
                # A ``mode=ro`` URI open never takes write locks and never
                # creates the file — exactly what follower processes need to
                # coexist with a live writer on the same WAL-mode root.
                self.conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro",
                    uri=True,
                    timeout=BUSY_TIMEOUT_MS / 1000.0,
                    isolation_level=None,
                    check_same_thread=False,
                )
            else:
                self.conn = sqlite3.connect(
                    str(target),
                    timeout=BUSY_TIMEOUT_MS / 1000.0,
                    isolation_level=None,  # explicit BEGIN/COMMIT below
                    check_same_thread=False,
                )
            self._close = weakref.finalize(self, self.conn.close)
            self._apply_pragmas(page_cache_pages)
        except sqlite3.DatabaseError as exc:
            raise CorruptionError(f"cannot open SQLite database {target}: {exc}") from exc
        self.fts_enabled = self._probe_fts()

    def _apply_pragmas(self, page_cache_pages: Optional[int]) -> None:
        cursor = self.conn.cursor()
        if self.path is not None and not self.read_only:
            cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute("PRAGMA synchronous=NORMAL")
        cursor.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        cursor.execute("PRAGMA foreign_keys=ON")
        if page_cache_pages is not None:
            # Positive values are page counts; this is the out-of-core
            # budget knob the paging regression test turns down hard.
            cursor.execute(f"PRAGMA cache_size={int(page_cache_pages)}")
        cursor.close()

    def _probe_fts(self) -> bool:
        try:
            self.conn.execute("CREATE VIRTUAL TABLE temp.fts_probe USING fts5(body)")
            self.conn.execute("DROP TABLE temp.fts_probe")
            return True
        except sqlite3.DatabaseError:
            return False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str, params: Union[Sequence, dict] = ()) -> sqlite3.Cursor:
        """Run one statement, mapping SQLite errors onto the store's types."""
        with self._lock:
            try:
                return self.conn.execute(sql, params)
            except sqlite3.OperationalError as exc:
                raise TransientError(f"sqlite statement failed: {exc}", point="sqlite") from exc
            except sqlite3.DatabaseError as exc:
                raise CorruptionError(f"sqlite database damaged: {exc}") from exc

    def executemany(self, sql: str, rows: Iterable[Sequence]) -> None:
        with self._lock:
            try:
                self.conn.executemany(sql, rows)
            except sqlite3.OperationalError as exc:
                raise TransientError(f"sqlite batch failed: {exc}", point="sqlite") from exc
            except sqlite3.DatabaseError as exc:
                raise CorruptionError(f"sqlite database damaged: {exc}") from exc

    @contextmanager
    def transaction(self, point: str) -> Iterator[None]:
        """One explicit transaction with ``<point>.begin/.commit/.after`` hooks.

        The commit is the durability point (SQLite's own WAL makes it
        atomic); any exception — including a simulated crash injected at
        ``<point>.commit`` — rolls the transaction back so the connection is
        reusable and the database reflects only committed state, exactly
        what a real process death would leave behind.
        """
        if self.read_only:
            raise ReadOnlyStoreError(
                f"refusing write transaction {point!r} on a read-only connection"
            )
        with self._lock:
            self.io.checkpoint(f"{point}.begin")
            self.execute("BEGIN IMMEDIATE")
            try:
                yield
                self.io.checkpoint(f"{point}.commit")
                try:
                    self.conn.execute("COMMIT")
                except sqlite3.OperationalError as exc:
                    raise TransientError(f"sqlite commit failed: {exc}", point=point) from exc
            except BaseException:
                try:
                    self.conn.rollback()
                except sqlite3.Error:  # pragma: no cover - double-fault path
                    pass
                raise
            self.io.checkpoint(f"{point}.after")

    @contextmanager
    def read_snapshot(self) -> Iterator[None]:
        """One consistent read view across several SELECTs.

        A ``BEGIN DEFERRED`` transaction takes only read locks, pinning a
        single WAL snapshot for its duration — a multi-statement scan (node
        rows, then edge rows) can never observe a concurrent writer's
        commit landing between its statements.  Legal on read-only
        connections (it writes nothing), and a no-op when already inside a
        transaction, whose snapshot it would inherit anyway.
        """
        with self._lock:
            if self.conn.in_transaction:
                yield
                return
            self.execute("BEGIN DEFERRED")
            try:
                yield
            finally:
                try:
                    self.conn.execute("COMMIT")
                except sqlite3.Error:  # pragma: no cover - read txns don't fail
                    try:
                        self.conn.rollback()
                    except sqlite3.Error:
                        pass

    def integrity_probe(self) -> None:
        """Touch the schema so a corrupt file fails *now*, not mid-request."""
        self.execute("SELECT count(*) FROM sqlite_master").fetchone()

    def close(self) -> None:
        with self._lock:
            try:
                self._close()
            except sqlite3.Error:  # pragma: no cover - best-effort close
                pass
