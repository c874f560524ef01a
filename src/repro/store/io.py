"""The storage I/O seam: every file the store writes outside its database.

The SQLite database commits through its own journal; everything else the
store persists — service checkpoints, account files, quarantine renames —
goes through :class:`StorageIO`: atomic writes, renames, fsyncs, reads and
unlinks.  Centralising the surface buys two things:

* **Defined commit points.**  Each primitive spells out its durability
  protocol (atomic write = temp file + fsync + ``os.replace`` + directory
  fsync), so the failure model in ``docs/reliability.md`` describes real
  code paths, not intent.
* **Fault injection.**  Every sub-step announces itself through
  :meth:`StorageIO.checkpoint` with a named *injection point*, and so does
  every SQLite transaction (:meth:`repro.store.sqlite.Database.transaction`).
  The default implementation ignores these calls; the test-only
  :class:`~repro.reliability.faults.FaultInjector` subclass turns them into
  deterministic torn writes, transient ``OSError``\\ s and simulated crashes,
  which is how the crash-recovery suite visits every commit boundary.

Operating-system failures (``OSError`` from any primitive) surface as
:class:`~repro.exceptions.TransientError` so callers retry through one typed
channel instead of guessing which bare exceptions are safe to retry.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.exceptions import TransientError

PathLike = Union[str, Path]

#: Suffix of the temp files atomic writes stage data in; recovery deletes
#: orphans (a crash between staging and rename leaves one behind).
TMP_SUFFIX = ".tmp"


class StorageIO:
    """Filesystem primitives with explicit durability and injection points.

    Subclasses (the fault injector) override :meth:`checkpoint` and
    :meth:`write_step`; production code uses this class as-is.
    """

    # ------------------------------------------------------------------ #
    # injection hooks (no-ops in production)
    # ------------------------------------------------------------------ #
    def checkpoint(self, point: str) -> None:
        """Announce one injection point; overridden by the fault injector."""

    def write_step(self, point: str, handle, data: bytes) -> None:
        """Write ``data`` to an open binary handle (the torn-write hook)."""
        handle.write(data)

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #
    def atomic_write_text(self, path: PathLike, text: str) -> None:
        """Atomically replace ``path`` with ``text`` (temp + fsync + rename).

        The commit point is the ``os.replace``: readers observe either the
        old complete file or the new complete file, never a prefix.  The
        directory fsync afterwards makes the rename itself durable.
        """
        path = Path(path)
        tmp = path.with_name(path.name + TMP_SUFFIX)
        self.checkpoint("atomic.before")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as handle:
                self.write_step("atomic.write", handle, text.encode("utf-8"))
                handle.flush()
                self.checkpoint("atomic.fsync")
                os.fsync(handle.fileno())
            self.checkpoint("atomic.replace")
            os.replace(tmp, path)
            self.fsync_dir(path.parent)
        except OSError as exc:
            try:
                if tmp.exists():
                    tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise TransientError(
                f"atomic write of {path} failed: {exc}", point="atomic"
            ) from exc
        self.checkpoint("atomic.after")

    def fsync_dir(self, directory: PathLike) -> None:
        """Make a directory's entry table durable (after renames/unlinks)."""
        self.checkpoint("dir.fsync")
        try:
            fd = os.open(str(directory), os.O_RDONLY)
        except OSError:  # pragma: no cover - platforms without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync on dirs may be unsupported
            pass
        finally:
            os.close(fd)

    def read_bytes(self, path: PathLike) -> bytes:
        """Read a file completely (no injection: reads cannot tear state)."""
        try:
            return Path(path).read_bytes()
        except OSError as exc:
            raise TransientError(f"read of {path} failed: {exc}", point="read") from exc

    def read_text(self, path: PathLike) -> str:
        """Read a file as UTF-8 text."""
        return self.read_bytes(path).decode("utf-8")

    def unlink(self, path: PathLike, *, missing_ok: bool = True) -> None:
        """Remove one file (idempotent by default)."""
        self.checkpoint("unlink")
        try:
            Path(path).unlink()
        except FileNotFoundError:
            if not missing_ok:
                raise TransientError(f"unlink of {path} failed: not found", point="unlink")
        except OSError as exc:
            raise TransientError(f"unlink of {path} failed: {exc}", point="unlink") from exc

    def replace(self, source: PathLike, destination: PathLike) -> None:
        """Atomically rename ``source`` over ``destination``."""
        self.checkpoint("replace")
        try:
            os.replace(str(source), str(destination))
            self.fsync_dir(Path(destination).parent)
        except OSError as exc:
            raise TransientError(
                f"rename {source} -> {destination} failed: {exc}", point="replace"
            ) from exc


#: Shared default adapter; stateless, so one instance serves every store.
DEFAULT_IO = StorageIO()


def resolve_io(io: Optional[StorageIO]) -> StorageIO:
    """The caller's adapter, or the shared production default."""
    return io if io is not None else DEFAULT_IO


#: Suffix a damaged file is renamed aside with (never deleted).
QUARANTINE_SUFFIX = ".corrupt"


def quarantine(io: StorageIO, path: Path) -> Path:
    """Rename a damaged file to a free ``<name>.corrupt[.N]``; returns it."""
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    suffix = 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}{QUARANTINE_SUFFIX}.{suffix}")
    io.replace(path, target)
    return target
