"""Read-only importer for store roots written by the retired JSON file engine.

Before the store kept everything in one SQLite database, a durable root held
one JSON snapshot per graph (``<name>.graph.json``), a ``catalog.json`` of
descriptor attributes and a framed write log (``wal.jsonl``).  The first
open of such a root imports it into the database
(:class:`~repro.store.sqlite.storage.SQLiteGraphStorage`); this module only
reads those files and never rewrites them:

* a snapshot or catalog that does not decode is quarantined — renamed aside
  to ``<name>.corrupt``, never deleted — and everything else still imports;
* each write-log line is a ``W1 <length> <crc32> <json>`` frame whose length
  and CRC must check out, or a bare JSON line from before framing existed;
* damage with nothing intact after it is a torn tail (a crash mid-append):
  the log ends there and the torn bytes are counted, while damage followed
  by intact records raises :class:`~repro.exceptions.CorruptionError`,
  because skipping it would drop committed history;
* ``checkpoint`` marker records carried the sequence counter across log
  truncations: they advance :attr:`LegacyLog.next_seq` and are never
  replayed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import CorruptionError, GraphError
from repro.graph.model import PropertyGraph
from repro.graph.serialization import graph_from_dict
from repro.store.io import StorageIO, quarantine
from repro.store.sqlite.wal import LogRecord

SNAPSHOT_SUFFIX = ".graph.json"
CATALOG_NAME = "catalog.json"
WAL_NAME = "wal.jsonl"

_FRAME_MAGIC = b"W1 "
_MARKER_OP = "checkpoint"


@dataclass
class LegacyLog:
    """The replayable records of a legacy write log and its sequence counter."""

    records: List[LogRecord] = field(default_factory=list)
    #: The sequence number the file engine would have handed out next.
    next_seq: int = 1
    #: Bytes of damaged tail after the last intact record (left on disk).
    torn_bytes: int = 0


def has_legacy_files(directory: Path) -> bool:
    """True when ``directory`` holds file-engine snapshots or a write log."""
    return (directory / WAL_NAME).exists() or any(directory.glob(f"*{SNAPSHOT_SUFFIX}"))


def read_snapshots(
    directory: Path, io: StorageIO, quarantined: List[str]
) -> Iterator[Tuple[str, PropertyGraph]]:
    """``(name, graph)`` per decodable snapshot, in file-name order.

    A snapshot that is not UTF-8, not JSON or not a valid graph is renamed
    aside and its file name appended to ``quarantined``.
    """
    for path in sorted(directory.glob(f"*{SNAPSHOT_SUFFIX}")):
        try:
            graph = graph_from_dict(json.loads(io.read_text(path)))
        except (UnicodeDecodeError, json.JSONDecodeError, GraphError):
            quarantine(io, path)
            quarantined.append(path.name)
            continue
        yield graph.name or path.name[: -len(SNAPSHOT_SUFFIX)], graph


def read_catalog(directory: Path, io: StorageIO, quarantined: List[str]) -> Dict[str, Any]:
    """Descriptor attributes by graph name (empty when absent or damaged)."""
    path = directory / CATALOG_NAME
    if not path.exists():
        return {}
    try:
        return json.loads(io.read_text(path))
    except (UnicodeDecodeError, json.JSONDecodeError):
        quarantine(io, path)
        quarantined.append(path.name)
        return {}


def read_log(directory: Path, io: StorageIO) -> LegacyLog:
    """Parse ``wal.jsonl`` line by line, stopping at a torn tail."""
    log = LegacyLog()
    path = directory / WAL_NAME
    if not path.exists():
        return log
    raw = io.read_bytes(path)
    good_end = offset = 0
    damage: Optional[Tuple[int, CorruptionError]] = None
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        line_end = len(raw) if newline < 0 else newline + 1
        line = raw[offset:line_end].rstrip(b"\n")
        if line:
            try:
                record = parse_line(line)
            except CorruptionError as exc:
                damage = damage or (offset, exc)
            else:
                if damage is not None:
                    start, first_error = damage
                    raise CorruptionError(
                        f"legacy write log {path} is corrupt at byte {start} with intact "
                        f"records after the damage ({first_error})",
                        path=str(path),
                    ) from first_error
                if record.op != _MARKER_OP:
                    log.records.append(record)
                log.next_seq = max(log.next_seq, record.seq + 1)
                good_end = line_end
        elif damage is None:
            good_end = line_end
        offset = line_end
    if damage is not None:
        log.torn_bytes = len(raw) - good_end
    return log


def parse_line(line: bytes) -> LogRecord:
    """One framed or bare-JSON log line; :class:`CorruptionError` on any damage."""
    body = line
    if line.startswith(_FRAME_MAGIC):
        try:
            _, length_text, crc_text, body = line.split(b" ", 3)
            length = int(length_text)
            expected_crc = int(crc_text, 16)
        except ValueError as exc:
            raise CorruptionError(f"corrupt write-log frame: {line[:80]!r}") from exc
        if len(body) != length:
            raise CorruptionError(
                f"write-log frame length mismatch (expected {length}, got {len(body)})"
            )
        if (zlib.crc32(body) & 0xFFFFFFFF) != expected_crc:
            raise CorruptionError("write-log frame failed its CRC check")
    try:
        data = json.loads(body.decode("utf-8", errors="replace"))
        return LogRecord(
            seq=int(data["seq"]), op=data["op"], graph=data["graph"], payload=data["payload"]
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(f"corrupt write-log line: {line[:80]!r}") from exc
