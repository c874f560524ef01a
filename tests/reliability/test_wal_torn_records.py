"""Legacy write-log framing: torn tails at every byte offset, on import.

Roots written by the retired JSON file engine carry a ``W1``-framed
``wal.jsonl``.  The importer (:mod:`repro.store.sqlite.legacy`) must read
exactly the intact records of such a log — never drop a committed record,
never replay a torn one — without rewriting the legacy file, and the
imported store must continue the log's sequence.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CorruptionError, StoreError
from repro.store.engine import GraphStore
from repro.store.io import StorageIO
from repro.store.sqlite.legacy import parse_line, read_log

from tests.store.conftest import legacy_frame, write_legacy_root


def build_log(root, count=3):
    """A legacy log with ``count`` committed records; returns their frames."""
    frames = [
        legacy_frame(index + 1, "add_node", payload={"id": f"n{index}", "kind": None, "features": {}})
        for index in range(count)
    ]
    root.mkdir(parents=True, exist_ok=True)
    (root / "wal.jsonl").write_bytes(b"".join(frames))
    return frames


def read(root):
    return read_log(root, StorageIO())


def test_torn_tail_at_every_byte_offset(tmp_path):
    """Chopping the last record anywhere imports the intact prefix."""
    frames = build_log(tmp_path, count=3)
    intact = b"".join(frames[:-1])
    last = frames[-1]
    # Every proper prefix of the last frame, including the empty one.
    for cut in range(len(last)):
        torn = intact + last[:cut]
        (tmp_path / "wal.jsonl").write_bytes(torn)
        log = read(tmp_path)
        if cut == len(last) - 1:
            # Only the trailing newline is missing: every payload byte is
            # on disk and the CRC checks out, so the record is legitimately
            # recoverable — losing it would be over-truncation.
            assert [r.payload["id"] for r in log.records] == ["n0", "n1", "n2"]
            continue
        assert [r.payload["id"] for r in log.records] == ["n0", "n1"], (
            f"cut at {cut} byte(s) lost a committed record"
        )
        assert log.torn_bytes == cut
        assert log.next_seq == 3
        # The legacy file is read, never rewritten.
        assert (tmp_path / "wal.jsonl").read_bytes() == torn


def test_torn_single_record_log_imports_as_empty(tmp_path):
    [frame] = build_log(tmp_path, count=1)
    for cut in range(1, len(frame) - 1):
        (tmp_path / "wal.jsonl").write_bytes(frame[:cut])
        log = read(tmp_path)
        assert log.records == []
        assert log.torn_bytes == cut


def test_import_after_a_torn_tail_continues_the_sequence(tmp_path):
    frames = build_log(tmp_path, count=2)
    joined = b"".join(frames)
    write_legacy_root(tmp_path, log=joined[: len(joined) - 5])
    store = GraphStore(tmp_path)
    assert store.graph("g").node_ids() == ["n0"]
    assert store.health()["recovery"]["wal_torn_bytes"] == len(frames[1]) - 5
    store.add_node("g", "fresh")
    assert store.storage.wal.records()[-1].seq == 2
    # And a further reopen sees both, without importing again.
    reopened = GraphStore(tmp_path)
    assert reopened.storage.recovery_report.migrated_graphs == 0
    assert reopened.graph("g").node_ids() == ["n0", "fresh"]


def test_mid_log_damage_refuses_to_drop_committed_history(tmp_path):
    """Garbage *before* intact records is corruption, not a torn tail."""
    frames = build_log(tmp_path, count=3)
    mangled = bytearray(frames[1])
    mangled[len(mangled) // 2] ^= 0xFF
    (tmp_path / "wal.jsonl").write_bytes(frames[0] + bytes(mangled) + frames[2])
    with pytest.raises(CorruptionError):
        read(tmp_path)


def test_crc_catches_in_place_bitrot(tmp_path):
    [frame] = build_log(tmp_path, count=1)
    body_start = frame.index(b"{")
    flipped = bytearray(frame)
    flipped[body_start + 5] ^= 0x01
    (tmp_path / "wal.jsonl").write_bytes(bytes(flipped))
    log = read(tmp_path)  # single damaged record == torn tail
    assert log.records == []
    assert log.torn_bytes == len(frame)


def test_corrupt_line_detected():
    with pytest.raises(StoreError):
        parse_line(b"{not json")
    with pytest.raises(StoreError):
        parse_line(b'{"seq": 1, "op": "add_node"}')


def bare_line(seq, op, payload):
    """One unframed JSON line, as the file engine wrote before framing."""
    record = {"graph": "g", "op": op, "payload": payload, "seq": seq}
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


def test_torn_bare_json_tail_imports_the_intact_prefix(tmp_path):
    """An unframed last line cut anywhere is a torn tail, like a frame."""
    first = bare_line(1, "add_node", {"id": "n0"})
    last = bare_line(2, "add_node", {"id": "n1"})
    # Every prefix of the last line short of the bare newline cut.
    for cut in range(len(last) - 1):
        torn = first + last[:cut]
        (tmp_path / "wal.jsonl").write_bytes(torn)
        log = read(tmp_path)
        assert [r.payload["id"] for r in log.records] == ["n0"]
        assert log.torn_bytes == cut
        assert log.next_seq == 2
        assert (tmp_path / "wal.jsonl").read_bytes() == torn


def test_bare_lines_then_frames_import_in_order(tmp_path):
    """A log begun before framing and appended to after it replays whole."""
    log = (
        bare_line(1, "create_graph", {})
        + bare_line(2, "add_node", {"id": "old", "kind": None, "features": {}})
        + legacy_frame(3, "add_node", payload={"id": "new", "kind": None, "features": {}})
        + legacy_frame(4, "add_edge", payload={"source": "old", "target": "new"})
    )
    write_legacy_root(tmp_path, log=log)
    store = GraphStore(tmp_path)
    graph = store.graph("g")
    assert graph.node_ids() == ["old", "new"]
    assert graph.has_edge("old", "new")
    assert store.storage.wal.next_seq == 5
    assert (tmp_path / "wal.jsonl").read_bytes() == log


def test_legacy_bare_json_lines_still_replay(tmp_path):
    (tmp_path / "wal.jsonl").write_bytes(
        b'{"graph": "g", "op": "add_node", "payload": {"id": "old"}, "seq": 1}\n'
    )
    log = read(tmp_path)
    assert [record.payload["id"] for record in log.records] == ["old"]
    assert log.next_seq == 2


def test_truncation_marker_preserves_the_sequence_counter(tmp_path):
    (tmp_path / "wal.jsonl").write_bytes(legacy_frame(5, "checkpoint", graph=""))
    log = read(tmp_path)
    assert log.records == []
    assert log.next_seq == 6
    store = GraphStore(tmp_path)
    assert store.storage.wal.next_seq == 6
    store.create_graph("g")
    assert store.storage.wal.records()[-1].seq == 6


def test_markers_never_surface_as_records(tmp_path):
    log = (
        legacy_frame(1, "add_node", payload={"id": "a"})
        + legacy_frame(2, "checkpoint", graph="")
        + legacy_frame(3, "add_node", payload={"id": "b"})
    )
    (tmp_path / "wal.jsonl").write_bytes(log)
    parsed = read(tmp_path)
    assert [record.op for record in parsed.records] == ["add_node", "add_node"]
    assert parsed.next_seq == 4
