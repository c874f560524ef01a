"""Factories for the store contract suite.

The factories accept an optional directory: a path builds a durable store,
and calling the factory again with the same path reopens it (the recovery
path).  Without a directory the store's placement decides: an in-memory
(``:memory:``) database by default, or a fresh directory of its own under
:data:`in_memory_and_durable`, which runs a test once per placement.  The
``legacy_*`` helpers write roots in the layout of the retired JSON file
engine, for the import tests.
"""

import json
import zlib

import pytest

from repro.graph.serialization import graph_to_json
from repro.store.engine import GraphStore
from repro.store.sqlite import SQLiteGraphStorage


PLACEMENTS = ("memory", "durable")

#: Run a test once on in-memory stores and once on durable ones.
in_memory_and_durable = pytest.mark.parametrize("placement", PLACEMENTS, indirect=True)


@pytest.fixture
def placement(request):
    """Where a factory call without a directory puts its store."""
    return getattr(request, "param", "memory")


@pytest.fixture
def fresh_directory(placement, tmp_path_factory):
    """``None`` in memory; a new directory per call when durable."""

    def directory():
        return tmp_path_factory.mktemp("store") if placement == "durable" else None

    return directory


@pytest.fixture
def make_store(fresh_directory):
    """Factory for :class:`GraphStore` instances."""

    def factory(directory=None, **kwargs):
        return GraphStore(directory or fresh_directory(), **kwargs)

    return factory


@pytest.fixture
def make_storage(fresh_directory):
    """Factory for raw :class:`SQLiteGraphStorage` backends."""

    def factory(directory=None, **kwargs):
        return SQLiteGraphStorage(directory or fresh_directory(), **kwargs)

    return factory


def legacy_frame(seq, op, graph="g", payload=None):
    """One ``W1 <length> <crc32> <json>`` line as the file engine framed it."""
    body = json.dumps(
        {"seq": seq, "op": op, "graph": graph, "payload": payload or {}}, sort_keys=True
    ).encode("utf-8")
    return b"W1 %d %08x " % (len(body), zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


def write_legacy_root(root, graphs=(), *, catalog=None, log=b""):
    """A store root in the retired file engine's layout.

    One ``<name>.graph.json`` snapshot per graph, ``catalog.json`` (default:
    one plain descriptor per graph) and ``wal.jsonl`` when ``log`` is given.
    """
    root.mkdir(parents=True, exist_ok=True)
    for graph in graphs:
        (root / f"{graph.name}.graph.json").write_text(graph_to_json(graph))
    if catalog is None:
        catalog = {
            graph.name: {"kind": "graph", "description": "", "metadata": {}} for graph in graphs
        }
    (root / "catalog.json").write_text(json.dumps(catalog, indent=2))
    if log:
        (root / "wal.jsonl").write_bytes(log)
    return root
