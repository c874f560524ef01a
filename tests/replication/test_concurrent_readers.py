"""Multi-process readers over one WAL-mode root while a writer edits.

The relaxed registry assumption: one process owns a root *writable*; any
number of processes may open it ``read_only`` concurrently.  WAL mode plus
``mode=ro`` URI opens mean readers take no write locks — so N reader
processes hammering snapshots, lineage queries and delta-log tails while
the leader keeps editing must see zero ``database is locked`` errors and
only consistent snapshots.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from tests.replication.conftest import apply_random_edit, random_family

from repro.api.registry import ServiceRegistry
from repro.api.service import ProtectionService
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.exceptions import ReadOnlyStoreError
from repro.replication.log import ReplicationPublisher
from repro.store.engine import GraphStore

SRC = str(Path(__file__).resolve().parents[2] / "src")

READER = r"""
import sys
sys.path.insert(0, sys.argv[3])
from repro.exceptions import NodeNotFoundError, ReplicationGapError
from repro.replication.log import DeltaLog
from repro.store.engine import GraphStore

root, iterations = sys.argv[1], int(sys.argv[2])
for _ in range(iterations):
    store = GraphStore(root, read_only=True)
    log = DeltaLog(root, read_only=True)
    try:
        for name in store.graph_names():
            graph = store.storage.snapshot_graph(name)
            # A consistent snapshot: every edge endpoint resolves.
            for source, target in graph.edge_keys():
                assert graph.has_node(source) and graph.has_node(target)
            nodes = graph.node_ids()
            if nodes:
                try:
                    store.storage.sql_lineage(name, nodes[0], direction="descendants")
                except NodeNotFoundError:
                    pass  # deleted between our two reads: a fine answer
        vector = log.vector()
        for name, head in vector.items():
            try:
                rows = log.records_since(name, max(0, head - 5))
            except ReplicationGapError:
                continue  # compaction raced us: explicitly signalled, fine
            assert all(seq <= log.head_for(name) for seq, _ in rows)
    finally:
        log.close()
        store.storage.close()
print("reader-ok")
"""


@pytest.mark.slow
def test_n_reader_processes_race_one_writer(tmp_path):
    root = tmp_path / "tenant"
    store = GraphStore(root)
    graph, _policy, _consumer = random_family(seed=5)
    service = ProtectionService(None, ReleasePolicy(PrivilegeLattice()), store=store)
    publisher = ReplicationPublisher(service)
    publisher.publish("main", graph)
    try:
        readers = [
            subprocess.Popen(
                [sys.executable, "-c", READER, str(root), "12", SRC],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        # The writer keeps editing (and checkpointing, which rewrites the
        # snapshot rows readers are scanning) until every reader is done.
        rng = random.Random(11)
        step = 0
        while any(proc.poll() is None for proc in readers):
            apply_random_edit(graph, rng, step)
            if step % 7 == 0:
                publisher.checkpoint("main")
            step += 1
            if step > 4000:  # safety valve, never expected
                break
        for proc in readers:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "reader-ok" in out
            assert "database is locked" not in err
    finally:
        publisher.close()
        publisher.log.close()
        store.storage.close()


def test_read_only_registry_relaxes_one_process_per_root(tmp_path):
    """Two read-only registries + the writer share a root, in one process
    here (the cross-process variant is the subprocess test above)."""
    writer = ServiceRegistry(tmp_path)
    writer.register("acme")
    writer_store = writer.store_for("acme")
    graph, policy, consumer = random_family(seed=6)
    writer_store.put_graph(graph, name="main")

    followers = [
        ServiceRegistry(tmp_path, read_only=True)
        for _ in range(2)
    ]
    try:
        for registry in followers:
            registry.register("acme")
            store = registry.store_for("acme")
            assert store.read_only
            assert "main" in store.graph_names()
            with pytest.raises(ReadOnlyStoreError):
                store.put_graph(graph, name="clobber")
            # Reads still work end to end: a service over the read-only
            # store serves protection requests (it just cannot persist).
            from repro.api.requests import ProtectionRequest

            service = registry.service("acme", graph, policy)
            result = service.protect(
                ProtectionRequest(privileges=(consumer,), graph=graph)
            )
            assert result.account is not None
    finally:
        for registry in followers:
            registry.store_for("acme").storage.close()
        writer_store.storage.close()
