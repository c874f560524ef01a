"""Persisting protected accounts through the embedded graph store.

A :class:`~repro.core.protected_account.ProtectedAccount` is more than its
graph: the correspondence map, the surrogate node/edge sets, the target
privilege and the strategy label are all needed to score or enforce the
account later.  The store itself only knows named graphs, so the account
graph is stored normally (``store.put_graph``) and the remaining metadata is
attached to the graph's catalog descriptor — plus, for durable stores, a
sidecar ``<name>.account.json`` file next to the graph snapshot so a
reopened store can rebuild the account.

The payload format mirrors :mod:`repro.graph.serialization`'s style::

    {
      "format_version": 1,
      "privilege": "High-2" | null,
      "strategy": "surrogate",
      "correspondence": [[account_node, original_node], ...],
      "surrogate_nodes": [...],
      "surrogate_edges": [[source, target], ...]
    }

except that the three row tables above are written as packed tab-joined
columns (:func:`repro.codec.pack_table`) when their fields are uniformly
strings — at protection density a surrogate edge set holds tens of
thousands of rows, and the packed shape is what keeps checkpoint restore
decode-bound rather than parse-bound.  Readers accept both shapes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Set

from repro.codec import (
    pack_id_list as _pack_id_list,
    pack_pair_table as _pack_pair_table,
    unpack_id_list as _unpack_id_list,
    unpack_pair_table as _unpack_pair_table,
)
from repro.core.protected_account import ProtectedAccount
from repro.core.privileges import PrivilegeLattice
from repro.exceptions import StoreError
from repro.graph.model import PropertyGraph
from repro.store.engine import GraphStore

ACCOUNT_FORMAT_VERSION = 1

#: Catalog-descriptor metadata key the account payload is stored under.
ACCOUNT_METADATA_KEY = "protected_account"

_SIDECAR_SUFFIX = ".account.json"


def account_metadata_to_dict(account: ProtectedAccount) -> Dict[str, Any]:
    """The non-graph parts of an account, as a JSON-compatible dict."""
    return {
        "format_version": ACCOUNT_FORMAT_VERSION,
        "graph_name": account.graph.name,
        "privilege": account.privilege.name if account.privilege is not None else None,
        "strategy": account.strategy,
        "correspondence": _pack_pair_table(account.correspondence.items()),
        "surrogate_nodes": _pack_id_list(account.surrogate_nodes),
        "surrogate_edges": _pack_pair_table(account.surrogate_edges),
    }


def account_from_metadata(
    graph: PropertyGraph,
    payload: Dict[str, Any],
    *,
    lattice: Optional[PrivilegeLattice] = None,
    correspondence: Optional[Dict[Any, Any]] = None,
    surrogate_edges: Optional[Set[Any]] = None,
) -> ProtectedAccount:
    """Rebuild an account from a stored graph plus its metadata payload.

    The privilege is resolved through ``lattice`` when one is supplied and
    declares the recorded name; otherwise the account carries ``None`` (the
    name alone is not a :class:`~repro.core.privileges.Privilege`).
    ``correspondence`` and ``surrogate_edges``, when given, stand in for
    the payload's tables of that name, which are then not read.
    """
    graph_name = payload.get("graph_name")
    if graph_name is not None and graph.name != graph_name:
        # The store renames graphs to their catalog key; the account keeps
        # its own name so a round trip is byte-identical.
        graph = graph.copy(name=graph_name)
    privilege = None
    privilege_name = payload.get("privilege")
    if privilege_name is not None and lattice is not None and privilege_name in lattice:
        privilege = lattice.get(privilege_name)
    if correspondence is None:
        correspondence = dict(_unpack_pair_table(payload.get("correspondence", [])))
    if surrogate_edges is None:
        surrogate_edges = set(_unpack_pair_table(payload.get("surrogate_edges", [])))
    return ProtectedAccount(
        graph=graph,
        correspondence=correspondence,
        privilege=privilege,
        surrogate_nodes=set(_unpack_id_list(payload.get("surrogate_nodes", []))),
        surrogate_edges=surrogate_edges,
        strategy=payload.get("strategy", "custom"),
    )


def persist_account(store: GraphStore, account: ProtectedAccount, name: str) -> str:
    """Store an account's graph under ``name`` and attach its metadata.

    Returns the stored name.  On a durable store the metadata is also
    written to a sidecar file so :func:`load_account` works after reopening
    the directory.
    """
    stored_name = store.put_graph(account.graph, name=name)
    payload = account_metadata_to_dict(account)
    descriptor = store.storage.catalog.get(stored_name)
    descriptor.kind = "protected_account"
    descriptor.metadata[ACCOUNT_METADATA_KEY] = json.dumps(payload, default=str)
    if store.storage.durable:
        # Through the storage I/O seam: temp + fsync + atomic rename, so a
        # crash mid-persist leaves either the old sidecar or the new one —
        # never a torn half-file — and the fault-injection suite covers it.
        store.storage.io.atomic_write_text(
            _sidecar_path(store, stored_name),
            json.dumps(payload, indent=2, default=str),
        )
        # The kind/metadata mutations above must survive a reopen too.
        store.storage.save_catalog()
    return stored_name


def load_account(
    store: GraphStore,
    name: str,
    *,
    lattice: Optional[PrivilegeLattice] = None,
) -> ProtectedAccount:
    """Rebuild a persisted account from ``store``.

    The graph comes back as a copy (store reads always do), so the caller
    may score or mutate it freely.  Raises :class:`~repro.exceptions.StoreError`
    when ``name`` holds a plain graph with no account metadata.
    """
    graph = store.graph(name)
    payload: Optional[Dict[str, Any]] = None
    descriptor = store.storage.catalog.get(name)
    raw = descriptor.metadata.get(ACCOUNT_METADATA_KEY)
    if raw is not None:
        payload = json.loads(raw)
    elif store.storage.durable:
        sidecar = _sidecar_path(store, name)
        if sidecar.exists():
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
    if payload is None:
        raise StoreError(
            f"graph {name!r} has no protected-account metadata; was it stored via persist_account()?"
        )
    return account_from_metadata(graph, payload, lattice=lattice)


def _sidecar_path(store: GraphStore, name: str) -> Path:
    directory = store.storage.directory
    assert directory is not None
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
    return directory / f"{safe}{_SIDECAR_SUFFIX}"
