"""Dict / JSON serialization for property graphs.

The embedded store (:mod:`repro.store`) persists graphs through these
functions; the CLI and examples use them to read and write graph files.
The format is intentionally boring and stable::

    {
      "name": "...",
      "nodes": [{"id": ..., "kind": ..., "features": {...}}, ...],
      "edges": [{"source": ..., "target": ..., "label": ..., "features": {...}}, ...]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.exceptions import GraphError
from repro.graph.model import PropertyGraph

FORMAT_VERSION = 1


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialise a graph to a plain dict (JSON-compatible if ids/features are)."""
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": [
            {"id": node.node_id, "kind": node.kind, "features": dict(node.features)}
            for node in graph.nodes()
        ],
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "label": edge.label,
                "features": dict(edge.features),
            }
            for edge in graph.edges()
        ],
    }


def graph_from_dict(payload: Dict[str, Any]) -> PropertyGraph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    Every malformed payload raises a :class:`~repro.exceptions.GraphError`:
    the graph-level ones (duplicate node or edge, dangling endpoint) keep
    their own subclass, and the rest — a row that is not an object or
    lacks its id, an unhashable id, non-object features, a self-loop —
    arrive as a plain ``GraphError`` naming the cause.
    """
    if not isinstance(payload, dict) or "nodes" not in payload or "edges" not in payload:
        raise GraphError("payload is not a serialised PropertyGraph (missing 'nodes'/'edges')")
    try:
        return PropertyGraph.from_rows(
            (
                (node["id"], node.get("kind"), node.get("features") or {})
                for node in payload["nodes"]
            ),
            (
                (edge["source"], edge["target"], edge.get("label"), edge.get("features") or {})
                for edge in payload["edges"]
            ),
            name=payload.get("name"),
        )
    except GraphError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise GraphError(f"malformed graph payload: {detail}") from exc


def graph_to_json(graph: PropertyGraph, *, indent: int = 2) -> str:
    """Serialise a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=False, default=str)


def graph_from_json(text: str) -> PropertyGraph:
    """Rebuild a graph from :func:`graph_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid graph JSON: {exc}") from exc
    return graph_from_dict(payload)


def save_graph(graph: PropertyGraph, path: Union[str, Path]) -> Path:
    """Write a graph to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(graph_to_json(graph), encoding="utf-8")
    return path


def load_graph(path: Union[str, Path]) -> PropertyGraph:
    """Read a graph from a JSON file written by :func:`save_graph`."""
    path = Path(path)
    return graph_from_json(path.read_text(encoding="utf-8"))
