"""Reachability as SQL range scans over the interval encoding.

Ancestor/descendant closures run as one recursive CTE over the
``intervals`` and ``extra_edges`` tables written by the storage layer
(see :mod:`repro.graph.intervals` for the encoding): the fixpoint reaches
whole DFS-subtree *intervals* (expanding through non-tree edges whose
source lies inside an already-reached interval), and the final answer is a
single indexed range scan collecting every node inside a reached interval.
No Python traversal, no graph object in memory — this is the query path
that stays available when a graph is not resident.

The visible-walk frontier (Algorithm 2's stop-at-VISIBLE walk) also runs
as a recursive CTE, over a per-walk temp table of marking-resolved edges:
marking predicates live in Python (they are compiled-view lookups), but
the transitive expansion — the part that is O(edges) per walk — happens in
SQL.  The differential suite pins both query shapes exactly equal to the
BFS reference implementations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Set, Tuple

from repro.store.sqlite.connection import Database
from repro.store.sqlite.paging import decode_id, encode_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.model import NodeId

# Both scans below use Grust's pruning window: with separate pre/post
# counters, ``pre(v) - post(v) = level(v) - size(v)``, so every node inside
# the interval ``[pre(u), post(u)]`` also satisfies
# ``pre(v) <= post(u) + level(u)``.  Carrying ``level`` through the
# fixpoint turns "member of a reached interval" into a *bounded* range
# scan on a ``pre``-leading index (``intervals_fwd`` / ``intervals_rev`` /
# ``extra_edges_window``) with the ``post`` bound as an in-index residual —
# instead of a full per-interval scan of the graph's rows.  CROSS JOIN pins
# the join order so ``reach`` drives the index.
_REACH_SQL = """
WITH RECURSIVE reach(lo, hi, lvl) AS (
    SELECT {pre}, {post}, {level} FROM intervals WHERE graph = :g AND node = :n
    UNION
    SELECT ti.{pre}, ti.{post}, ti.{level}
    FROM reach
    CROSS JOIN extra_edges e ON e.graph = :g AND e.direction = :d
        AND e.source_pre >= reach.lo AND e.source_pre <= reach.hi + reach.lvl
        AND e.source_post <= reach.hi
    JOIN intervals ti ON ti.graph = :g AND ti.node = e.target
)
SELECT DISTINCT t.node
FROM reach
CROSS JOIN intervals t ON t.graph = :g
    AND t.{pre} >= reach.lo AND t.{pre} <= reach.hi + reach.lvl
    AND t.{post} <= reach.hi
"""


def interval_reach(
    db: Database, graph_name: str, node_id: "NodeId", *, direction: str
) -> Optional[Set["NodeId"]]:
    """Full ancestor/descendant closure of one node, excluding itself.

    Returns ``None`` when the node has no interval row (caller decides how
    to report an unknown node).  ``direction`` is ``"descendants"``
    (forward encoding) or ``"ancestors"`` (reverse encoding).
    """
    if direction == "descendants":
        sql = _REACH_SQL.format(pre="pre", post="post", level="level")
        axis = "f"
    else:
        sql = _REACH_SQL.format(pre="rpre", post="rpost", level="rlevel")
        axis = "r"
    key = encode_id(node_id)
    present = db.execute(
        "SELECT 1 FROM intervals WHERE graph = ? AND node = ?", (graph_name, key)
    ).fetchone()
    if present is None:
        return None
    rows = db.execute(sql, {"g": graph_name, "n": key, "d": axis}).fetchall()
    out = {decode_id(text) for (text,) in rows}
    out.discard(node_id)
    return out


_WALK_SETUP = [
    # One temp table per connection, cleared per walk: (near, far) in walk
    # orientation plus the marking verdicts resolved in Python.
    """CREATE TEMP TABLE IF NOT EXISTS visible_walk_edges (
        src     TEXT NOT NULL,
        dst     TEXT NOT NULL,
        collect INTEGER NOT NULL
    )""",
    "CREATE INDEX IF NOT EXISTS temp.visible_walk_by_src ON visible_walk_edges (src)",
]

_WALK_SQL = """
WITH RECURSIVE walk(node) AS (
    SELECT :start
    UNION
    SELECT e.dst FROM walk JOIN visible_walk_edges e
        ON e.src = walk.node AND e.collect = 0
)
SELECT DISTINCT e.dst FROM walk JOIN visible_walk_edges e
    ON e.src = walk.node AND e.collect = 1
"""


def visible_frontier(
    db: Database,
    steps: Iterable[Tuple["NodeId", "NodeId", bool]],
    start: "NodeId",
) -> Set["NodeId"]:
    """The stop-at-VISIBLE frontier of one walk, expanded in SQL.

    ``steps`` holds every *usable* edge of the walk in walk orientation:
    ``(near, far, collect)`` where ``collect`` is True when the far
    endpoint's incidence marking on that edge is VISIBLE (the walk stops
    and collects there) and False when the walk passes through.  Exactly
    mirrors ``repro.core.permitted._visible_walk``: collected nodes are
    not traversed, the start node is never collected.
    """
    for statement in _WALK_SETUP:
        db.execute(statement)
    db.execute("DELETE FROM visible_walk_edges")
    db.executemany(
        "INSERT INTO visible_walk_edges (src, dst, collect) VALUES (?, ?, ?)",
        [
            (encode_id(near), encode_id(far), 1 if collect else 0)
            for near, far, collect in steps
        ],
    )
    rows = db.execute(_WALK_SQL, {"start": encode_id(start)}).fetchall()
    out = {decode_id(text) for (text,) in rows}
    out.discard(start)
    return out


def walk_steps_from_view(
    edges: Iterable[Tuple["NodeId", "NodeId"]],
    markings,
    privilege,
    *,
    forward: bool,
) -> Sequence[Tuple["NodeId", "NodeId", bool]]:
    """Resolve marking predicates for :func:`visible_frontier`.

    ``edges`` iterates the graph's directed edges as ``(source, target)``;
    ``markings`` is any marking source accepted by
    :mod:`repro.core.permitted` (typically a compiled view).  Rows come
    back in walk orientation for the requested direction.
    """
    from repro.core.markings import Marking
    from repro.core.permitted import edge_usable

    steps = []
    for source, target in edges:
        edge = (source, target)
        if not edge_usable(markings, edge, privilege):
            continue
        near, far = (source, target) if forward else (target, source)
        collect = markings.marking(far, edge, privilege) is Marking.VISIBLE
        steps.append((near, far, collect))
    return steps
