"""Property-based tests for the embedded store: log replay reproduces live state."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.engine import GraphStore

#: Small universes keep shrunk counterexamples readable.
NODES = [f"n{i}" for i in range(6)]


@st.composite
def operation_sequences(draw):
    """A random but always-valid sequence of store mutations."""
    operations = []
    existing_nodes = set()
    existing_edges = set()
    length = draw(st.integers(min_value=1, max_value=25))
    for _ in range(length):
        choices = ["add_node"]
        if existing_nodes:
            choices += ["set_features", "remove_node"]
        if len(existing_nodes) >= 2:
            choices.append("add_edge")
        if existing_edges:
            choices.append("remove_edge")
        kind = draw(st.sampled_from(choices))
        if kind == "add_node":
            candidates = [n for n in NODES if n not in existing_nodes]
            if not candidates:
                continue
            node = draw(st.sampled_from(candidates))
            operations.append(("add_node", node, {"v": draw(st.integers(0, 5))}))
            existing_nodes.add(node)
        elif kind == "set_features":
            node = draw(st.sampled_from(sorted(existing_nodes)))
            operations.append(("set_features", node, {"v": draw(st.integers(0, 5))}))
        elif kind == "remove_node":
            node = draw(st.sampled_from(sorted(existing_nodes)))
            operations.append(("remove_node", node, None))
            existing_nodes.discard(node)
            existing_edges = {(s, t) for s, t in existing_edges if node not in (s, t)}
        elif kind == "add_edge":
            source, target = draw(
                st.tuples(st.sampled_from(sorted(existing_nodes)), st.sampled_from(sorted(existing_nodes)))
            )
            if source == target or (source, target) in existing_edges:
                continue
            operations.append(("add_edge", (source, target), None))
            existing_edges.add((source, target))
        elif kind == "remove_edge":
            edge = draw(st.sampled_from(sorted(existing_edges)))
            operations.append(("remove_edge", edge, None))
            existing_edges.discard(edge)
    return operations


def _apply(store: GraphStore, operations) -> None:
    for kind, arg, payload in operations:
        if kind == "add_node":
            store.add_node("g", arg, features=payload)
        elif kind == "set_features":
            store.set_node_features("g", arg, payload)
        elif kind == "remove_node":
            store.remove_node("g", arg)
        elif kind == "add_edge":
            store.add_edge("g", arg[0], arg[1])
        elif kind == "remove_edge":
            store.remove_edge("g", arg[0], arg[1])


@settings(max_examples=30, deadline=None)
@given(operation_sequences())
def test_wal_replay_reproduces_live_state(tmp_path_factory, operations):
    directory = tmp_path_factory.mktemp("store")
    store = GraphStore(directory)
    store.create_graph("g")
    _apply(store, operations)
    live = store.graph("g")
    reopened = GraphStore(directory)
    assert reopened.graph("g") == live


@settings(max_examples=30, deadline=None)
@given(operation_sequences())
def test_indexes_stay_consistent_with_graph(operations):
    store = GraphStore()
    store.create_graph("g")
    _apply(store, operations)
    graph = store.storage.graph("g")
    for node in graph.nodes():
        assert store.successors("g", node.node_id) == graph.successors(node.node_id)
        assert store.predecessors("g", node.node_id) == graph.predecessors(node.node_id)


@settings(max_examples=30, deadline=None)
@given(operation_sequences())
def test_checkpoint_then_reopen_preserves_state(tmp_path_factory, operations):
    directory = tmp_path_factory.mktemp("store-checkpoint")
    store = GraphStore(directory)
    store.create_graph("g")
    _apply(store, operations)
    store.checkpoint()
    live = store.graph("g")
    reopened = GraphStore(directory)
    assert reopened.graph("g") == live
