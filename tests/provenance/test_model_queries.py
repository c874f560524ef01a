"""Unit tests for the provenance model and lineage queries."""

import pytest

from repro.core.generation import build_protected_account
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.exceptions import ProvenanceError
from repro.provenance.model import AGENT, DATA, GENERATED, INPUT_TO, PROCESS, ProvenanceGraph
from repro.provenance.queries import lineage, lineage_gain, lineage_over_account


@pytest.fixture
def workflow():
    """raw_data -> clean -> cleaned -> analyze -> report, plus an analyst agent."""
    prov = ProvenanceGraph("workflow")
    prov.add_data("raw_data", features={"source": "sensor"})
    prov.add_data("cleaned")
    prov.add_data("report")
    prov.add_agent("analyst")
    prov.record_invocation("clean", inputs=["raw_data"], outputs=["cleaned"])
    prov.record_invocation("analyze", inputs=["cleaned", "analyst"], outputs=["report"])
    return prov


class TestProvenanceGraphConstruction:
    def test_node_kinds(self, workflow):
        assert workflow.graph.node("raw_data").kind == DATA
        assert workflow.graph.node("clean").kind == PROCESS
        assert workflow.graph.node("analyst").kind == AGENT
        assert {node.node_id for node in workflow.data_nodes()} == {"raw_data", "cleaned", "report"}
        assert {node.node_id for node in workflow.process_nodes()} == {"clean", "analyze"}
        assert {node.node_id for node in workflow.agent_nodes()} == {"analyst"}
        assert len(workflow) == 6

    def test_edge_labels(self, workflow):
        assert workflow.graph.edge("raw_data", "clean").label == INPUT_TO
        assert workflow.graph.edge("clean", "cleaned").label == GENERATED

    def test_input_must_end_at_process(self, workflow):
        with pytest.raises(ProvenanceError):
            workflow.add_input("raw_data", "cleaned")

    def test_process_cannot_be_input(self, workflow):
        with pytest.raises(ProvenanceError):
            workflow.add_input("clean", "analyze")

    def test_output_must_be_data(self, workflow):
        with pytest.raises(ProvenanceError):
            workflow.add_output("clean", "analyst")

    def test_validate_accepts_wellformed_graph(self, workflow):
        workflow.validate()

    def test_validate_rejects_cycles(self, workflow):
        workflow.graph.add_edge("report", "clean", label=INPUT_TO)
        with pytest.raises(ProvenanceError):
            workflow.validate()

    def test_validate_rejects_foreign_edge_labels(self, workflow):
        workflow.graph.add_edge("analyst", "report", label="mentions")
        with pytest.raises(ProvenanceError):
            workflow.validate()

    def test_execution_order_is_topological(self, workflow):
        order = workflow.execution_order()
        assert order.index("raw_data") < order.index("clean") < order.index("cleaned")
        assert order.index("analyze") < order.index("report")

    def test_contributors_and_derived(self, workflow):
        assert set(workflow.contributors_of("report")) == {"raw_data", "clean", "cleaned", "analyze", "analyst"}
        assert set(workflow.derived_from("raw_data")) == {"clean", "cleaned", "analyze", "report"}


class TestLineageQueries:
    def test_lineage_over_raw_graph(self, workflow):
        result = lineage(workflow.graph, "report", direction="upstream", include_subgraph=True)
        assert len(result) == 5
        assert result.subgraph.has_node("raw_data")
        assert result.summary()["reached"] == 5
        downstream = lineage(workflow.graph, "raw_data", direction="downstream")
        assert len(downstream) == 4

    def test_lineage_rejects_bad_arguments(self, workflow):
        with pytest.raises(ProvenanceError):
            lineage(workflow.graph, "report", direction="sideways")
        with pytest.raises(ProvenanceError):
            lineage(workflow.graph, "missing")

    def test_lineage_over_protected_account(self, workflow):
        lattice = PrivilegeLattice()
        secret = lattice.add("Secret", dominates=["Public"])
        policy = ReleasePolicy(lattice)
        policy.set_lowest("raw_data", secret)
        account = build_protected_account(workflow.graph, policy, lattice.public)
        result = lineage_over_account(account, "report", direction="upstream")
        assert "raw_data" not in result.nodes
        assert "clean" in result.nodes

    def test_lineage_over_account_missing_start(self, workflow):
        lattice = PrivilegeLattice()
        secret = lattice.add("Secret", dominates=["Public"])
        policy = ReleasePolicy(lattice)
        policy.set_lowest("report", secret)
        account = build_protected_account(workflow.graph, policy, lattice.public)
        result = lineage_over_account(account, "report")
        assert result.start_missing and len(result) == 0

    def test_lineage_gain_report(self, workflow):
        lattice = PrivilegeLattice()
        policy = ReleasePolicy(lattice)
        account = build_protected_account(workflow.graph, policy, lattice.public)
        full = lineage_over_account(account, "report")
        empty = lineage_over_account(account, "raw_data")
        gain = lineage_gain(empty, full)
        assert gain["gain"] == len(full)
        assert gain["naive_reached"] == 0
