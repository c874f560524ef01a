"""Integration tests: the paper's end-to-end claims, exercised through the public API.

These tests intentionally cut across modules — workloads, policy, generation,
metrics, enforcement and the store — the way a user of the library would.
"""

import pytest

from repro.api import ProtectionService
from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.opacity import average_opacity, opacity
from repro.core.utility import node_utility, path_utility
from repro.core.validation import validate_maximally_informative, validate_protected_account
from repro.experiments.runner import run_all
from repro.provenance.examples import PLAN, emergency_plan_example
from repro.provenance.plus import PLUSClient
from repro.security.credentials import Consumer
from repro.security.enforcement import EnforcementMode, QueryEnforcer
from repro.store.engine import GraphStore
from repro.workloads.social import SENSITIVE_EDGE, figure1_example, figure2_variant
from repro.workloads.synthetic import small_family_for_tests


class TestRunningExampleEndToEnd:
    def test_surrogate_account_beats_naive_on_both_measures(self):
        example = figure2_variant("b")
        naive = naive_protected_account(example.graph, example.policy, example.high2)
        protected = build_protected_account(example.graph, example.policy, example.high2)

        assert path_utility(example.graph, protected) > path_utility(example.graph, naive)
        assert node_utility(example.graph, protected) >= node_utility(example.graph, naive)
        assert opacity(example.graph, protected, SENSITIVE_EDGE) == 1.0

        assert validate_protected_account(example.graph, protected, strict=True)
        assert validate_maximally_informative(
            example.graph, example.policy, example.high2, protected, strict=True
        )

    def test_every_consumer_class_gets_a_sound_account(self):
        example = figure1_example(with_feature_surrogate=True)
        results = ProtectionService(example.graph, example.policy).protect_all_classes()
        accounts = {name: result.account for name, result in results.items()}
        assert set(accounts) == {"Public", "Low-2", "High-1", "High-2"}
        for account in accounts.values():
            assert validate_protected_account(example.graph, account).ok
        # More privileged classes never see fewer original nodes.
        assert len(accounts["High-1"].original_node_ids()) >= len(accounts["Low-2"].original_node_ids())
        assert len(accounts["Low-2"].original_node_ids()) >= len(accounts["Public"].original_node_ids())

    def test_path_query_gains_from_surrogates(self):
        example = figure2_variant("b")
        analyst = Consumer.with_credentials("analyst", "High-2")
        enforcer = QueryEnforcer(example.graph, example.policy)
        naive = enforcer.reachable(analyst, "g", direction="ancestors", mode=EnforcementMode.NAIVE)
        protected = enforcer.reachable(analyst, "g", direction="ancestors", mode=EnforcementMode.PROTECTED)
        assert naive.nodes == []
        assert set(protected.nodes) == {"b", "c"}


class TestProvenanceEndToEnd:
    def test_emergency_plan_scenario(self):
        example = emergency_plan_example(with_surrogates=True)
        client = PLUSClient(store=GraphStore(), policy=example.policy, graph_name="plan")
        client.import_provenance(example.provenance)
        naive = client.lineage_for(example.responder, PLAN, naive=True)
        protected = client.lineage_for(example.responder, PLAN)
        assert len(naive) == 0
        assert len(protected) > 0
        # Nothing above the responder's clearance leaks into the protected result.
        for node in protected.nodes:
            original = client.protected_account(example.responder).original_of(node)
            lowest = example.policy.lowest(original)
            if node not in client.protected_account(example.responder).surrogate_nodes:
                assert example.lattice.dominates(example.responder, lowest)

    def test_store_round_trip_preserves_protection_results(self, tmp_path):
        example = figure2_variant("b")
        store = GraphStore(tmp_path)
        store.put_graph(example.graph, name="social")
        reopened = GraphStore(tmp_path)
        account = build_protected_account(reopened.graph("social"), example.policy, example.high2)
        assert path_utility(example.graph, account) == pytest.approx(30 / 110)


class TestEvaluationClaims:
    def test_surrogating_dominates_hiding_on_synthetic_family(self):
        engine_family = small_family_for_tests()
        from repro.experiments.sweep import measure_instance

        for instance in engine_family:
            record = measure_instance(instance)
            assert record.utility_difference >= -1e-9
            assert record.opacity_difference >= -1e-9

    def test_run_all_produces_full_report(self):
        suite = run_all(quick=True, seed=5, figure10_nodes=40)
        text = suite.render()
        assert "Table 1" in text and "Figure 10" in text
        markdown = suite.render_markdown()
        assert markdown.count("##") >= 6
        assert suite.figure9.all_differences_nonnegative()
        assert suite.figure8.surrogate_dominates()
