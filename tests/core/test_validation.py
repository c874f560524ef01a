"""Unit tests for Definition 5 / Definition 9 validation."""

import pytest

from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.protected_account import ProtectedAccount
from repro.core.validation import (
    ValidationReport,
    validate_maximally_informative,
    validate_protected_account,
)
from repro.exceptions import ValidationError
from repro.graph.builders import graph_from_edges


class TestValidationReport:
    def test_ok_and_bool(self):
        report = ValidationReport()
        assert report.ok and bool(report)
        report.add("problem")
        assert not report.ok and not bool(report)

    def test_raise_if_failed(self):
        report = ValidationReport()
        report.raise_if_failed()
        report.add("problem")
        with pytest.raises(ValidationError):
            report.raise_if_failed()


class TestDefinition5:
    def test_generated_accounts_are_sound(self, chain_graph, protected_chain_policy):
        account = build_protected_account(chain_graph, protected_chain_policy, "Public")
        assert validate_protected_account(chain_graph, account, strict=True).ok

    def test_fabricated_connectivity_detected(self, chain_graph):
        # An account claiming an edge d -> a, which the original graph cannot back.
        bogus = ProtectedAccount(
            graph=graph_from_edges([("d", "a")]),
            correspondence={"a": "a", "d": "d"},
        )
        report = validate_protected_account(chain_graph, bogus)
        assert not report.ok
        assert any("no path" in violation for violation in report.violations)
        with pytest.raises(ValidationError):
            validate_protected_account(chain_graph, bogus, strict=True)

    def test_correspondence_to_unknown_original_detected(self, chain_graph):
        bogus = ProtectedAccount(
            graph=graph_from_edges([], nodes=["zz"]),
            correspondence={"zz": "not-in-original"},
        )
        report = validate_protected_account(chain_graph, bogus)
        assert not report.ok

    def test_feature_tampering_detected(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        account.graph.set_node_features("a", {"tampered": True})
        report = validate_protected_account(chain_graph, account)
        assert not report.ok
        assert any("features differ" in violation for violation in report.violations)

    def test_surrogate_features_may_differ(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        basic_policy.add_surrogate("c", "Public", surrogate_id="c_prime", features={"other": 1})
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert validate_protected_account(chain_graph, account).ok


class TestDefinition9:
    def test_generated_account_is_maximally_informative(self, chain_graph, protected_chain_policy):
        account = build_protected_account(chain_graph, protected_chain_policy, "Public")
        assert validate_maximally_informative(
            chain_graph, protected_chain_policy, "Public", account
        ).ok

    def test_naive_account_violates_maximal_connectivity(self, chain_graph, protected_chain_policy):
        account = naive_protected_account(chain_graph, protected_chain_policy, "Public")
        report = validate_maximally_informative(chain_graph, protected_chain_policy, "Public", account)
        assert not report.ok
        assert any("maximal connectivity" in violation for violation in report.violations)

    def test_missing_visible_node_violates_property_one(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        account.graph.remove_node("a")
        del account.correspondence["a"]
        report = validate_maximally_informative(chain_graph, basic_policy, "Public", account)
        assert not report.ok
        assert any("maximal node visibility" in violation for violation in report.violations)

    def test_dominant_surrogacy_violation_detected(self, chain_graph, two_level_lattice):
        from repro.core.policy import ReleasePolicy

        policy = ReleasePolicy(two_level_lattice)
        policy.set_lowest("c", "Secret")
        policy.add_surrogate("c", "Public", surrogate_id="c_public", info_score=0.1)
        policy.add_surrogate("c", "Confidential", surrogate_id="c_confidential", info_score=0.9)
        account = build_protected_account(chain_graph, policy, "Confidential")
        # The generator picks the dominant (Confidential) surrogate, so it passes...
        assert validate_maximally_informative(chain_graph, policy, "Confidential", account).ok
        # ...but an account hand-built with the weaker surrogate is flagged.
        from repro.graph.model import PropertyGraph

        weaker = PropertyGraph()
        for node_id in ("a", "b", "d"):
            weaker.add_node(node_id, features=dict(chain_graph.node(node_id).features))
        weaker.add_node("c_public")
        weaker.add_edge("a", "b")
        weak_account = ProtectedAccount(
            graph=weaker,
            correspondence={"a": "a", "b": "b", "d": "d", "c_public": "c"},
            surrogate_nodes={"c_public"},
            privilege=two_level_lattice.get("Confidential"),
        )
        report = validate_maximally_informative(chain_graph, policy, "Confidential", weak_account)
        assert any("dominant surrogacy" in violation for violation in report.violations)

    def test_strict_mode_raises(self, chain_graph, protected_chain_policy):
        account = naive_protected_account(chain_graph, protected_chain_policy, "Public")
        with pytest.raises(ValidationError):
            validate_maximally_informative(
                chain_graph, protected_chain_policy, "Public", account, strict=True
            )
