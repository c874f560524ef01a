"""Tests for the unified :class:`repro.api.ProtectionService` API."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings

import repro.core.markings as markings_module
import repro.core.permitted as permitted_module
from repro.api import ProtectionRequest, ProtectionService, load_account, persist_account
from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.multi import build_multi_privilege_account
from repro.core.opacity import opacity_report
from repro.core.utility import utility_report
from repro.exceptions import (
    EdgeNotFoundError,
    NodeNotFoundError,
    ProtectionError,
    StoreError,
)
from repro.graph.deltas import DeltaKind, GraphDelta
from repro.graph.serialization import graph_to_dict
from repro.security.credentials import Consumer
from repro.security.enforcement import EnforcementMode, QueryEnforcer
from repro.store.engine import GraphStore
from repro.workloads.social import SENSITIVE_EDGE, figure1_example, figure2_variant

from tests.property.strategies import graph_with_policy


def accounts_equal(left, right) -> bool:
    """Byte-level account equality: graph dict, correspondence, surrogacy."""
    return (
        graph_to_dict(left.graph) == graph_to_dict(right.graph)
        and left.correspondence == right.correspondence
        and left.surrogate_nodes == right.surrogate_nodes
        and left.surrogate_edges == right.surrogate_edges
        and left.strategy == right.strategy
    )


class TestProtect:
    def test_single_privilege_matches_build_function(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        result = service.protect(privilege=figure2b.high2)
        direct = build_protected_account(figure2b.graph, figure2b.policy, figure2b.high2)
        assert accounts_equal(result.account, direct)

    def test_request_accepts_privilege_names(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        by_name = service.protect(privilege="High-2")
        by_object = service.protect(privilege=figure2b.high2)
        assert accounts_equal(by_name.account, by_object.account)

    def test_bare_privilege_positional(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        result = service.protect("High-2", score=False)
        assert result.scores is None
        assert result.account.privilege.name == "High-2"

    def test_naive_strategy_matches_baseline(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        result = service.protect(
            ProtectionRequest(privileges=(figure2b.high2,), strategy="naive")
        )
        baseline = naive_protected_account(figure2b.graph, figure2b.policy, figure2b.high2)
        assert accounts_equal(result.account, baseline)

    def test_multi_privilege_matches_build_function(self, figure2b):
        privileges = ("High-1", "High-2")
        service = ProtectionService(figure2b.graph, figure2b.policy)
        result = service.protect(privileges=privileges)
        direct = build_multi_privilege_account(figure2b.graph, figure2b.policy, privileges)
        assert accounts_equal(result.account, direct)

    def test_scorecard_matches_reports(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        result = service.protect(privilege=figure2b.high2)
        utility = utility_report(figure2b.graph, result.account)
        opacity = opacity_report(figure2b.graph, result.account)
        assert result.scores.path_utility == utility.path_utility
        assert result.scores.node_utility == utility.node_utility
        assert result.scores.average_opacity == opacity.average
        assert result.scores.opacity.per_edge == opacity.per_edge

    def test_opacity_defaults_to_protected_edges(self):
        example = figure1_example()
        service = ProtectionService(example.graph, example.policy)
        result = service.protect(
            ProtectionRequest(
                privileges=("High-2",), protect_edges=(SENSITIVE_EDGE,)
            )
        )
        assert set(result.scores.opacity.per_edge) == {SENSITIVE_EDGE}

    def test_timings_recorded(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        result = service.protect(privilege=figure2b.high2)
        assert {"generate", "score", "total"} <= set(result.timings_ms)
        assert result.timings_ms["total"] >= result.timings_ms["generate"]

    def test_result_as_dict_is_json_friendly(self, figure2b):
        import json

        service = ProtectionService(figure2b.graph, figure2b.policy)
        payload = service.protect(privilege=figure2b.high2).as_dict()
        assert payload["privileges"] == ["High-2"]
        assert "path_utility" in payload["scores"]
        json.dumps(payload)  # must not raise

    def test_request_validation(self, figure2b):
        with pytest.raises(ProtectionError):
            ProtectionRequest(privileges=())
        with pytest.raises(ProtectionError):
            ProtectionRequest(privileges=("High-2",), strategy="nonsense")
        service = ProtectionService(figure2b.graph, figure2b.policy)
        with pytest.raises(TypeError):
            service.protect()
        with pytest.raises(TypeError):
            service.protect(privilege="High-2", privileges=("High-1",))
        with pytest.raises(TypeError):
            # A positional privilege must not silently swallow privileges=.
            service.protect("High-2", privileges=("High-1", "High-2"))

    def test_protect_edges_must_exist(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        with pytest.raises(NodeNotFoundError):
            service.protect(
                ProtectionRequest(privileges=("High-2",), protect_edges=(("zzz", "g"),))
            )
        with pytest.raises(EdgeNotFoundError):
            service.protect(
                ProtectionRequest(privileges=("High-2",), protect_edges=(("g", "a1"),))
            )

    def test_protect_all_classes_covers_every_declared_privilege(
        self, chain_graph, basic_policy
    ):
        basic_policy.set_lowest("c", "Secret")
        results = ProtectionService(chain_graph, basic_policy).protect_all_classes()
        assert set(results) == {"Public", "Confidential", "Secret"}
        assert "c" in results["Secret"].account.graph.node_ids()
        assert "c" not in results["Public"].account.graph.node_ids()

    def test_protect_edges_leave_the_service_policy_untouched(self, chain_graph, basic_policy):
        service = ProtectionService(chain_graph, basic_policy)
        service.protect(
            privilege="Public", protect_edges=[("a", "b")], strategy="hide", score=False
        )
        account = service.protect(privilege="Public", score=False).account
        assert account.graph.has_edge("a", "b")

    def test_edge_protection_strategies_are_labelled(self, chain_graph, basic_policy):
        service = ProtectionService(chain_graph, basic_policy)
        hide, surrogate = (
            service.protect(
                privilege="Public", protect_edges=[("b", "c")], strategy=strategy, score=False
            ).account
            for strategy in ("hide", "surrogate")
        )
        assert hide.strategy == "hide"
        assert surrogate.strategy == "surrogate"
        assert not hide.graph.has_edge("b", "c")
        assert surrogate.graph.has_edge("b", "d")

    def test_multi_privilege_request_honours_include_surrogate_edges(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        for privileges in (("High-2",), ("High-1", "High-2")):
            account = service.protect(
                privileges=privileges, include_surrogate_edges=False, score=False
            ).account
            assert account.surrogate_edges == set(), privileges
            assert not account.graph.has_edge("c", "g"), privileges

    def test_multi_privilege_request_honours_compiled(self, figure2b, monkeypatch):
        privileges = ("High-1", "High-2")
        compiled = (
            ProtectionService(figure2b.graph, figure2b.policy)
            .protect(privileges=privileges, score=False)
            .account
        )

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled=False must not compile a marking view")

        monkeypatch.setattr(markings_module.MarkingPolicy, "compile", no_compile)
        reference = (
            ProtectionService(figure2b.graph, figure2b.policy)
            .protect(privileges=privileges, compiled=False, score=False)
            .account
        )
        assert accounts_equal(reference, compiled)


class TestMatchesBuildFunctions:
    """The service wraps the ``build_*`` functions without changing their
    account, on random graph/policy/consumer triples."""

    @staticmethod
    def assert_identical(serviced, direct) -> None:
        assert accounts_equal(serviced, direct)
        assert serviced.privilege == direct.privilege

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
    @settings(max_examples=60, deadline=None)
    @given(triple=graph_with_policy())
    def test_single_privilege(self, compiled, triple) -> None:
        graph, policy, consumer = triple
        direct = build_protected_account(graph, policy, consumer, compiled=compiled)
        serviced = (
            ProtectionService(graph, policy)
            .protect(privilege=consumer, compiled=compiled, score=False)
            .account
        )
        self.assert_identical(serviced, direct)

    @settings(max_examples=40, deadline=None)
    @given(triple=graph_with_policy())
    def test_every_privilege_at_once(self, triple) -> None:
        graph, policy, _consumer = triple
        privileges = tuple(policy.lattice.privileges())
        direct = build_multi_privilege_account(graph, policy, privileges)
        serviced = (
            ProtectionService(graph, policy).protect(privileges=privileges, score=False).account
        )
        self.assert_identical(serviced, direct)


class TestProtectMany:
    def test_batch_matches_individual_requests(self, figure2b):
        privileges = [p.name for p in figure2b.policy.lattice.privileges()]
        assert len(privileges) >= 3
        service = ProtectionService(figure2b.graph, figure2b.policy)
        batch = service.protect_many(privileges)
        for privilege, result in zip(privileges, batch):
            fresh = ProtectionService(figure2b.graph, figure2b.policy).protect(
                privilege=privilege
            )
            assert accounts_equal(result.account, fresh.account)

    def test_no_recompilation_across_requests(self, figure2b, monkeypatch):
        """≥3 privileges: one compiled view and one walk cache per privilege,
        and a second batch reuses every one of them (zero new builds)."""
        privileges = [p.name for p in figure2b.policy.lattice.privileges()]
        assert len(privileges) >= 3

        counts = {"views": 0, "walks": 0}
        real_view_init = markings_module.CompiledMarkingView.__init__
        real_walks_init = permitted_module.VisibleWalkCache.__init__

        def counting_view_init(self, *args, **kwargs):
            counts["views"] += 1
            real_view_init(self, *args, **kwargs)

        def counting_walks_init(self, *args, **kwargs):
            counts["walks"] += 1
            real_walks_init(self, *args, **kwargs)

        monkeypatch.setattr(
            markings_module.CompiledMarkingView, "__init__", counting_view_init
        )
        monkeypatch.setattr(
            permitted_module.VisibleWalkCache, "__init__", counting_walks_init
        )

        service = ProtectionService(figure2b.graph, figure2b.policy)
        first = service.protect_many(privileges)
        assert len(first) == len(privileges)
        assert counts["views"] == len(privileges)
        assert counts["walks"] == len(privileges)

        counts["views"] = counts["walks"] = 0
        second = service.protect_many(privileges)
        assert counts["views"] == 0, "second batch must reuse every compiled view"
        assert counts["walks"] == 0, "second batch must reuse every walk cache"
        for before, after in zip(first, second):
            assert accounts_equal(before.account, after.account)

    def test_policy_mutation_invalidates_reuse(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        before = service.protect(privilege="High-2", score=False).account
        figure2b.policy.set_lowest("b", "High-1")
        after = service.protect(privilege="High-2", score=False).account
        assert not after.represents("b")
        assert before.represents("b")


class TestDeltaBus:
    def test_service_bus_keeps_no_dispatched_delta(self, figure2b):
        # The bus only fans deltas out to the caches; restart catch-up reads
        # the store's write-log, so nothing may hold on to a dispatched delta.
        service = ProtectionService(figure2b.graph, figure2b.policy)
        service.protect(privilege="High-2")
        graph = figure2b.graph
        seen = []
        service.delta_bus.subscribe(lambda _graph, delta: seen.append(delta.kind))
        delta = GraphDelta(
            kind=DeltaKind.ADD_NODE, pre_version=graph.version, post_version=graph.version + 1
        )
        ref = weakref.ref(delta)
        service.delta_bus.dispatch(graph, delta)
        del delta
        gc.collect()
        assert seen == [DeltaKind.ADD_NODE]
        assert ref() is None
        assert service.health()["delta_bus"] == {"listeners": 3}

    def test_dead_services_leave_at_most_one_observer_on_the_graph(self, figure2b):
        graph = figure2b.graph
        live = ProtectionService(graph, figure2b.policy.copy())
        for _ in range(300):
            ProtectionService(graph, figure2b.policy.copy())
        gc.collect()
        # Nothing mutates the graph, so only subscribe can drop the dead
        # entries: the live service's, plus the newest dead one.
        assert len(graph._observers) == 2
        assert live.graph is graph


class TestPersistence:
    def test_store_round_trip_scores_identical(self, figure2b):
        store = GraphStore()
        service = ProtectionService(figure2b.graph, figure2b.policy, store=store)
        result = service.protect(privilege=figure2b.high2, persist_as="high2-account")
        assert result.stored_as == "high2-account"

        reloaded = service.load_account("high2-account")
        assert accounts_equal(result.account, reloaded)
        assert reloaded.privilege == result.account.privilege
        original_scores = service.score(result.account).as_dict()
        reloaded_scores = service.score(reloaded).as_dict()
        assert original_scores == reloaded_scores

    def test_durable_round_trip_across_reopen(self, figure2b, tmp_path):
        store = GraphStore(tmp_path)
        service = ProtectionService(figure2b.graph, figure2b.policy, store=store)
        result = service.protect(privilege=figure2b.high2, persist_as="durable-account")

        reopened = GraphStore(tmp_path)
        reloaded = load_account(
            reopened, "durable-account", lattice=figure2b.policy.lattice
        )
        assert accounts_equal(result.account, reloaded)
        assert (
            service.score(reloaded).as_dict() == service.score(result.account).as_dict()
        )

    def test_persist_requires_store(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        with pytest.raises(StoreError):
            service.protect(privilege=figure2b.high2, persist_as="nope")

    def test_load_plain_graph_rejected(self, figure2b):
        store = GraphStore()
        store.put_graph(figure2b.graph, name="plain")
        service = ProtectionService(figure2b.graph, figure2b.policy, store=store)
        with pytest.raises(StoreError):
            service.load_account("plain")

    def test_persist_account_function(self, figure2b):
        store = GraphStore()
        account = build_protected_account(figure2b.graph, figure2b.policy, figure2b.high2)
        name = persist_account(store, account, "direct")
        assert accounts_equal(
            account, load_account(store, name, lattice=figure2b.policy.lattice)
        )


class TestEnforce:
    def test_enforce_returns_session_scoped_enforcer(self, figure2b):
        service = ProtectionService(figure2b.graph, figure2b.policy)
        enforcer = service.enforce()
        assert isinstance(enforcer, QueryEnforcer)
        assert enforcer.service is service

    def test_enforcer_results_match_direct_construction(self, figure2b):
        analyst = Consumer.with_credentials("analyst", "High-2")
        service = ProtectionService(figure2b.graph, figure2b.policy)
        via_service = service.enforce().reachable(analyst, "g", direction="connected")
        direct = QueryEnforcer(figure2b.graph, figure2b.policy).reachable(
            analyst, "g", direction="connected"
        )
        assert via_service.nodes == direct.nodes
        assert via_service.surrogate_nodes == direct.surrogate_nodes

    def test_enforcer_naive_and_protected_modes(self, figure2b):
        analyst = Consumer.with_credentials("analyst", "High-2")
        enforcer = ProtectionService(figure2b.graph, figure2b.policy).enforce()
        naive = enforcer.account_for(analyst, EnforcementMode.NAIVE)
        protected = enforcer.account_for(analyst, EnforcementMode.PROTECTED)
        assert naive.surrogate_edges == set()
        assert naive.strategy == "naive"
        assert protected.strategy == "surrogate"
