#!/usr/bin/env python
"""Multi-tenant serving: registry, quotas, account cache, cross-graph batches.

Two tenants — a police analytics team and an audit firm — share one serving
process.  Each gets its own store root, cache namespace and quota budget
from a :class:`repro.api.ServiceRegistry`; the example then demonstrates

1. cached serving: the second identical request is answered from the
   account cache (watch ``cache_hit`` in the result timings),
2. cross-graph batching: one ``protect_many`` call spanning two graphs,
3. tenant isolation: the audit tenant's cache never sees the police
   tenant's entries, and its request quota cuts it off when exhausted.

Run with::

    python examples/multi_tenant_serving.py
"""

from repro import ProtectionRequest, ServiceRegistry
from repro.core.markings import Marking
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.exceptions import QuotaExceededError
from repro.graph.builders import GraphBuilder


def build_case_graph(name: str, sensitive: str) -> "object":
    """A small investigation chain with one sensitive middle node."""
    chain = ["report", "lead", sensitive, "suspect"]
    return GraphBuilder(name).chain(chain).build()


def build_policy() -> ReleasePolicy:
    lattice = PrivilegeLattice()
    high = lattice.add("High", dominates=["Public"])
    policy = ReleasePolicy(lattice)
    for informant in ("informant-7", "informant-9"):
        policy.set_lowest(informant, high)
        policy.markings.mark_edge(
            ("lead", informant), lattice.public, source=Marking.VISIBLE, target=Marking.SURROGATE
        )
        policy.markings.mark_edge(
            (informant, "suspect"), lattice.public, source=Marking.SURROGATE, target=Marking.VISIBLE
        )
    return policy


def main() -> None:
    # 1. One registry, two tenants with different budgets.
    registry = ServiceRegistry()  # pass base_dir= for durable per-tenant stores
    registry.register("police", max_requests=1000)
    registry.register("audit", max_requests=3, max_cache_entries=8)

    case_a = build_case_graph("case-a", "informant-7")
    case_b = build_case_graph("case-b", "informant-9")
    policy = build_policy()

    # 2. Cached serving for the police tenant: same request twice.
    police = registry.service("police", case_a, policy)
    first = police.protect(privilege="Public")
    again = police.protect(privilege="Public")
    print("police first call  : cache_hit =", int(first.timings_ms["cache_hit"]),
          f"generate = {first.timings_ms.get('generate', 0.0):.3f} ms")
    print("police second call : cache_hit =", int(again.timings_ms["cache_hit"]),
          f"lookup   = {again.timings_ms.get('cache_lookup', 0.0):.3f} ms")

    # 3. Cross-graph batch: one multi-graph service, requests spanning both
    #    case files; each (graph, privilege) view is compiled exactly once.
    batch_service = registry.service("police", None, policy)
    results = batch_service.protect_many(
        [
            ProtectionRequest(privileges=("Public",), graph=case_a),
            ProtectionRequest(privileges=("High",), graph=case_a),
            ProtectionRequest(privileges=("Public",), graph=case_b),
        ]
    )
    for result in results:
        print(
            f"batch: {result.account.graph.name:16s}"
            f" path_utility = {result.scores.path_utility:.3f}"
        )

    # 4. Tenant isolation + quotas: audit shares nothing with police and is
    #    cut off after its three budgeted requests.
    audit = registry.service("audit", case_a, policy)
    audit.protect(privilege="Public")  # identical to police's request...
    print("audit first call hit?", bool(audit.cache_stats().hits), "(isolated namespace)")
    audit.protect(privilege="Public")  # ...but THIS repeat hits audit's own entry
    try:
        audit.protect(privilege="High")
        audit.protect(privilege="High")
    except QuotaExceededError as exc:
        print("audit quota:", exc)

    # 5. The registry's serving report.
    for tenant, report in registry.stats().items():
        cache = report["cache"]
        print(
            f"{tenant:7s} requests={report['quota']['requests_served']} "
            f"cache_hits={cache['hits']} cache_misses={cache['misses']}"
        )


if __name__ == "__main__":
    main()
