"""Command-line interface: ``repro-surrogate`` / ``python -m repro.cli``.

Subcommands
-----------
``table1``              Reproduce Table 1 / Figures 2-3 (the running example).
``figure7``             Reproduce Figure 7 (motifs).
``figure8``             Reproduce Figure 8 (utility-vs-opacity frontier).
``figure9``             Reproduce Figure 9 (synthetic sweep differences).
``figure10``            Reproduce Figure 10 (performance phases).
``all``                 Run every experiment and print the combined report.
``protect``             Protect a graph JSON file for a consumer class and
                        write the protected account to another JSON file
                        (runs through :class:`repro.api.ProtectionService`;
                        ``--json`` emits the full result, and policy/graph
                        errors exit non-zero with a one-line diagnosis).
``serve-batch``         Serve a JSON batch of protection requests spanning
                        one or more graphs through a single multi-graph
                        service — optionally under a named tenant with a
                        scoped store (``--tenant``/``--store-root``) — and
                        report per-request results plus account-cache
                        statistics.  ``--repeat`` replays the batch to
                        demonstrate cached serving.
``serve``               Run the async HTTP serving frontend
                        (:mod:`repro.server`): per-tenant bearer tokens,
                        admission control, streaming batch responses.
                        ``--check`` starts the server, probes
                        ``/v1/health`` once and exits (used by CI).
``edit``                Replay an edit script against a graph through an
                        incremental :meth:`ProtectionService.edit
                        <repro.api.service.ProtectionService.edit>` session:
                        each edit re-protects and re-scores off delta-patched
                        views (``delta_apply``) instead of recompiling, with
                        per-edit scores/timings and view-maintenance counters
                        in the report.
``motifs``              List the motif catalog with basic statistics.

Every experiment accepts ``--full`` to use the paper-scale synthetic family
instead of the reduced quick family.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.api.editing import apply_script_edit
from repro.api.registry import ServiceRegistry
from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.policy import ReleasePolicy, STRATEGIES, STRATEGY_SURROGATE
from repro.core.privileges import PrivilegeLattice
from repro.exceptions import ReproError
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.runner import run_all
from repro.experiments.table1 import run_table1
from repro.graph.serialization import load_graph, save_graph
from repro.graph.statistics import summarize
from repro.server.encoding import build_policy, decode_protection_request
from repro.server.errors import BadRequestError, error_envelope
from repro.store.engine import GraphStore
from repro.workloads.motifs import all_motifs


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro-surrogate`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-surrogate",
        description="Reproduction of 'Surrogate Parenthood: Protected and Informative Graphs' (VLDB 2011).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1", "Reproduce Table 1 / Figures 2-3"),
        ("figure7", "Reproduce Figure 7 (motifs)"),
        ("figure8", "Reproduce Figure 8 (utility vs opacity frontier)"),
        ("figure9", "Reproduce Figure 9 (synthetic sweep)"),
        ("figure10", "Reproduce Figure 10 (performance)"),
        ("all", "Run every experiment"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--full", action="store_true", help="use the paper-scale synthetic family")
        sub.add_argument("--seed", type=int, default=2011, help="random seed for workload generation")
        if name == "figure10":
            sub.add_argument("--nodes", type=int, default=200, help="graph size for the timing run")

    protect = subparsers.add_parser("protect", help="Protect a graph JSON file")
    protect.add_argument("input", help="path to a graph JSON file (see repro.graph.serialization)")
    protect.add_argument("output", help="path the protected account graph is written to")
    protect.add_argument(
        "--strategy", choices=list(STRATEGIES), default=STRATEGY_SURROGATE, help="protection strategy"
    )
    protect.add_argument(
        "--protect-edge",
        action="append",
        default=[],
        metavar="SRC,DST",
        help="edge to protect, as 'source,target' (repeatable)",
    )
    protect.add_argument("--report", action="store_true", help="print utility/opacity of the result")
    protect.add_argument(
        "--json",
        action="store_true",
        help="emit the full ProtectionResult (account summary, scores, timings) as JSON",
    )

    serve = subparsers.add_parser(
        "serve-batch", help="Serve a JSON batch of protection requests (multi-graph, multi-tenant)"
    )
    serve.add_argument(
        "batch",
        help="path to a batch spec: {graphs: {name: path}, lattice: {priv: [dominates...]},"
        " lowest: {node: priv}, requests: [{graph, privilege(s), strategy, ...}]}",
    )
    serve.add_argument("--tenant", default=None, help="serve under this registered tenant")
    serve.add_argument(
        "--store-root",
        default=None,
        help="store directory (per-tenant subdirectories with --tenant, one shared store otherwise)",
    )
    serve.add_argument(
        "--repeat", type=int, default=1, metavar="N", help="serve the batch N times (default 1)"
    )
    serve.add_argument(
        "--json", action="store_true", help="emit full per-request results and cache stats as JSON"
    )

    http_serve = subparsers.add_parser(
        "serve", help="Run the async HTTP serving frontend (repro.server)"
    )
    http_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    http_serve.add_argument("--port", type=int, default=8080, help="bind port (0 picks a free one)")
    http_serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME[=TOKEN]",
        help="tenant to enroll, optionally with a fixed bearer token (repeatable;"
        " default: one 'default' tenant with a generated token)",
    )
    http_serve.add_argument(
        "--store-root", default=None, help="root directory for per-tenant durable stores"
    )
    http_serve.add_argument(
        "--threads",
        type=int,
        default=4,
        help="executor threads for cached replays and request decode"
        " (default 4)",
    )
    http_serve.add_argument(
        "--replicate",
        action="store_true",
        help="lead: stream published graphs' deltas into per-tenant delta logs"
        " (needs --store-root)",
    )
    http_serve.add_argument(
        "--replica-of",
        default=None,
        metavar="URL",
        help="follow: serve reads from the leader's --store-root (opened"
        " read-only), tailing its delta logs; URL is the leader's base"
        " address quoted back to stale clients",
    )
    http_serve.add_argument(
        "--staleness-budget",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how long a follower blocks to cover a request's X-Repro-Vector"
        " before answering 503 (default 2.0)",
    )
    http_serve.add_argument(
        "--max-inflight", type=int, default=None, help="concurrent requests per tenant lane"
    )
    http_serve.add_argument(
        "--max-queue", type=int, default=None, help="queued requests per tenant lane"
    )
    http_serve.add_argument(
        "--max-requests", type=int, default=None, help="per-tenant total request quota"
    )
    http_serve.add_argument(
        "--check",
        action="store_true",
        help="start, probe /v1/health once, print the result and exit (CI smoke)",
    )
    http_serve.add_argument(
        "--json", action="store_true", help="emit startup/check output as JSON"
    )

    edit = subparsers.add_parser(
        "edit", help="Replay an edit script through an incremental edit session"
    )
    edit.add_argument("input", help="path to a graph JSON file")
    edit.add_argument(
        "script",
        help="path to an edit script: either a JSON list of edits or an object"
        " {lattice, lowest, privilege, edits}; each edit is"
        " {op: add_edge|remove_edge|add_bidirectional_edge|add_node|remove_node"
        "|set_node_features, ...}",
    )
    edit.add_argument(
        "--privilege", default=None, help="consumer class (default: the script's, else Public)"
    )
    edit.add_argument(
        "--output", default=None, help="write the final protected account graph to this path"
    )
    edit.add_argument(
        "--json", action="store_true", help="emit per-edit results and maintenance stats as JSON"
    )

    subparsers.add_parser("motifs", help="List the motif catalog")
    return parser


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _print_error(
    message: str, *, kind: str = "usage", as_json: bool, exc: Optional[BaseException] = None
) -> None:
    """One structured error line: JSON on ``--json``, ``error: ...`` otherwise.

    The JSON shape is the server's envelope
    (:func:`repro.server.errors.error_envelope`), so scripted callers parse
    one format whether the stack answered over HTTP or from a subcommand;
    usage errors (no exception object) map to status 400.
    """
    if as_json:
        if exc is not None:
            envelope = error_envelope(exc, message=message)
        else:
            envelope = error_envelope(kind=kind, message=message, status=400)
        _print(json.dumps(envelope))
    else:
        _print(f"error: {message}")


def _cmd_protect(args: argparse.Namespace) -> int:
    as_json = getattr(args, "json", False)
    edges = []
    for raw in args.protect_edge:
        parts = [part.strip() for part in raw.split(",")]
        if len(parts) != 2:
            _print_error(
                f"--protect-edge expects 'source,target', got {raw!r}",
                kind="usage",
                as_json=as_json,
            )
            return 2
        edges.append((parts[0], parts[1]))
    try:
        graph = load_graph(args.input)
    except (OSError, ReproError) as exc:
        _print_error(f"cannot load graph from {args.input}: {exc}", kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1
    policy = ReleasePolicy(PrivilegeLattice())
    service = ProtectionService(graph, policy)
    request = ProtectionRequest(
        privileges=(policy.lattice.public,),
        strategy=args.strategy,
        protect_edges=tuple(edges),
        score=args.report or as_json,
    )
    try:
        result = service.protect(request)
    except ReproError as exc:
        # NodeNotFoundError, EdgeNotFoundError, PolicyError, ProtectionError:
        # a structured one-line diagnosis instead of a traceback.
        _print_error(str(exc.args[0] if exc.args else exc), kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1
    account = result.account
    try:
        save_graph(account.graph, args.output)
    except (OSError, ReproError) as exc:
        _print_error(
            f"cannot write protected account to {args.output}: {exc}",
            kind=type(exc).__name__,
            as_json=as_json,
            exc=exc,
        )
        return 1
    if as_json:
        payload = result.as_dict()
        payload["output"] = str(args.output)
        _print(json.dumps(payload, indent=2, default=str))
        return 0
    _print(f"protected account written to {args.output} "
           f"({account.graph.node_count()} nodes, {account.graph.edge_count()} edges, "
           f"{len(account.surrogate_edges)} surrogate edges)")
    if args.report:
        report = {
            "strategy": args.strategy,
            "path_utility": round(result.scores.path_utility, 4),
            "average_opacity": round(result.scores.average_opacity, 4),
        }
        _print(json.dumps(report, indent=2))
    return 0


def _load_batch_spec(path: str, *, as_json: bool) -> Optional[dict]:
    """Parse the serve-batch spec file, or print a diagnosis and return None."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        _print_error(f"cannot load batch spec {path}: {exc}", kind="usage", as_json=as_json)
        return None
    if not isinstance(spec, dict) or not isinstance(spec.get("requests"), list):
        _print_error(
            f"batch spec {path} must be an object with a 'requests' list",
            kind="usage",
            as_json=as_json,
        )
        return None
    return spec


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    as_json = getattr(args, "json", False)
    spec = _load_batch_spec(args.batch, as_json=as_json)
    if spec is None:
        return 2

    try:
        graphs = {
            name: load_graph(path) for name, path in dict(spec.get("graphs", {})).items()
        }
    except (OSError, ReproError) as exc:
        _print_error(f"cannot load batch graph: {exc}", kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1

    try:
        policy = build_policy(spec)
    except ReproError as exc:
        _print_error(str(exc), kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1

    if args.tenant is not None:
        registry = ServiceRegistry(args.store_root)
        registry.register(args.tenant)
        service = registry.service(args.tenant, None, policy)
    else:
        # An explicit --store-root without --tenant still deserves a store:
        # requests with persist_as would otherwise fail despite the flag.
        store = GraphStore(args.store_root) if args.store_root is not None else None
        service = ProtectionService(None, policy, store=store)

    try:
        requests = [_batch_request(entry, graphs) for entry in spec["requests"]]
    except ReproError as exc:
        _print_error(f"bad batch request: {exc}", kind="usage", as_json=as_json)
        return 2

    try:
        for _ in range(max(0, args.repeat - 1)):
            service.protect_many(requests)
        results = service.protect_many(requests)
    except ReproError as exc:
        _print_error(str(exc.args[0] if exc.args else exc), kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1

    stats = service.cache_stats()
    if as_json:
        payload = {
            "tenant": args.tenant,
            "served": len(results) * max(1, args.repeat),
            "results": [result.as_dict() for result in results],
            "cache": stats.as_dict(),
        }
        _print(json.dumps(payload, indent=2, default=str))
        return 0
    for index, result in enumerate(results):
        summary = result.account.graph
        line = (
            f"[{index}] privileges={','.join(p.name for p in result.request.privileges)} "
            f"strategy={result.request.strategy} nodes={summary.node_count()} "
            f"edges={summary.edge_count()} cache_hit={int(result.timings_ms.get('cache_hit', 0))}"
        )
        if result.scores is not None:
            line += (
                f" path_utility={result.scores.path_utility:.4f}"
                f" avg_opacity={result.scores.average_opacity:.4f}"
            )
        _print(line)
    _print(
        f"cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate, {stats.entries} entries)"
    )
    return 0


def _batch_request(entry: dict, graphs: Dict[str, object]) -> ProtectionRequest:
    """One batch-spec entry as a request on the graph its ``graph`` names."""
    graph_name = entry.get("graph") if isinstance(entry, dict) else None
    graph = graphs.get(graph_name) if isinstance(graph_name, str) else None
    if graph_name is not None and graph is None:
        raise BadRequestError(f"request names unknown graph {graph_name!r}")
    return decode_protection_request(entry, graph)


def _stats_since(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-run view-maintenance counters: ``after`` minus ``before``."""
    delta: Dict[str, Dict[str, int]] = {}
    for component, counters in after.items():
        base = before.get(component, {})
        moved = {
            event: count - base.get(event, 0)
            for event, count in counters.items()
            if count - base.get(event, 0)
        }
        if moved:
            delta[component] = moved
    return delta


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run (or ``--check``) the async HTTP frontend on a background thread."""
    from repro.server.app import ServerConfig, start_server_thread

    as_json = getattr(args, "json", False)
    tenants: Dict[str, Optional[str]] = {}
    for raw in args.tenant or ["default"]:
        name, sep, token = raw.partition("=")
        if not name:
            _print_error(f"--tenant expects NAME[=TOKEN], got {raw!r}", as_json=as_json)
            return 2
        tenants[name] = token if sep else None
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=getattr(args, "threads", 4),
        store_root=args.store_root,
        replicate=getattr(args, "replicate", False),
        replica_of=getattr(args, "replica_of", None),
        staleness_budget=getattr(args, "staleness_budget", 2.0),
    )
    if args.max_inflight is not None:
        config.max_inflight = args.max_inflight
    if args.max_queue is not None:
        config.max_queue = args.max_queue
    tenant_options = (
        {name: {"max_requests": args.max_requests} for name in tenants}
        if args.max_requests is not None
        else None
    )
    try:
        handle, tokens = start_server_thread(
            config, tenants=tenants, tenant_options=tenant_options
        )
    except (OSError, ReproError, RuntimeError, ValueError) as exc:
        _print_error(f"cannot start server: {exc}", kind=type(exc).__name__, as_json=as_json)
        return 1

    if args.check:
        import http.client

        try:
            conn = http.client.HTTPConnection(config.host, handle.port, timeout=10)
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            health = json.loads(response.read())
            conn.close()
        finally:
            handle.stop()
        if as_json:
            _print(json.dumps({"port": handle.port, "health": health}))
        else:
            _print(f"serving check ok: port={handle.port} status={health['status']}")
        return 0 if health.get("status") in ("ok", "degraded") else 1

    if as_json:
        _print(json.dumps({"host": config.host, "port": handle.port, "tokens": tokens}))
    else:
        _print(f"serving on http://{config.host}:{handle.port} (Ctrl-C to drain and stop)")
        for name, token in tokens.items():
            _print(f"tenant {name}: Authorization: Bearer {token}")
    try:
        import time as _time

        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        _print("draining...")
    finally:
        handle.stop()
    return 0


def _cmd_edit(args: argparse.Namespace) -> int:
    as_json = getattr(args, "json", False)
    try:
        graph = load_graph(args.input)
    except (OSError, ReproError) as exc:
        _print_error(f"cannot load graph from {args.input}: {exc}", kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1
    try:
        with open(args.script, "r", encoding="utf-8") as handle:
            script = json.load(handle)
    except (OSError, ValueError) as exc:
        _print_error(f"cannot load edit script {args.script}: {exc}", kind="usage", as_json=as_json)
        return 2
    if isinstance(script, list):
        script = {"edits": script}
    if not isinstance(script, dict) or not isinstance(script.get("edits"), list):
        _print_error(
            f"edit script {args.script} must be a list of edits or an object with an 'edits' list",
            kind="usage",
            as_json=as_json,
        )
        return 2

    try:
        policy = build_policy(script)
        privilege = args.privilege or script.get("privilege") or policy.lattice.public
        service = ProtectionService(graph, policy)
        session = service.edit(privilege)
    except ReproError as exc:
        _print_error(str(exc.args[0] if exc.args else exc), kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1

    # Maintenance counters are process-wide and cumulative; snapshot before
    # the loop so the report describes this run only.
    stats_before = service.view_maintenance_stats()
    edits_report: List[Dict[str, object]] = []
    try:
        for index, entry in enumerate(script["edits"]):
            try:
                apply_script_edit(session, entry)
            except (ValueError, TypeError) as exc:
                _print_error(f"bad edit [{index}]: {exc}", kind="usage", as_json=as_json)
                return 2
            result = session.commit()
            edits_report.append(
                {
                    "edit": entry,
                    "path_utility": round(result.scores.path_utility, 6),
                    "node_utility": round(result.scores.node_utility, 6),
                    "average_opacity": round(result.scores.average_opacity, 6),
                    "delta_apply_ms": round(result.timings_ms.get("delta_apply", 0.0), 3),
                    "recompile_fallback_ms": round(
                        result.timings_ms.get("recompile_fallback", 0.0), 3
                    ),
                }
            )
    except ReproError as exc:
        _print_error(str(exc.args[0] if exc.args else exc), kind=type(exc).__name__, as_json=as_json, exc=exc)
        return 1
    finally:
        session.close()

    account = session.result.account
    if args.output is not None:
        try:
            save_graph(account.graph, args.output)
        except (OSError, ReproError) as exc:
            _print_error(
                f"cannot write protected account to {args.output}: {exc}",
                kind=type(exc).__name__,
                as_json=as_json,
            )
            return 1
    maintenance = _stats_since(stats_before, service.view_maintenance_stats())
    stats = maintenance.get("edit_session", {})
    if as_json:
        payload: Dict[str, object] = {
            "edits": edits_report,
            "account": account.summary(),
            "maintenance": maintenance,
        }
        if args.output is not None:
            payload["output"] = str(args.output)
        _print(json.dumps(payload, indent=2, default=str))
        return 0
    for index, row in enumerate(edits_report):
        path = (
            f"delta_apply={row['delta_apply_ms']}ms"
            if row["recompile_fallback_ms"] == 0.0
            else f"recompile_fallback={row['recompile_fallback_ms']}ms"
        )
        _print(
            f"[{index}] {row['edit']['op']}: path_utility={row['path_utility']:.4f} "
            f"avg_opacity={row['average_opacity']:.4f} ({path})"
        )
    _print(
        f"edits: {len(edits_report)} "
        f"(delta path {stats.get('delta_applied', 0)}, fallback {stats.get('recompile_fallback', 0)})"
    )
    if args.output is not None:
        _print(f"protected account written to {args.output}")
    return 0


def _cmd_motifs() -> int:
    for motif in all_motifs():
        summary = summarize(motif.graph).as_dict()
        _print(
            f"{motif.name:14s} nodes={summary['nodes']} edges={summary['edges']} "
            f"protected_edge={motif.protected_edge[0]}->{motif.protected_edge[1]}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    quick = not getattr(args, "full", False)
    seed = getattr(args, "seed", 2011)

    if args.command == "table1":
        _print(run_table1().render())
    elif args.command == "figure7":
        _print(run_figure7().render())
    elif args.command == "figure8":
        _print(run_figure8(quick=quick, seed=seed).render())
    elif args.command == "figure9":
        _print(run_figure9(quick=quick, seed=seed).render())
    elif args.command == "figure10":
        _print(run_figure10(node_count=args.nodes, seed=seed).render())
    elif args.command == "all":
        _print(run_all(quick=quick, seed=seed).render())
    elif args.command == "protect":
        return _cmd_protect(args)
    elif args.command == "serve-batch":
        return _cmd_serve_batch(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "edit":
        return _cmd_edit(args)
    elif args.command == "motifs":
        return _cmd_motifs()
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
