"""serve_read: lineage queries and cached replays against a served graph.

The server is a ``repro.cli serve`` subprocess with default settings (via
``serve_boot.py``).  One client process drives it over at most ``nproc``
(2) keep-alive connections:

* an open-loop phase at a fixed offered rate (seeded Poisson arrivals),
  each request timed from when it was due, so a stall also charges the
  requests queued behind it;
* a closed-loop phase with both connections kept busy back to back, whose
  completions per second are the capacity (``ops_per_s``).

Requests are ``/v1/enforce`` lineage queries (protected mode, ancestors or
descendants of seeded start nodes); about one in four is a ``/v1/protect``
replay by ``graph_ref``.  The target is one registered 2k-node provenance
DAG with 10% of nodes lifted.  Both request kinds are served from caches
(about 1 ms each), so they share one latency distribution.  Set-up is boot
until healthy, inline graph registration, the first compile and the
enforcer build.

Both phases run in eighth-second segments and pause after each, with
nothing in flight, to time the host-speed probe and to read the steal
column of ``/proc/stat``: CPU time the hypervisor gave to other guests
while this machine had work to run.  On a shared virtual machine a steal
of a few ms stalls the client or the server, and the requests queued
behind it set the tail.  A segment is quiet when no steal tick was
counted while it ran.  A phase runs until half of ``--seconds`` worth of
its segments were quiet, or until it has run ``LIMIT_FACTOR`` times that
many, and is measured on its quiet segments, or on the least-stolen
``FLOOR_SHARE`` of that many if fewer were quiet.  Every response is
checked, whichever segment it fell in.  In six seeded runs during a
noisy hour on a shared 2-core guest, the unscaled open-loop p95 over
every segment had an IQR over median of 0.58; over the quiet segments of
the five runs that had any, 0.11.  The run record keeps both p95s.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from harness import Run, host_cpu_ticks, nearest_rank

NODES = 2_000
SETUPS = 5
STARTS = 1000
REPLAY_SHARE = 0.25
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Offered rate of the open-loop phase: about a fifth of the closed-loop
#: capacity (850-1 050 requests/s unscaled on a shared 2-core host).  At
#: about half, a slow spell of the host pushed the queue toward saturation
#: and p50 from 4.5 to 8 ms; at 300 requests/s, a steal of a few ms still
#: queued a dozen requests behind it.
RATE_PER_S = 200.0
#: Share of ``--seconds`` measured in the open-loop phase (the rest is
#: closed loop).
OPEN_SHARE = 0.5
SEGMENT_S = 0.125
#: A phase runs until it has half of ``--seconds`` worth of quiet segments,
#: or at most this many times that many segments.
LIMIT_FACTOR = 2.0
#: With fewer quiet segments than this share of the wanted ones, the phase
#: is measured on that many least-stolen segments instead.
FLOOR_SHARE = 0.25
#: p99 is set by how many server GC pauses (about 25 ms each) land in the
#: open-loop window; its IQR over median across five seeded runs was 0.55,
#: against 0.06-0.11 for p95.
TAIL_Q = 0.95
TAIL_LIMIT_MS = 50.0
TENANT = "bench"
TOKEN = "perfbench-token"
CONSUMER = {"id": "reader"}
WHY = (
    "lineage queries and cached replays over HTTP at a fixed open-loop rate on a 2k-node DAG that fits every cache: server, security and cache work, no compile"
)

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
def _http_request(path: str, body: Dict[str, Any]) -> bytes:
    raw = json.dumps(body).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        f"Authorization: Bearer {TOKEN}\r\nContent-Length: {len(raw)}\r\n\r\n"
    )
    return head.encode("latin-1") + raw


class Catalog:
    """Every distinct request, with the bytes a correct server must return."""

    def __init__(self, payload: Dict[str, Any], spec: Dict[str, Any], seed: int) -> None:
        from repro.api import ProtectionService
        from repro.graph.serialization import graph_from_dict
        from repro.security.credentials import Consumer
        from repro.security.enforcement import EnforcementMode, QueryEnforcer
        from repro.server.encoding import (
            build_policy,
            decode_protection_request,
            json_bytes,
            query_result_payload,
            result_payload,
        )

        self.payload = payload
        self.spec = spec
        graph = graph_from_dict(payload)
        policy = build_policy(spec)
        replay_body = {"tenant": TENANT, "privilege": "Public", "score": True, **spec}
        replay = ProtectionService(graph, policy).protect(decode_protection_request(replay_body, graph))
        self.replay_result = json_bytes(result_payload(replay))
        enforcer = QueryEnforcer(graph, build_policy(spec))
        consumer = Consumer.with_credentials(CONSUMER["id"])
        starts = random.Random(f"starts:{seed}").sample(graph.node_ids(), STARTS)
        #: (request template, expected full body or None for replays)
        self.queries: List[Tuple[Dict[str, Any], bytes]] = []
        for start in starts:
            for direction in ("ancestors", "descendants"):
                body = {
                    "tenant": TENANT,
                    "consumer": CONSUMER,
                    "start": start,
                    "direction": direction,
                    "mode": "protected",
                    **spec,
                }
                result = enforcer.reachable(
                    consumer, start, direction=direction, mode=EnforcementMode.PROTECTED
                )
                expected = json_bytes({"tenant": TENANT, "query": query_result_payload(result)}) + b"\n"
                self.queries.append((body, expected))
        self.replay_body = replay_body
        self.requests: List[bytes] = []
        self.expected: List[Optional[bytes]] = []

    def bind(self, graph_ref: str) -> None:
        """Render every request against the registered ``graph_ref``."""
        self.requests = [_http_request("/v1/protect", {**self.replay_body, "graph_ref": graph_ref})]
        self.expected = [None]
        for body, expected in self.queries:
            self.requests.append(_http_request("/v1/enforce", {**body, "graph_ref": graph_ref}))
            self.expected.append(expected)

    def pick(self, rng: random.Random) -> int:
        """The next request: a replay with probability ``REPLAY_SHARE``."""
        return 0 if rng.random() < REPLAY_SHARE else rng.randrange(1, len(self.requests))

    def check(self, index: int, status: int, body: bytes) -> Optional[str]:
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        expected = self.expected[index]
        if expected is not None:
            return None if body == expected else "query response differs from the in-process result"
        from repro.server.encoding import json_bytes

        parsed = json.loads(body)
        if parsed.get("cache_hit") is not True:
            return "replay was not a cache hit"
        if json_bytes(parsed["result"]) != self.replay_result:
            return "replay response differs from the in-process result"
        return None


# ---------------------------------------------------------------------- #
# server process
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro.cli serve`` subprocess (traced when ``trace_file`` is set)."""

    def __init__(self, trace_file: Optional[Path]) -> None:
        root = HERE.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
        )
        if trace_file is not None:
            env["PERFBENCH_TRACE_FILE"] = str(trace_file)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-u",
                str(HERE / "serve_boot.py"),
                "serve",
                "--port",
                "0",
                "--tenant",
                f"{TENANT}={TOKEN}",
                "--json",
            ],
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(root),
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server exited before reporting its port")
        self.port = json.loads(line)["port"]

    def call(self, method: str, path: str, body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(
                method,
                path,
                body=json.dumps(body).encode("utf-8") if body is not None else None,
                headers={"Authorization": f"Bearer {TOKEN}", "Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: {payload}")
        return payload

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                if self.call("GET", "/v1/health").get("status") == "ok":
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)
        time.sleep(0.2)  # the handler runs at the main thread's next bytecode

    def stop(self) -> None:
        """Drain and stop; wait until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def set_up(catalog: Catalog, trace_file: Optional[Path]) -> Server:
    server = Server(trace_file)
    try:
        server.wait_healthy()
        registered = server.call("POST", "/v1/graphs", {"tenant": TENANT, "graph": catalog.payload})
        catalog.bind(registered["graph_ref"])
        server.call("POST", "/v1/protect", {**catalog.replay_body, "graph_ref": registered["graph_ref"]})
        body, _expected = catalog.queries[0]
        server.call("POST", "/v1/enforce", {**body, "graph_ref": registered["graph_ref"]})
    except BaseException:
        server.stop()
        raise
    return server


# ---------------------------------------------------------------------- #
# load generator
# ---------------------------------------------------------------------- #
class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def round_trip(self, request: bytes) -> Tuple[int, bytes]:
        self.writer.write(request)
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


class Segment(NamedTuple):
    """One load segment: its requests are ``Load.latency_ms[first:end]``."""

    first: int
    end: int
    seconds: float
    #: Probe gap right after the segment.
    gap: int
    #: CPU ticks the hypervisor took from this machine during the segment,
    #: and their share of the ticks it wanted.
    steal: int
    steal_share: float


class Load:
    """Latencies, lateness, round trips and segments of one load phase."""

    def __init__(self) -> None:
        self.latency_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.round_trip_ms: List[float] = []
        self.rejected = 0
        self.segments: List[Segment] = []

    def quiet(self) -> int:
        return sum(1 for segment in self.segments if segment.steal == 0)

    def measured(self, floor: int) -> List[Segment]:
        """The quiet segments, or the ``floor`` least-stolen ones if fewer, in run order."""
        ranked = sorted(
            range(len(self.segments)), key=lambda i: (self.segments[i].steal_share, i)
        )
        return [self.segments[i] for i in sorted(ranked[: max(floor, self.quiet())])]

    def note(self, floor: int) -> Dict[str, Any]:
        """Segment counts, steal and the raw p95 over every segment and over the measured ones."""
        measured = self.measured(floor)
        kept = [value for segment in measured for value in self.latency_ms[segment.first : segment.end]]
        return {
            "segments": len(self.segments),
            "quiet": self.quiet(),
            "measured": len(measured),
            "measured_steal_ticks": sum(segment.steal for segment in measured),
            "steal_ticks": sum(segment.steal for segment in self.segments),
            "requests": len(self.latency_ms),
            "measured_requests": len(kept),
            "p95_ms": nearest_rank(sorted(self.latency_ms), 0.95),
            "measured_p95_ms": nearest_rank(sorted(kept), 0.95),
        }


async def _connect(port: int) -> List[Connection]:
    connections = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connections.append(Connection(reader, writer))
    return connections


async def _drive(
    bench: Run,
    catalog: Catalog,
    port: int,
    rng: random.Random,
    *,
    open_loop: bool,
    want: int,
    limit: int,
) -> Load:
    """Run load segments until ``want`` were quiet or ``limit`` ran.

    The probe is timed between segments, with nothing in flight.
    """
    load = Load()
    connections = await _connect(port)
    free: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        free.put_nowait(connection)

    async def issue(index: int, due: float) -> None:
        connection = await free.get()
        sent = time.perf_counter()
        bench.attempted += 1
        try:
            status, body = await connection.round_trip(catalog.requests[index])
            error = None
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        free.put_nowait(connection)
        if status in (429, 503):
            load.rejected += 1
        if error is None:
            error = catalog.check(index, status, body)
        if error is not None:
            bench.failed += 1
            bench.fail(error)
            load.latency_ms.append(math.inf)  # a failure misses any limit
        else:
            load.latency_ms.append((done - due) * 1000.0)
        load.lateness_ms.append((sent - due) * 1000.0)
        load.round_trip_ms.append((done - sent) * 1000.0)

    while load.quiet() < want and len(load.segments) < limit:
        issued = len(load.latency_ms)
        ticks = host_cpu_ticks()
        start = time.perf_counter()
        if open_loop:
            tasks = []
            offset = rng.expovariate(RATE_PER_S)
            while offset < SEGMENT_S:
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(issue(catalog.pick(rng), due)))
                offset += rng.expovariate(RATE_PER_S)
            await asyncio.gather(*tasks)
        else:
            async def worker() -> None:
                while time.perf_counter() - start < SEGMENT_S:
                    await issue(catalog.pick(rng), time.perf_counter())

            await asyncio.gather(*(worker() for _ in connections))
        busy = time.perf_counter() - start
        steal, share = 0, 0.0
        if ticks is not None:
            after = host_cpu_ticks()
            used, steal = after[0] - ticks[0], after[1] - ticks[1]
            share = steal / (used + steal) if used + steal else 0.0
        gap = bench.probe.gap()
        load.segments.append(Segment(issued, len(load.latency_ms), busy, gap, steal, share))
    for connection in connections:
        connection.writer.close()
        await connection.writer.wait_closed()
    return load


def run(bench: Run, tmp) -> Dict[str, Any]:
    from inputs import derive_seeds, provenance_dag

    bench.end_setup()  # in-process boundaries are not what this workload traces
    (seed,) = derive_seeds(bench.seed, 1, "serve_read")
    payload, spec = provenance_dag(NODES, seed)
    catalog = Catalog(payload, spec, seed)
    traced = bench.tracer is not None
    trace_file = tmp / "server-trace.json" if traced else None
    server = None
    for index in range(SETUPS):
        if server is not None:
            server.stop()
            server = None
        last = index == SETUPS - 1
        server = bench.timed_setup(
            index, lambda: set_up(catalog, trace_file if last else None)
        )
    rng = random.Random(seed)
    facts: Dict[str, Any] = {"tail_q": TAIL_Q}
    open_want = max(1, round(bench.seconds * OPEN_SHARE / SEGMENT_S))
    closed_want = max(1, round(bench.seconds * (1 - OPEN_SHARE) / SEGMENT_S))
    open_floor = max(1, math.ceil(open_want * FLOOR_SHARE))
    closed_floor = max(1, math.ceil(closed_want * FLOOR_SHARE))

    def drive(want: int, limit: int, open_loop: bool) -> Load:
        return asyncio.run(
            _drive(bench, catalog, server.port, rng, open_loop=open_loop, want=want, limit=limit)
        )

    try:
        if not traced:
            opened = drive(open_want, math.ceil(open_want * LIMIT_FACTOR), True)
            closed = drive(closed_want, math.ceil(closed_want * LIMIT_FACTOR), False)
        else:
            half = max(1, open_want // 2)
            server.signal(signal.SIGUSR2)  # set-up traced; untraced half next
            untraced = drive(half, half, True)
            server.signal(signal.SIGUSR1)
            opened = drive(half, half, True)
            server.signal(signal.SIGUSR2)
        facts["rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()

    bench.notes["load"] = {
        "rate_per_s": RATE_PER_S,
        "connections": CONNECTIONS,
        "segment_s": SEGMENT_S,
        "tail_limit_ms": TAIL_LIMIT_MS,
        "within_limit": sum(value <= TAIL_LIMIT_MS for value in opened.latency_ms)
        / max(1, len(opened.latency_ms)),
        "lateness_p99_ms": nearest_rank(sorted(opened.lateness_ms), 0.99),
    }
    bench.notes["inputs"] = {"nodes": NODES, "edges": 3 * NODES, "starts": STARTS}
    if not traced:
        measured = opened.measured(open_floor)
        facts["latencies_ms"] = [
            value for segment in measured for value in opened.latency_ms[segment.first : segment.end]
        ]
        facts["latency_gaps"] = [
            segment.gap for segment in measured for _ in range(segment.end - segment.first)
        ]
        # Capacity is the median segment, so one stalled segment cannot set it.
        facts["segments"] = [
            (segment.end - segment.first, segment.seconds, segment.gap)
            for segment in closed.measured(closed_floor)
        ]
        bench.notes["load"]["open"] = opened.note(open_floor)
        bench.notes["load"]["closed"] = closed.note(closed_floor)
        tail = nearest_rank(sorted(facts["latencies_ms"]), TAIL_Q)
        bench.notes["load"]["tail_met_limit"] = tail <= TAIL_LIMIT_MS
        return facts

    with open(trace_file, encoding="utf-8") as handle:
        dumped = json.load(handle)
    bench.notes["untraced_ms"] = untraced.latency_ms
    bench.notes["traced_ms"] = opened.latency_ms
    facts.update(
        {
            "spans": dumped["spans"],
            "counters": dumped["counters"],
            "setups_traced": 1,
            "round_trip_ms": opened.round_trip_ms,
            "server.rejected": untraced.rejected + opened.rejected,
            "client.lateness_ms": nearest_rank(sorted(opened.lateness_ms), 0.99),
        }
    )
    return facts
