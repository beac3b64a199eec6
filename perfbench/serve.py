"""The ``serve-stream`` workload: a live stream-and-query service.

A :mod:`server` child process serves the protection service over
loopback TCP; this process drives it with the v2 wire from one asyncio
loop and at most two connections.

The open-loop replay measures latency:

* connection 1 replays the protected users' test days through
  ``stream_open`` / ``stream_record`` / ``stream_flush`` /
  ``stream_close``.  Records are cut into frames of a few records, the
  frames of all users are ordered by corpus time, and frame *k* is due
  at ``k / FRAME_RATE`` seconds.  The load is open across users and in
  order within a user: a frame is sent at its due time, or when its
  user's previous frame is acknowledged if that is later, and its
  latency counts from the due time;
* connection 2 sends ``count`` and ``top_cells`` queries at
  ``QUERY_RATE`` per second against the collection server that the
  stream fills, also timed from the due time.

The rates are fixed here and stated in ``BENCHMARK.json``, never derived
at run time, so the replay's own rates are inputs, not results.  The
stream's throughput is measured by closed-loop drains instead: each on a
fresh child, the same frames sent back to back with one request in
flight, then every stream flushed and closed.  ``perfbench/capacity.py``
measures the closed-loop capacities the rates were set from, and
``perfbench/README.md`` says how.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import workload as w
from calibrate import Calibrator, timed_setup
from repro.errors import ReproError
from repro.service.api import (
    WIRE_VERSION_V2,
    LoopbackClient,
    ProtectionService,
    QueryRequest,
    QueryResponse,
    StreamAck,
    StreamClose,
    StreamClosed,
    StreamFlush,
    StreamFlushed,
    StreamOpen,
    StreamOpened,
    StreamRecord,
)
from repro.service.rpc import AsyncServiceClient, Endpoint

POPULATION = 64
#: Users whose test days are replayed (the first ids of the population);
#: at FRAME_RATE their four test days take about 28 s to send, so a 25 s
#: run sends all three midnights.
STREAM_USERS = 40
#: Records per stream_record frame (a user's first frame is shorter by a
#: seed-chosen offset, which moves every later frame boundary).
FRAME_RECORDS = 3
#: Offered stream load, frames per second (x FRAME_RECORDS records/s):
#: about a quarter of the stream path's closed-loop capacity.
FRAME_RATE = 110.0
#: Offered query load, queries per second (a few percent of the query
#: path's closed-loop capacity); one query in TOP_CELLS_EVERY is
#: top_cells, the rest are count.
QUERY_RATE = 60.0
TOP_CELLS_EVERY = 10
#: Closed-loop drains per untraced run; throughput is their median.
DRAIN_REPEATS = 3
#: A drain's server child runs the calibration kernel after each
#: PROBE_EVERY_S seconds of request handling.
PROBE_EVERY_S = 0.05
#: A request without a reply after this long counts as failed; a failed
#: or refused request is charged this latency, so it misses every limit.
REQUEST_TIMEOUT_S = 60.0
CHILD_READY_TIMEOUT_S = 120.0

SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")


# -- child server -------------------------------------------------------------


class Child:
    """One :mod:`server` process; always reaped by :meth:`stop`."""

    def __init__(self, trace: bool, calibrate: float = 0.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, SERVER, "--population", str(POPULATION),
             "--trace", "1" if trace else "0", "--calibrate", str(calibrate)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("the benchmark server did not start")
            self.port = int(json.loads(line)["port"])
        except BaseException:
            self.kill()
            raise

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, then the child's final JSON report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the benchmark server did not exit on SIGTERM")
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"the benchmark server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# -- load -------------------------------------------------------------------


def make_frames(traces: List[Any], seed: int, limit: int) -> List[Tuple[float, str, Tuple]]:
    """``(corpus_time, user, records)`` frames in corpus-time order.

    Only the records up to a cut-off are framed: the corpus time of the
    ``limit * FRAME_RECORDS``-th record of all users in time order, so
    about *limit* frames.  The cut-off does not depend on the seed, so
    every seed streams the same records and publishes the same bytes.
    The seed picks each user's first-frame length, which moves every
    later frame boundary of that user.
    """
    stamps = sorted(float(t) for trace in traces for t in trace.timestamps)
    cut = stamps[min(len(stamps), limit * FRAME_RECORDS) - 1]
    rng = random.Random(seed)
    frames = []
    for trace in traces:
        # A trace is in time order, so the records up to the cut-off
        # are a prefix.
        n = int(np.count_nonzero(trace.timestamps <= cut))
        start = 0
        stop = 1 + rng.randrange(FRAME_RECORDS)
        while start < n:
            records = tuple(
                (i, float(trace.timestamps[i]), float(trace.lats[i]), float(trace.lngs[i]))
                for i in range(start, min(stop, n))
            )
            frames.append((records[0][1], trace.user_id, records))
            start, stop = stop, stop + FRAME_RECORDS
    frames.sort(key=lambda f: (f[0], f[1]))
    return frames


def query_request(rng: random.Random, points: List[Tuple[float, float]]) -> QueryRequest:
    if rng.randrange(TOP_CELLS_EVERY) == 0:
        return QueryRequest(kind="top_cells", k=10)
    lat, lng = points[rng.randrange(len(points))]
    return QueryRequest(kind="count", lat=lat, lng=lng)


class Replay:
    """State and results of one open-loop replay (:meth:`run`) or one
    closed-loop drain (:meth:`drain`) of the same frames."""

    def __init__(self, frames: List[Tuple[float, str, Tuple]], seconds: float, seed: int,
                 points: List[Tuple[float, float]]) -> None:
        self.frames = frames
        self.n_queries = int(seconds * QUERY_RATE)
        self.rng = random.Random(seed + 1)
        self.points = points
        self.ledger = w.OpLedger()
        self.ack_s: List[float] = []
        self.query_s: List[float] = []
        self.lateness_s: List[float] = []
        self.rtt_s = 0.0
        self.requests = 0
        self.records_acked = 0
        self.done_at: Dict[str, float] = {}
        self.pieces: Dict[str, Tuple] = {}
        self.closed: Dict[str, Any] = {}
        self.wall_s = 0.0
        self.calib = Calibrator()

    async def _ask(self, client: AsyncServiceClient, op: str, message: Any,
                   expected: type) -> Optional[Any]:
        t0 = time.perf_counter()
        try:
            reply = await client.request(message)
        except ReproError:
            reply = None
        self.rtt_s += time.perf_counter() - t0
        self.requests += 1
        ok = isinstance(reply, expected)
        if ok and isinstance(reply, StreamAck):
            ok = reply.status == "ok" and reply.accepted == len(message.records)
        self.ledger.record(op, ok)
        return reply if ok else None

    async def _user_step(self, client: AsyncServiceClient, prev: Optional[asyncio.Task],
                         user: str, records: Tuple, due: float, t0: float,
                         first: bool, last: bool) -> None:
        if prev is not None:
            await prev
        ready = max(due, self.done_at.get(user, due))
        self.lateness_s.append(max(0.0, time.perf_counter() - t0 - ready))
        if first:
            await self._ask(client, "stream_open", StreamOpen(user_id=user), StreamOpened)
        ack = await self._ask(
            client, "stream_record", StreamRecord(user_id=user, records=records), StreamAck
        )
        done = time.perf_counter() - t0
        self.done_at[user] = done
        if ack is None:
            self.ack_s.append(REQUEST_TIMEOUT_S)
        else:
            self.ack_s.append(done - due)
            self.records_acked += len(records)
        if last:
            flushed = await self._ask(
                client, "stream_flush", StreamFlush(user_id=user, close_window=True),
                StreamFlushed,
            )
            closed = await self._ask(
                client, "stream_close", StreamClose(user_id=user), StreamClosed
            )
            if flushed is not None and closed is not None:
                self.pieces[user] = flushed.pieces
                self.closed[user] = closed

    async def _query(self, client: AsyncServiceClient, due: float, t0: float) -> None:
        self.lateness_s.append(max(0.0, time.perf_counter() - t0 - due))
        request = query_request(self.rng, self.points)
        reply = await self._ask(client, "query", request, QueryResponse)
        done = time.perf_counter() - t0
        self.query_s.append(REQUEST_TIMEOUT_S if reply is None else done - due)

    async def run(self, port: int) -> None:
        endpoint = Endpoint(host="127.0.0.1", port=port)
        streams = await AsyncServiceClient(endpoint, timeout=REQUEST_TIMEOUT_S).connect()
        queries = await AsyncServiceClient(endpoint, timeout=REQUEST_TIMEOUT_S).connect()
        last_of = {user: k for k, (_, user, _) in enumerate(self.frames)}
        events = [(k / FRAME_RATE, 0, k) for k in range(len(self.frames))]
        events += [(q / QUERY_RATE, 1, q) for q in range(self.n_queries)]
        events.sort()
        tasks: List[asyncio.Task] = []
        chain: Dict[str, asyncio.Task] = {}
        t0 = time.perf_counter() + 0.05
        try:
            for due, kind, k in events:
                delay = t0 + due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if kind == 1:
                    tasks.append(asyncio.ensure_future(self._query(queries, due, t0)))
                    continue
                _, user, records = self.frames[k]
                prev = chain.get(user)
                task = asyncio.ensure_future(self._user_step(
                    streams, prev, user, records, due, t0, prev is None, last_of[user] == k))
                chain[user] = task
                tasks.append(task)
            for task in tasks:
                await task
            self.wall_s = time.perf_counter() - t0
        finally:
            await streams.close()
            await queries.close()

    async def drain(self, port: int) -> None:
        """Closed loop on one connection: every frame sent as soon as the
        previous request is answered, each user's stream flushed and
        closed after its last frame."""
        client = await AsyncServiceClient(
            Endpoint(host="127.0.0.1", port=port), timeout=REQUEST_TIMEOUT_S
        ).connect()
        last_of = {user: k for k, (_, user, _) in enumerate(self.frames)}
        t0 = time.perf_counter()
        try:
            for k, (_, user, records) in enumerate(self.frames):
                await self._user_step(client, None, user, records, time.perf_counter() - t0,
                                      t0, user not in self.done_at, last_of[user] == k)
            self.wall_s = time.perf_counter() - t0
        finally:
            await client.close()


# -- workload -----------------------------------------------------------------


def _serve(traced: bool, leg: str, frames: List, seconds: float, seed: int,
           points: List) -> Tuple[float, Replay, Dict[str, Any]]:
    """A fresh child, one ``leg`` (``"run"`` or ``"drain"``) against it:
    ``(child set-up seconds, scaled; replay; the child's final report)``."""
    child, setup_s = timed_setup(Child, traced, PROBE_EVERY_S if leg == "drain" else 0.0)
    replay = Replay(frames, seconds, seed, points)
    try:
        asyncio.run(getattr(replay, leg)(child.port))
    except BaseException:
        child.kill()
        raise
    report = child.stop()
    # The kernel ran inside the drain's requests: take it out of the
    # drain's time, and scale the rest by the child's speed.
    replay.calib.samples = report["calibration_s"]
    replay.wall_s -= replay.calib.spent_s
    return setup_s, replay, report


def per_s(replay: Replay) -> Tuple[float, float]:
    """``(users closed, records acked)`` per second of *replay*; a
    drain's wall time is scaled to the reference host speed."""
    wall = replay.wall_s * replay.calib.scale()
    return len(replay.closed) / wall, replay.records_acked / wall


def stream_digest(replay: Replay, traces: List[Any]) -> str:
    return w.pieces_digest(
        (p.pseudonym, p.mechanism, p.trace)
        for t in traces
        for p in replay.pieces.get(t.user_id, ())
    )


def _check_outputs(checks: w.Checks, replay: Replay, traces: List[Any],
                   background: Any) -> Dict[str, Any]:
    """Stream output against a fresh batch ``protect(daily=True)`` of the
    same records, record conservation, and no re-identification."""
    engine = w.build_engine(background)
    batch = LoopbackClient(ProtectionService(engine), WIRE_VERSION_V2)
    sent: Dict[str, int] = {}
    for _, user, records in replay.frames:
        sent[user] = records[-1][0] + 1
    batch_pieces = []
    records_in = erased = 0
    weighted = published = 0.0
    try:
        for trace in traces:
            user = trace.user_id
            if user not in sent:
                continue
            pieces = replay.pieces.get(user)
            closed = replay.closed.get(user)
            checks.check("stream_completed", pieces is not None, f"{user} did not finish")
            if pieces is None:
                continue
            reply = batch.protect(trace.head(sent[user]), daily=True)
            batch_pieces += [(p.pseudonym, p.mechanism, p.trace) for p in reply.pieces]
            covered = sum(
                len(p.trace) if p.original_records is None else p.original_records
                for p in pieces
            )
            checks.check(
                "records_conserved",
                covered + closed.erased_records == closed.records_in == sent[user],
                f"{user}: published {covered} + erased {closed.erased_records} "
                f"!= input {sent[user]}",
            )
            records_in += sent[user]
            erased += closed.erased_records
            for p in pieces:
                weighted += p.distortion_m * len(p.trace)
                published += len(p.trace)
            w.check_not_reidentified(checks, engine.attacks, ((user, p.trace) for p in pieces))
    finally:
        batch.close()
    digest = stream_digest(replay, traces)
    checks.check(
        "stream_matches_batch",
        digest == w.pieces_digest(batch_pieces),
        "stream pieces differ from a batch protect(daily=True) of the same records",
    )
    return {
        "published_digest": digest,
        "records_in": float(records_in),
        "data_loss_pct": 100.0 * erased / records_in if records_in else 0.0,
        "distortion_m": weighted / published if published else 0.0,
    }


def _check_drains(checks: w.Checks, drains: List[Replay], traces: List[Any],
                  digest: str) -> None:
    """Every drain acks every record and publishes the replay's bytes."""
    records = sum(len(r) for _, _, r in drains[0].frames) if drains else 0
    for drain in drains:
        checks.check(
            "drain_complete",
            drain.records_acked == records and not drain.ledger.failed,
            f"a drain acked {drain.records_acked} of {records} records",
        )
        checks.check(
            "drain_matches_replay",
            stream_digest(drain, traces) == digest,
            "a closed-loop drain published other bytes than the open-loop replay",
        )


def run(seed: int, seconds: float, trace: bool, users: Optional[int]) -> Dict[str, Any]:
    checks = w.Checks()
    ledger = w.OpLedger()
    background, test = w.corpus_slice(POPULATION)
    traces = [test[u] for u in w.protected_ids(test, users or STREAM_USERS)]
    # Records after the run's length are not sent: every user's
    # stream still ends cleanly after its last sent frame.
    frames = make_frames(traces, seed, int(seconds * FRAME_RATE))
    points = [
        (float(t.lats[i]), float(t.lngs[i])) for t in traces for i in range(len(t))
    ]
    setup_times: List[float] = []

    def serve_leg(traced: bool, leg: str) -> Tuple[Replay, Dict[str, Any]]:
        setup_s, replay, report = _serve(traced, leg, frames, seconds, seed, points)
        if not traced:
            setup_times.append(setup_s)
        ledger.merge(replay.ledger)
        return replay, report

    replay, child_report = serve_leg(False, "run")
    drains = [serve_leg(False, "drain")[0] for _ in range(1 if trace else DRAIN_REPEATS)]
    while not trace and w.more_setups(setup_times):
        child, setup_s = timed_setup(Child, False)
        setup_times.append(setup_s)
        child.stop()

    detail = _check_outputs(checks, replay, traces, background)
    _check_drains(checks, drains, traces, detail["published_digest"])
    users_per_s = statistics.median(per_s(d)[0] for d in drains)
    records_per_s = statistics.median(per_s(d)[1] for d in drains)
    ack_p50_ms = 1000.0 * statistics.median(replay.ack_s)
    detail.update(
        frames=len(replay.frames),
        ack_samples=len(replay.ack_s),
        query_samples=len(replay.query_s),
        replay_wall_s=replay.wall_s,
        replay_records_per_s=per_s(replay)[1],
        drain_walls_s=[d.wall_s for d in drains],
        stream=child_report["stream"],
        ack_p50_ms=ack_p50_ms,
        ack_p99_ms=1000.0 * w.quantile(replay.ack_s, 0.99),
        query_p50_ms=1000.0 * statistics.median(replay.query_s),
        query_p99_ms=1000.0 * w.quantile(replay.query_s, 0.99),
    )
    if not trace:
        metrics = {
            "users_per_s": (users_per_s, "users/s"),
            "records_per_s": (records_per_s, "records/s"),
            "distortion_m": (detail["distortion_m"], "m"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (child_report["peak_rss_mib"], "MiB"),
        }
        return {"checks": checks, "ledger": ledger, "metrics": metrics, "detail": detail}

    # Traced leg: the same replay and one drain, each on a traced child;
    # the per-layer spans come from the replay.
    traced_replay, traced_report = serve_leg(True, "run")
    traced_drain, _ = serve_leg(True, "drain")
    checks.check(
        "traced_bytes_identical",
        stream_digest(traced_replay, traces) == detail["published_digest"],
        "tracing changed the published bytes",
    )
    _check_drains(checks, [traced_drain], traces, detail["published_digest"])
    stats = traced_report["feature_cache"]
    lookups = stats["hits"] + stats["misses"]
    counters = dict(traced_report["counters"])
    counters["stream.windows_closed"] = traced_report["stream"]["windows_closed"]
    handled = sum(
        row["busy_s"] for name, row in traced_report["summary"].items()
        if name.startswith("service.")
    )
    traced = {
        "wall_s": traced_replay.wall_s,
        "summary": traced_report["summary"],
        "counters": counters,
        "setup": traced_report["setup"],
        "evaluations": float(traced_report["evaluations"]),
        "feature_cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "feature_cache.evictions": float(stats["evictions"]),
        "users_per_s_delta": users_per_s - per_s(traced_drain)[0],
        "ack_p50_ms_delta": ack_p50_ms - 1000.0 * statistics.median(traced_replay.ack_s),
        "rpc.transport_ms": 1000.0 * (traced_replay.rtt_s - handled) / traced_replay.requests,
        "loadgen.lateness_p99_ms": 1000.0 * w.quantile(traced_replay.lateness_s, 0.99),
        "loadgen.ops_attempted": float(traced_replay.ledger.attempted),
        "nesting_errors": traced_report["nesting_errors"],
    }
    return {"checks": checks, "ledger": ledger, "traced": traced, "detail": detail}
