"""Benchmark-owned server launcher for the ``serve-stream`` workload.

Runs a :class:`~repro.service.rpc.ServiceServer` on an ephemeral
loopback TCP port, fronting a :class:`~repro.service.api.ProtectionService`
whose engine is fitted on the first ``--population`` corpus users.
Prints one JSON line ``{"port": N}`` once it accepts connections, serves
until SIGTERM, then prints one JSON line with its peak RSS, stream and
cache counters and, with ``--trace 1``, the span summary of every
wrapped layer.  With ``--calibrate S`` it runs the calibration kernel
(:mod:`calibrate`) after each request that brings its handling time
since the last kernel run to S seconds, and reports the kernel times, so
a closed-loop drain can be scaled by the speed of the process that does
the work while it works.

    python3 perfbench/server.py --population 64 --trace 0 --calibrate 0
"""

from __future__ import annotations

import argparse
import asyncio
import time
import json
import os
import signal
import sys
from typing import Any, Dict

import workload as w
import repro.service.rpc as rpc
from repro.service.api import (
    ProtectionService,
    QueryRequest,
    StreamClose,
    StreamFlush,
    StreamOpen,
    StreamRecord,
)
from repro.service.rpc import ServiceServer
from repro.service.server import CollectionServer
from calibrate import Calibrator
from spans import Tracer

ORPHAN_CHECK_S = 1.0

VERBS = {
    StreamOpen: "stream_open",
    StreamRecord: "stream_record",
    StreamFlush: "stream_flush",
    StreamClose: "stream_close",
    QueryRequest: "query",
}


def instrument_service(service: ProtectionService, tracer: Tracer) -> None:
    """Wrap the service, proxy, stream hub and collection server methods
    and the transport's frame codec functions."""
    server = service.server
    service.proxy.protect_chunk = tracer.wrap(
        "proxy.protect_chunk", service.proxy.protect_chunk
    )
    service.streams.ingest = tracer.wrap("stream.ingest", service.streams.ingest)
    # The hub captured ``server.receive`` as its sink at construction.
    service.streams.sink = tracer.wrap("collection.receive", server.receive)
    server.count_in_cell = tracer.wrap("collection.query", server.count_in_cell)
    server.top_cells = tracer.wrap("collection.query", server.top_cells)
    service.handle = tracer.wrap_async(
        lambda message: "service." + VERBS.get(type(message), "other"),
        service.handle,
    )

    decode_v2 = rpc.parse_frame_v2

    def parse_v2(line: bytes) -> Any:
        tracer.count("codec.bytes_in", len(line))
        return decode_v2(line)

    def count_out(payload: bytes) -> None:
        tracer.count("codec.bytes_out", len(payload))

    rpc.parse_frame_v2 = tracer.wrap("codec.decode", parse_v2)
    rpc.materialize_frame_v2 = tracer.wrap("codec.decode", rpc.materialize_frame_v2)
    rpc.encode_reply_for = tracer.wrap(
        "codec.encode", rpc.encode_reply_for, on_result=count_out
    )


def calibrate(service: ProtectionService, calib: Calibrator, every_s: float) -> None:
    """Run the calibration kernel after each *every_s* seconds of request
    handling, so the kernel samples the host's speed where the work is."""
    handle = service.handle
    busy = [0.0]

    async def calibrated(message: Any) -> Any:
        t0 = time.perf_counter()
        reply = await handle(message)
        busy[0] += time.perf_counter() - t0
        if busy[0] >= every_s:
            busy[0] = 0.0
            calib.probe()
        return reply

    service.handle = calibrated


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", type=float, default=0.0)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        train, _ = tracer.wrap("setup.corpus", w.corpus_slice)(args.population)
    else:
        train, _ = w.corpus_slice(args.population)
    engine = w.build_engine(train, tracer)
    service = ProtectionService(engine, server=CollectionServer())
    setup = None
    if tracer is not None:
        instrument_service(service, tracer)
        setup = tracer.summary()
        tracer.spans.clear()
    calib = Calibrator()
    if args.calibrate > 0:
        calibrate(service, calib, args.calibrate)
    server = ServiceServer(service, host="127.0.0.1", port=0)

    async def serve() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        parent = os.getppid()
        # Also stop if the benchmark process dies without signalling.
        while not stop.is_set() and os.getppid() == parent:
            try:
                await asyncio.wait_for(stop.wait(), ORPHAN_CHECK_S)
            except asyncio.TimeoutError:
                pass
        await server.stop()

    asyncio.run(serve())
    stats = engine.feature_cache.stats()
    report: Dict[str, Any] = {
        "peak_rss_mib": w.peak_rss_mib(),
        "stream": service.streams.stats_dict(),
        "feature_cache": stats,
        "evaluations": engine.evaluations,
        "calibration_s": calib.samples,
    }
    if tracer is not None:
        report["setup"] = setup
        report["summary"] = tracer.summary()
        report["counters"] = tracer.counters
        report["nesting_errors"] = tracer.nesting_errors()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    sys.exit(main())
