"""Closed-loop capacities of the ``serve-stream`` paths: the figures its
fixed offered rates were set from.

    python3 perfbench/capacity.py --seed 1 --seconds 3

On a fresh server child, one closed-loop drain of the frames a full run
sends (one request in flight), then, against the collection the drain
filled, ``count`` queries alone and ``top_cells`` queries alone, each
closed loop for ``--seconds``.  Prints one JSON object: the capacities,
the share of each that the workload offers, and the share of query
service time that goes to ``top_cells`` at the workload's mix.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve  # noqa: E402
import workload as w  # noqa: E402
from repro.service.api import QueryRequest, QueryResponse  # noqa: E402
from repro.service.rpc import AsyncServiceClient, Endpoint  # noqa: E402


async def queries_per_s(port: int, kind: str, seconds: float,
                        points: List[Tuple[float, float]], rng: random.Random) -> float:
    client = await AsyncServiceClient(Endpoint(host="127.0.0.1", port=port)).connect()
    n = 0
    t0 = time.perf_counter()
    try:
        while time.perf_counter() - t0 < seconds:
            if kind == "count":
                lat, lng = points[rng.randrange(len(points))]
                request = QueryRequest(kind="count", lat=lat, lng=lng)
            else:
                request = QueryRequest(kind="top_cells", k=10)
            if not isinstance(await client.request(request), QueryResponse):
                raise RuntimeError(f"a {kind} query failed")
            n += 1
        return n / (time.perf_counter() - t0)
    finally:
        await client.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]

    _, test = w.corpus_slice(serve.POPULATION)
    traces = [test[u] for u in w.protected_ids(test, serve.STREAM_USERS)]
    frames = serve.make_frames(traces, args.seed, int(run_seconds * serve.FRAME_RATE))
    points = [(float(t.lats[i]), float(t.lngs[i])) for t in traces for i in range(len(t))]
    rng = random.Random(args.seed)

    child = serve.Child(trace=False)
    try:
        drain = serve.Replay(frames, run_seconds, args.seed, points)
        asyncio.run(drain.drain(child.port))
        count = asyncio.run(queries_per_s(child.port, "count", args.seconds, points, rng))
        top = asyncio.run(queries_per_s(child.port, "top_cells", args.seconds, points, rng))
    except BaseException:
        child.kill()
        raise
    child.stop()

    top_share = 1.0 / serve.TOP_CELLS_EVERY
    mixed = 1.0 / ((1.0 - top_share) / count + top_share / top)
    frames_per_s = len(frames) / drain.wall_s
    out: Dict[str, Any] = {
        "stream_frames_per_s": frames_per_s,
        "stream_records_per_s": drain.records_acked / drain.wall_s,
        "offered_frames_share": serve.FRAME_RATE / frames_per_s,
        "count_per_s": count,
        "top_cells_per_s": top,
        "mixed_queries_per_s": mixed,
        "offered_queries_share": serve.QUERY_RATE / mixed,
        "top_cells_service_share": (top_share / top) / (1.0 / mixed),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
