"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload publish-pop64 --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``publish-pop64`` / ``publish-pop512`` — closed-loop batch protection
  of the same protected users against a 64- or 512-user background;
* ``serve-stream`` — a live service fed by an open-loop stream replay
  and a query load over loopback TCP.

With ``--trace 0`` the last stdout line carries every end-to-end metric
of ``BENCHMARK.json``; with ``--trace 1`` an untraced and a traced leg
run back to back and it carries every per-layer metric (layers a
workload does not exercise read 0).  The line before it is a ``detail``
object: output digest, per-operation accounting, sample counts, data
loss and failed share.  Every run checks its outputs and reports
``"correct": false`` when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: workload -> (kind, background population)
WORKLOADS = {
    "publish-pop64": ("publish", 64),
    "publish-pop512": ("publish", 512),
    "serve-stream": ("serve", 64),
}

#: Per-layer share groups: share.<group> = summed self time / wall time.
#: The service's request-handler spans are left out: requests are
#: handled concurrently on the event loop and mostly wait, so their sum
#: is no share of wall time (``service.*.wait_s`` reports it instead).
SHARE_GROUPS = {
    "lppm": "lppm.",
    "attacks": "attack.",
    "engine": "engine.",
    "split": "split",
    "metrics": "distortion",
    "proxy": "proxy.",
    "stream": "stream.",
    "collection": "collection.",
    "codec": "codec.",
}
#: ROADMAP's cProfile share of HeatmapConfusion.select_target in
#: protect_dataset wall time.
ROADMAP_HMC_SHARE = 0.83


def layer_metrics(
    traced: Dict[str, Any], detail: Dict[str, Any]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: layer spans and counters from the traced
    leg, plus the untraced leg's latencies and data loss (reported here,
    without a bound, because their run-to-run spread is too wide to gate
    on; see ``perfbench/README.md``)."""
    summary = traced["summary"]
    counters = traced["counters"]
    setup = traced["setup"]

    def row(name: str) -> Dict[str, float]:
        return summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    out: Dict[str, Tuple[float, str]] = {}
    for lppm in ("geoi", "trl", "hmc"):
        out[f"lppm.{lppm}.apply.calls"] = (row(f"lppm.{lppm}.apply")["calls"], "count")
        out[f"lppm.{lppm}.apply.busy_s"] = (row(f"lppm.{lppm}.apply")["busy_s"], "s")
    out["lppm.hmc.select_target.busy_s"] = (row("lppm.hmc.select_target")["busy_s"], "s")
    for attack in ("poi", "pit", "ap"):
        out[f"attack.{attack}.top1.calls"] = (row(f"attack.{attack}.top1")["calls"], "count")
        out[f"attack.{attack}.top1.busy_s"] = (row(f"attack.{attack}.top1")["busy_s"], "s")
    verdicts = row("engine.is_protected")["calls"]
    out["engine.evaluations"] = (traced["evaluations"], "count")
    out["engine.search.calls"] = (row("engine.search")["calls"], "count")
    out["engine.search.self_s"] = (row("engine.search")["self_s"], "s")
    out["engine.protect.self_s"] = (row("engine.protect")["self_s"], "s")
    out["search.protecting_ratio"] = (
        counters.get("search.protecting", 0) / verdicts if verdicts else 0.0, "ratio"
    )
    out["split.calls"] = (row("split")["calls"], "count")
    out["split.busy_s"] = (row("split")["busy_s"], "s")
    out["split.daily_chunks"] = (counters.get("split.daily_chunks", 0), "count")
    out["distortion.calls"] = (row("distortion")["calls"], "count")
    out["distortion.busy_s"] = (row("distortion")["busy_s"], "s")
    out["feature_cache.hit_ratio"] = (traced["feature_cache.hit_ratio"], "ratio")
    out["feature_cache.evictions"] = (traced["feature_cache.evictions"], "count")
    out["codec.decode.busy_s"] = (row("codec.decode")["busy_s"], "s")
    out["codec.encode.busy_s"] = (row("codec.encode")["busy_s"], "s")
    out["codec.bytes_in"] = (counters.get("codec.bytes_in", 0), "bytes")
    out["codec.bytes_out"] = (counters.get("codec.bytes_out", 0), "bytes")
    for verb, body in (("stream_record", "stream.ingest"), ("query", "collection.query")):
        handled = row(f"service.{verb}")["busy_s"]
        out[f"service.{verb}.busy_s"] = (handled, "s")
        # Handle span minus the body: state-lock wait plus pool wait.
        out[f"service.{verb}.wait_s"] = (max(0.0, handled - row(body)["busy_s"]), "s")
    out["proxy.protect_chunk.calls"] = (row("proxy.protect_chunk")["calls"], "count")
    out["proxy.protect_chunk.busy_s"] = (row("proxy.protect_chunk")["busy_s"], "s")
    out["stream.ingest.calls"] = (row("stream.ingest")["calls"], "count")
    out["stream.ingest.self_s"] = (row("stream.ingest")["self_s"], "s")
    out["stream.windows_closed"] = (counters.get("stream.windows_closed", 0), "count")
    out["collection.receive.busy_s"] = (row("collection.receive")["busy_s"], "s")
    out["collection.query.busy_s"] = (row("collection.query")["busy_s"], "s")
    out["rpc.transport_ms"] = (traced.get("rpc.transport_ms", 0.0), "ms")
    out["setup.corpus_s"] = (setup.get("setup.corpus", {}).get("busy_s", 0.0), "s")
    for component in ("poi", "pit", "ap", "hmc"):
        fit = setup.get(f"setup.fit.{component}", {}).get("busy_s", 0.0)
        out[f"setup.fit.{component}_s"] = (fit, "s")
    for name in ("ack_p50_ms", "ack_p99_ms", "query_p50_ms", "query_p99_ms", "data_loss_pct"):
        unit = "%" if name == "data_loss_pct" else "ms"
        out[name] = (detail.get(name, 0.0), unit)
    out["loadgen.lateness_p99_ms"] = (traced.get("loadgen.lateness_p99_ms", 0.0), "ms")
    out["loadgen.ops_attempted"] = (traced.get("loadgen.ops_attempted", 0.0), "count")
    out["tracing.users_per_s_delta"] = (traced["users_per_s_delta"], "users/s")
    out["tracing.ack_p50_ms_delta"] = (traced["ack_p50_ms_delta"], "ms")
    wall = traced["wall_s"]
    out["traced.wall_s"] = (wall, "s")
    for group, prefix in SHARE_GROUPS.items():
        self_s = sum(r["self_s"] for name, r in summary.items() if name.startswith(prefix))
        out[f"share.{group}"] = (self_s / wall, "ratio")
    out["share.hmc"] = (row("lppm.hmc.apply")["busy_s"] / wall, "ratio")
    out["share.hmc.select_target"] = (row("lppm.hmc.select_target")["busy_s"] / wall, "ratio")
    return out


def declared(kind: str) -> Dict[str, str]:
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--users", type=int, default=None,
        help="protected users (default: 16 for publish-*, 40 for serve-stream)",
    )
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, HERE)
    import workload as w  # noqa: E402  (exits without the program source)

    kind, population = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if kind == "publish":
        import publish

        users = w.PROTECTED_USERS if args.users is None else args.users
        out = publish.run(population, args.seed, args.seconds, trace, users)
    else:
        import serve

        out = serve.run(args.seed, args.seconds, trace, args.users)

    checks, ledger, detail = out["checks"], out["ledger"], out["detail"]
    if trace:
        metrics = layer_metrics(out["traced"], out["detail"])
        metrics["failed_share"] = (ledger.failed / ledger.attempted, "ratio")
        nesting = out["traced"]["nesting_errors"]
        checks.check("spans_nest", not nesting, "; ".join(nesting[:3]))
        expected = declared("per_layer")
    else:
        metrics = out["metrics"]
        expected = declared("end_to_end")
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    wrong_unit = sorted(n for n in expected if n in metrics and metrics[n][1] != expected[n])
    if missing or extra or wrong_unit:
        print(f"perfbench: metrics disagree with BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}, unit {wrong_unit}", file=sys.stderr)
        return 1
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"perfbench: metric {name} is not finite: {value}", file=sys.stderr)
            return 1

    detail["ops"] = ledger.ops
    detail["failed_share"] = ledger.failed / ledger.attempted
    detail["checks"] = checks.results
    if checks.notes:
        detail["check_failures"] = checks.notes[:20]
    print(json.dumps({"detail": detail}, sort_keys=True))
    if trace:
        wall = metrics["traced.wall_s"][0]
        for group in SHARE_GROUPS:
            print(f"share of traced wall {wall:.2f}s  {group:<10} "
                  f"{100.0 * metrics['share.' + group][0]:6.2f}%")
        if args.workload == "publish-pop512":
            share = metrics["share.hmc.select_target"][0]
            verdict = "agrees" if abs(share - ROADMAP_HMC_SHARE) <= 0.10 else "disagrees"
            print(f"HMC select_target share {100.0 * share:.1f}% {verdict} with the "
                  f"ROADMAP cProfile finding (~{100.0 * ROADMAP_HMC_SHARE:.0f}%, +-10 pts)")
    result = {
        "correct": checks.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
