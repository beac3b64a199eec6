"""The ``publish-pop*`` workloads: closed-loop batch protection.

One pass is ``ProtectionEngine.protect_dataset(daily=True)`` over the
protected users' test days, with the feature cache emptied first so every
pass does the work of a fresh batch.  Passes repeat while another one
fits in ``seconds`` (at least ``MIN_PASSES``); throughput is taken from the
median pass; a user's latency is the time its ``protect_daily`` call
takes inside the pass.  The calibration kernel (:mod:`calibrate`) runs
before every user; each pass time is scaled to the reference host speed
by the kernel times of its own pass, and the kernel time is not counted
in the pass.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Dict, List, Tuple

import workload as w
from calibrate import Calibrator, timed_setup
from repro.core.dataset import MobilityDataset
from spans import Tracer

MIN_PASSES = 3


def _passes(
    engine: Any, users: MobilityDataset, seconds: float, rng: random.Random
) -> Tuple[List[float], List[float], Any, List[str]]:
    """Timed passes: ``(scaled pass times, unscaled pass times,
    per-user latencies, last report, per-pass published-pieces
    digests)``; neither pass time counts the kernel's time."""
    latencies: List[float] = []
    protect_daily = engine.protect_daily
    calib = Calibrator()

    def timed_user(trace: Any, **kwargs: Any) -> Any:
        calib.probe()
        t0 = time.perf_counter()
        result = protect_daily(trace, **kwargs)
        latencies.append(time.perf_counter() - t0)
        return result

    engine.protect_daily = timed_user
    walls: List[float] = []
    work: List[float] = []
    elapsed: List[float] = []
    digests: List[str] = []
    report = None
    ids = users.user_ids()
    started = time.perf_counter()
    try:
        # Stop before a pass that would end after ``seconds``.
        while len(walls) < MIN_PASSES or (
            time.perf_counter() - started + statistics.median(elapsed) <= seconds
        ):
            rng.shuffle(ids)
            batch = users.subset(ids, name=users.name)
            engine.feature_cache.clear()
            gc.collect()
            calib.samples.clear()
            t0 = time.perf_counter()
            report = engine.protect_dataset(batch, daily=True)
            elapsed.append(time.perf_counter() - t0)
            work.append(elapsed[-1] - calib.spent_s)
            walls.append(work[-1] * calib.scale())
            digests.append(
                w.pieces_digest(
                    (p.pseudonym, p.mechanism, p.published)
                    for uid in sorted(report.results)
                    for p in report.results[uid].pieces
                )
            )
    finally:
        engine.protect_daily = protect_daily
    return walls, work, latencies, report, digests


def _check_outputs(checks: w.Checks, engine: Any, report: Any, digests: List[str]) -> None:
    records_in = erased = covered = 0
    for result in report.results.values():
        records_in += result.original_records
        erased += result.erased_records
        covered += sum(len(p.original) for p in result.pieces)
    checks.check(
        "records_conserved",
        covered + erased == records_in,
        f"published {covered} + erased {erased} != input {records_in}",
    )
    checks.check(
        "passes_identical", len(set(digests)) == 1, "passes published different bytes"
    )
    w.check_not_reidentified(
        checks,
        engine.attacks,
        (
            (p.original_user, p.published)
            for result in report.results.values()
            for p in result.pieces
        ),
    )


def _summary(report: Any) -> Dict[str, float]:
    records_in = erased = 0
    weighted = published = 0.0
    for result in report.results.values():
        records_in += result.original_records
        erased += result.erased_records
        for p in result.pieces:
            weighted += p.distortion_m * len(p.published)
            published += len(p.published)
    return {
        "records_in": float(records_in),
        "data_loss_pct": 100.0 * erased / records_in,
        "distortion_m": weighted / published if published else 0.0,
    }


def _set_up(population: int) -> Tuple[MobilityDataset, MobilityDataset, Any]:
    train, test = w.corpus_slice(population)
    return train, test, w.build_engine(train)


def run(population: int, seed: int, seconds: float, trace: bool, users: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    checks = w.Checks()
    ledger = w.OpLedger()
    setup_times: List[float] = []
    while not setup_times or (not trace and w.more_setups(setup_times)):
        # Drop the previous repeat's engine first: the process never
        # holds two fitted engines, so they cannot both count in its
        # peak RSS.
        engine = train = test = None
        gc.collect()
        (train, test, engine), setup_s = timed_setup(_set_up, population)
        setup_times.append(setup_s)
    protected = test.subset(w.protected_ids(test, users), name="protected")
    records = protected.record_count()

    walls, _, latencies, report, digests = _passes(engine, protected, seconds, rng)
    # Taken before the output checks, which are the benchmark's work.
    peak_rss_mib = w.peak_rss_mib()
    for _ in latencies:
        ledger.record("protect_user", True)
    _check_outputs(checks, engine, report, digests)
    users_per_s = len(protected) / statistics.median(walls)
    ack_p50_ms = 1000.0 * statistics.median(latencies)
    detail: Dict[str, Any] = {
        "passes": len(walls),
        "pass_scaled_s": walls,
        "user_samples": len(latencies),
        "published_digest": digests[-1],
        "ack_p50_ms": ack_p50_ms,
        "ack_p99_ms": 1000.0 * w.quantile(latencies, 0.99),
        **_summary(report),
    }

    if not trace:
        metrics = {
            "users_per_s": (users_per_s, "users/s"),
            "records_per_s": (records / statistics.median(walls), "records/s"),
            "distortion_m": (detail["distortion_m"], "m"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        return {"checks": checks, "ledger": ledger, "metrics": metrics, "detail": detail}

    # Traced leg: a second, instrumented set-up and the same passes.
    tracer = Tracer()
    try:
        train, test = tracer.wrap("setup.corpus", w.corpus_slice)(population)
        traced_engine = w.build_engine(train, tracer)
        setup = tracer.summary()
        tracer.spans.clear()
        t_walls, t_work, t_latencies, _, t_digests = _passes(
            traced_engine, test.subset(protected.user_ids()), seconds, rng
        )
    finally:
        w.restore_engine_module()
    for _ in t_latencies:
        ledger.record("protect_user", True)
    checks.check(
        "traced_bytes_identical",
        set(t_digests) == set(digests),
        "tracing changed the published bytes",
    )
    # The cache is emptied before every pass, so its counters cover the
    # last traced pass only.
    stats = traced_engine.feature_cache.stats()
    lookups = stats["hits"] + stats["misses"]
    traced = {
        "wall_s": sum(t_work),
        "passes": len(t_walls),
        "summary": tracer.summary(),
        "counters": dict(tracer.counters),
        "setup": setup,
        "evaluations": float(traced_engine.evaluations),
        "feature_cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "feature_cache.evictions": float(stats["evictions"]),
        "users_per_s_delta": users_per_s - len(protected) / statistics.median(t_walls),
        "ack_p50_ms_delta": ack_p50_ms - 1000.0 * statistics.median(t_latencies),
        "nesting_errors": tracer.nesting_errors(),
    }
    return {"checks": checks, "ledger": ledger, "traced": traced, "detail": detail}
