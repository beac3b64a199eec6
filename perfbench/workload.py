"""Inputs, engine instrumentation, output checks and statistics shared by
every workload of the benchmark.

All workloads read the same Lyon ``repro.synth`` corpus: the first
*population* users, fitted on ``TRAIN_DAYS`` days of background, with
the ``TEST_DAYS`` days that follow as the data to protect.  The engine is
built from the default :class:`~repro.config.ProtectionConfig`
(geoi/trl/hmc against poi/pit/ap, serial executor, seed 0); the
benchmark seed never reaches the engine, it only orders and shapes the
load, so every seed publishes the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Put the checkout's ``src`` on the path; fail loudly without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


import_program()

from repro.config import ProtectionConfig  # noqa: E402
from repro.core.dataset import MobilityDataset  # noqa: E402
from repro.core.split import train_test_split  # noqa: E402
from repro.registry import build  # noqa: E402
from repro.synth import CorpusSpec, SynthCorpus  # noqa: E402

from spans import Tracer  # noqa: E402

CITY = "lyon"
CORPUS_SEED = 0
TRAIN_DAYS = 3
TEST_DAYS = 4
#: The users whose test days every workload protects (the first ones,
#: by user id, of the corpus slice).
PROTECTED_USERS = 16
#: Set-up is repeated at least SETUP_REPEATS times, and while the repeats
#: so far took less than SETUP_BUDGET_S (at most SETUP_MAX times); the
#: median is reported.  A cheap set-up (~0.1 s) is noisy, so it gets more.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
SETUP_MAX = 15


def more_setups(times: List[float]) -> bool:
    return len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX
    )


# -- inputs -----------------------------------------------------------------


def corpus_slice(population: int) -> Tuple[MobilityDataset, MobilityDataset]:
    """``(background, test)`` for the first *population* corpus users."""
    spec = CorpusSpec(
        city=CITY, n_users=population, seed=CORPUS_SEED, days=TRAIN_DAYS + TEST_DAYS
    )
    corpus = SynthCorpus.from_spec(spec)
    full = MobilityDataset(spec.name, (corpus.trace(i) for i in range(population)))
    return train_test_split(full, train_days=TRAIN_DAYS, test_days=TEST_DAYS)


def protected_ids(test: MobilityDataset, limit: int = PROTECTED_USERS) -> List[str]:
    return sorted(test.user_ids())[:limit]


def slug(component: Any) -> str:
    return str(getattr(type(component), "registry_name", type(component).__name__))


def build_engine(background: MobilityDataset, tracer: Optional[Tracer] = None) -> Any:
    """A fitted engine from the default config.

    With a *tracer*, the split policy is a timing callable around the
    default one, each component's ``fit`` is timed as
    ``setup.fit.<component>``, and :func:`instrument_engine` wraps the
    per-evaluation layers.
    """
    from repro.core.engine import ProtectionEngine

    config = ProtectionConfig()
    if tracer is not None:
        config = dataclasses.replace(
            config,
            split_policy=tracer.wrap("split", build("split_policy", config.split_policy)),
        )
    engine = ProtectionEngine.from_config(config)
    if tracer is not None:
        for component in list(engine.attacks) + list(engine.lppms):
            if getattr(component, "fit", None) is not None:
                component.fit = tracer.wrap(f"setup.fit.{slug(component)}", component.fit)
        instrument_engine(engine, tracer)
    return engine.fit(background)


def instrument_engine(engine: Any, tracer: Tracer) -> None:
    """Wrap the instance methods the composition search calls, plus the
    two module functions the engine calls by global name (distortion and
    the daily chunking) and its attack-suite verdict (for the
    protecting ratio)."""
    import repro.core.engine as engine_module

    for lppm in engine.lppms:
        name = slug(lppm)
        lppm.apply = tracer.wrap(f"lppm.{name}.apply", lppm.apply)
        if hasattr(lppm, "select_target"):
            lppm.select_target = tracer.wrap(
                f"lppm.{name}.select_target", lppm.select_target
            )
    for attack in engine.attacks:
        attack.top1 = tracer.wrap(f"attack.{slug(attack)}.top1", attack.top1)
    engine.search_whole_trace = tracer.wrap("engine.search", engine.search_whole_trace)
    engine.protect = tracer.wrap("engine.protect", engine.protect)
    engine.protect_daily = tracer.wrap("engine.protect", engine.protect_daily)

    def count_protecting(verdict: bool) -> None:
        if verdict:
            tracer.count("search.protecting")

    def count_chunks(chunks: List[Any]) -> None:
        tracer.count("split.daily_chunks", len(chunks))

    engine_module.spatial_temporal_distortion = tracer.wrap(
        "distortion", engine_module.spatial_temporal_distortion
    )
    engine_module.is_protected = tracer.wrap(
        "engine.is_protected", engine_module.is_protected, on_result=count_protecting
    )
    engine_module.split_fixed_time = tracer.wrap(
        "split.daily", engine_module.split_fixed_time, on_result=count_chunks
    )


def restore_engine_module() -> None:
    """Undo the module-global wraps of :func:`instrument_engine`."""
    import repro.core.engine as engine_module
    from repro.core.split import split_fixed_time
    from repro.lppm.hybrid import is_protected
    from repro.metrics.distortion import spatial_temporal_distortion

    engine_module.spatial_temporal_distortion = spatial_temporal_distortion
    engine_module.is_protected = is_protected
    engine_module.split_fixed_time = split_fixed_time


# -- output checks ------------------------------------------------------------


class Checks:
    """Named pass/fail output checks; a run is correct only if all pass."""

    def __init__(self) -> None:
        self.results: Dict[str, bool] = {}
        self.notes: List[str] = []

    def check(self, name: str, ok: bool, why: str = "") -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)
        if not ok and why:
            self.notes.append(f"{name}: {why}")

    @property
    def correct(self) -> bool:
        return bool(self.results) and all(self.results.values())


def check_not_reidentified(
    checks: Checks, attacks: Sequence[Any], pieces: Iterable[Tuple[str, Any]]
) -> None:
    """No published trace may be linked back to its original user by any
    fitted attack; *pieces* yields ``(original_user, published_trace)``."""
    for user, published in pieces:
        for attack in attacks:
            guess = attack.reidentify(published)
            checks.check(
                "not_reidentified",
                guess != user,
                f"{attack.name} re-identified a piece of {user}",
            )


def pieces_digest(pieces: Iterable[Tuple[str, str, Any]]) -> str:
    """Digest of ``(pseudonym, mechanism, published_trace)`` in order."""
    digest = hashlib.blake2b(digest_size=16)
    for pseudonym, mechanism, trace in pieces:
        digest.update(pseudonym.encode("utf-8"))
        digest.update(b"\0")
        digest.update(mechanism.encode("utf-8"))
        digest.update(b"\0")
        digest.update(trace.fingerprint)
    return digest.hexdigest()


# -- statistics -----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpLedger:
    """Attempted / succeeded / failed per operation kind."""

    def __init__(self) -> None:
        self.ops: Dict[str, Dict[str, int]] = {}

    def record(self, op: str, ok: bool) -> None:
        row = self.ops.setdefault(op, {"attempted": 0, "succeeded": 0, "failed": 0})
        row["attempted"] += 1
        row["succeeded" if ok else "failed"] += 1

    def merge(self, other: "OpLedger") -> None:
        for op, counts in other.ops.items():
            row = self.ops.setdefault(op, {"attempted": 0, "succeeded": 0, "failed": 0})
            for key, n in counts.items():
                row[key] += n

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.ops.values())
