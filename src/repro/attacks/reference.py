"""Scalar reference implementations of the attack and HMC kernels.

The vectorised hot paths (:meth:`ApAttack.rank`'s zero-copy Topsoe
kernel, :meth:`PoiAttack.rank`'s packed pairwise kernel, and HMC's
kernel-based target selection and per-cell materialisation) replaced
straightforward implementations that are easy to audit against the
papers.  Those originals live on here, byte-for-byte, as the ground
truth for:

* the equivalence property tests (``tests/test_equivalence.py``) — the
  fast kernels must reproduce these rankings *exactly*, including
  tie-break order, on randomised traces, and HMC must pick the same
  target and publish the same bytes;
* the micro-benchmarks (``benchmarks/bench_micro.py`` and
  ``python -m repro bench``) — the committed ``BENCH_*.json`` speedups
  are measured against these functions, not against a remembered
  number.

They take a *fitted* attack (or HMC) and reuse its profiles, so
reference and fast path see identical training state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.ap_attack import ApAttack, _topsoe_rows
from repro.attacks.poi_attack import PoiAttack
from repro.core.trace import Trace
from repro.errors import ConfigurationError, NotFittedError
from repro.geo.grid import Cell
from repro.lppm.hmc import HeatmapConfusion, heatmap_divergence
from repro.poi.clustering import POI
from repro.poi.heatmap import Heatmap, build_heatmap

__all__ = [
    "ap_rank_reference",
    "hmc_apply_reference",
    "hmc_select_target_reference",
    "poi_set_distance_reference",
    "poi_rank_reference",
    "rankings_equivalent",
]


def rankings_equivalent(
    fast: Sequence[Tuple[str, float]],
    reference: Sequence[Tuple[str, float]],
    tol: float = 1e-9,
) -> bool:
    """True iff two rankings agree up to floating-point-degenerate ties.

    The fast kernels reorder floating-point sums, so a pair of users
    whose distances are *mathematically equal* can carry different
    last-ulp noise in the two implementations — the scalar reference
    then breaks the "tie" by that noise, while the vectorised kernel
    breaks the exact tie by user id.  Equivalence therefore means:

    * the same candidate set with distances equal within *tol* (relative);
    * identical order everywhere the reference's distance gaps exceed
      *tol* — i.e. wherever the ranking carries information, it is the
      same ranking; inside a tie group the ordering is permutable.
    """
    if len(fast) != len(reference):
        return False
    fast_by_user = dict(fast)
    if len(fast_by_user) != len(fast) or set(fast_by_user) != {
        u for u, _ in reference
    }:
        return False
    for user, dist in reference:
        if not abs(fast_by_user[user] - dist) <= tol * (1.0 + abs(dist)):
            return False
    fast_users = [u for u, _ in fast]
    i = 0
    while i < len(reference):
        j = i + 1
        while (
            j < len(reference)
            and reference[j][1] - reference[j - 1][1]
            <= tol * (1.0 + abs(reference[j][1]))
        ):
            j += 1
        if set(fast_users[i:j]) != {u for u, _ in reference[i:j]}:
            return False
        i = j
    return True


def ap_rank_reference(attack: ApAttack, trace: Trace) -> List[Tuple[str, float]]:
    """The original :meth:`ApAttack.rank`: pad the profile matrix with the
    anonymous trace's out-of-vocabulary cells and run the dense Topsoe
    kernel over the full ``(users × width)`` copy."""
    attack._require_fitted()
    kernel = attack._kernel
    if len(trace) == 0 or not kernel.users:
        return []
    anon = build_heatmap(trace, attack.grid)
    n_known = len(kernel.cell_index)
    extra: Dict[Cell, int] = {}
    for cell in anon.cells():
        if cell not in kernel.cell_index:
            extra.setdefault(cell, n_known + len(extra))
    width = n_known + len(extra)
    q = np.zeros(width, dtype=np.float64)
    for cell, mass in anon.items():
        q[kernel.cell_index.get(cell, extra.get(cell))] = mass
    p = np.zeros((len(kernel.users), width), dtype=np.float64)
    p[:, :n_known] = kernel.matrix
    divergences = _topsoe_rows(p, q)
    order = np.argsort(divergences, kind="stable")
    return [(kernel.users[i], float(divergences[i])) for i in order]


def hmc_select_target_reference(
    hmc: HeatmapConfusion, trace: Trace
) -> Tuple[str, Heatmap]:
    """The original :meth:`HeatmapConfusion.select_target`: one scalar
    :func:`heatmap_divergence` per pooled user, in sorted-id order, the
    first strict minimum wins."""
    if not hmc._profiles:
        raise NotFittedError("call HeatmapConfusion.fit() before apply()")
    own = build_heatmap(trace, hmc.grid)
    best_user: Optional[str] = None
    best_div = math.inf
    for user_id in sorted(hmc._profiles):
        if user_id == trace.user_id:
            continue
        div = heatmap_divergence(own, hmc._profiles[user_id])
        if div < best_div:
            best_div = div
            best_user = user_id
    if best_user is None:
        raise ConfigurationError(
            f"no candidate target profile for user {trace.user_id!r}"
        )
    return (best_user, hmc._profiles[best_user])


def hmc_apply_reference(hmc: HeatmapConfusion, trace: Trace) -> Trace:
    """The original :meth:`HeatmapConfusion.apply`: a per-record loop
    with :meth:`MetricGrid.cell_of` and a per-cell mapping memo, on the
    target of :func:`hmc_select_target_reference`."""
    if len(trace) == 0:
        return trace
    _, target = hmc_select_target_reference(hmc, trace)
    target_cells = target.cells()
    tc_centers = np.array([hmc.grid.center_of(c) for c in target_cells])
    tc_bonus = hmc.popularity_weight * np.log10(
        np.array([target.mass(c) for c in target_cells]) + 1e-12
    )
    mapping: Dict[Cell, Cell] = {}
    new_lats = np.array(trace.lats, copy=True)
    new_lngs = np.array(trace.lngs, copy=True)
    for i in range(len(trace)):
        src = hmc.grid.cell_of(float(trace.lats[i]), float(trace.lngs[i]))
        dst = mapping.get(src)
        if dst is None:
            dst = hmc._best_cell(src, target_cells, tc_centers, tc_bonus)
            mapping[src] = dst
        if dst != src:
            src_lat, src_lng = hmc.grid.center_of(src)
            dst_lat, dst_lng = hmc.grid.center_of(dst)
            new_lats[i] += dst_lat - src_lat
            new_lngs[i] += dst_lng - src_lng
    return trace.with_positions(
        np.clip(new_lats, -90.0, 90.0),
        (new_lngs + 540.0) % 360.0 - 180.0,
    )


def _directed_distance_reference(a: Sequence[POI], b: Sequence[POI]) -> float:
    """Weighted mean over *a* of the distance to the nearest POI of *b*."""
    total_w = 0.0
    acc = 0.0
    for poi in a:
        nearest = min(poi.distance_m(other) for other in b)
        acc += poi.weight * nearest
        total_w += poi.weight
    return acc / total_w if total_w > 0 else math.inf


def poi_set_distance_reference(a: Sequence[POI], b: Sequence[POI]) -> float:
    """The original pure-Python symmetrised nearest-neighbour distance."""
    if not a or not b:
        return math.inf
    return 0.5 * (
        _directed_distance_reference(a, b) + _directed_distance_reference(b, a)
    )


def poi_rank_reference(attack: PoiAttack, trace: Trace) -> List[Tuple[str, float]]:
    """The original :meth:`PoiAttack.rank`: one scalar set distance per
    profiled user, then a ``(distance, user)`` sort."""
    attack._require_fitted()
    anon = attack._extract(trace)
    if not anon:
        return []
    scored = [
        (user, poi_set_distance_reference(anon, profile))
        for user, profile in attack._profiles.items()
    ]
    scored = [(u, d) for u, d in scored if math.isfinite(d)]
    scored.sort(key=lambda ud: (ud[1], ud[0]))
    return scored
