"""Heat-Map Confusion (HMC) LPPM [23].

HMC is an anti-re-identification mechanism mixing perturbation and dummy
generation: the user's trace is summarised as a heatmap (800 m cells in
the paper), the heatmap is *altered to resemble another user's* heatmap,
and the altered heatmap is materialised back into a mobility trace.

Implementation notes
--------------------
* The target profile is the **closest other user** by Topsoe divergence
  over the candidate pool (the protection side's own copy of users' past
  traces) — closeness keeps the spatial displacement, and therefore the
  utility loss, small, which is how the original paper obtains good
  utility.  The pool is scored in one pass of the
  :class:`~repro.poi.heatmap.HeatmapProfiles` kernel the AP-attack
  uses; the few candidates within :data:`NEAR_TIE` of the minimum are
  then re-scored with the scalar :func:`heatmap_divergence`, so the
  choice and its smallest-user-id tie-break are exactly those of a
  scalar scan over the sorted pool.
* Materialisation maps each source **cell** to a cell of the target's
  support chosen by a *mass-aware nearest* rule (distance minus a bonus
  for the target's popular cells), moving all of a cell's records
  together and preserving each record's within-cell offset and
  timestamp.  The popularity bonus reshapes the obfuscated heatmap
  toward the target's distribution even when the two users' supports
  overlap (crucial for homogeneous fleets like Cabspotting), while the
  per-cell, offset-preserving move keeps dwell clusters intact — so
  fine-grained 200 m POIs may survive.  That combination reproduces the
  paper's observation that HMC is the strongest single LPPM against
  AP-attack (Figure 6) yet noticeably weaker against POI/PIT attacks
  (Figure 7).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.errors import ConfigurationError, NotFittedError
from repro.geo.grid import Cell, MetricGrid
from repro.lppm.base import LPPM, coerce_rng
from repro.registry import register_lppm
from repro.metrics.divergence import kl_divergence, topsoe
from repro.poi.heatmap import Heatmap, HeatmapProfiles, build_heatmap
from repro.rng import SeedLike

#: Kernel divergences within this of the minimum are re-scored exactly.
#: The kernel sums in a different order than the scalar path; their
#: difference is a few ulps (measured ≤ 1.6e-15 on Topsoe values in
#: ``[0, 2 ln 2]``), so every user the scalar scan could pick is inside.
NEAR_TIE = 1e-9


def heatmap_divergence(a: Heatmap, b: Heatmap) -> float:
    """Topsoe divergence between two heatmaps aligned on their union support."""
    cells = sorted(a.support() | b.support())
    p = np.array([a.mass(c) for c in cells])
    q = np.array([b.mass(c) for c in cells])
    return topsoe(p, q)


def _self_kl(hm: Heatmap) -> float:
    """``KL(p ‖ p/2)`` over *hm*'s masses in sorted-cell order.

    Against a heatmap it shares no cell with, :func:`heatmap_divergence`
    reduces to ``2·(½·own + ½·other)`` of these terms, bit for bit: the
    union alignment puts a zero opposite each mass, so each side's KL
    term sums ``p·ln(p / (p/2))`` over its own cells in sorted order.
    """
    p = np.array([mass for _, mass in hm.items()])
    return kl_divergence(p, 0.5 * p)


@register_lppm("hmc")
class HeatmapConfusion(LPPM):
    """Alter a trace's heatmap to impersonate the closest other user."""

    name = "HMC"

    def __init__(
        self,
        cell_size_m: float = 800.0,
        ref_lat: float = 45.0,
        popularity_weight: float = 1.0,
    ) -> None:
        if cell_size_m <= 0:
            raise ConfigurationError(f"cell_size_m must be positive, got {cell_size_m}")
        if popularity_weight < 0:
            raise ConfigurationError(
                f"popularity_weight must be >= 0, got {popularity_weight}"
            )
        self.grid = MetricGrid(cell_size_m, ref_lat=ref_lat)
        #: Strength of the bias toward the target's heavy cells, in cell
        #: units per decade of mass.  0 recovers pure nearest-cell mapping.
        self.popularity_weight = float(popularity_weight)
        self._profiles: Dict[str, Heatmap] = {}
        self._kernel: Optional[HeatmapProfiles] = None
        self._profile_kl: Dict[str, float] = {}

    # -- training --------------------------------------------------------

    def fit(self, past_traces: MobilityDataset) -> "HeatmapConfusion":
        """Learn the candidate target profiles from users' past traces."""
        profiles: Dict[str, Heatmap] = {}
        for trace in past_traces.traces():
            if len(trace) == 0:
                continue
            profiles[trace.user_id] = build_heatmap(trace, self.grid)
        if len(profiles) < 2:
            raise ConfigurationError(
                "HMC needs past traces of at least two users to confuse between"
            )
        self._profiles = profiles
        self._kernel = HeatmapProfiles(profiles)
        self._profile_kl = {user: _self_kl(hm) for user, hm in profiles.items()}
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._profiles)

    # -- target selection ----------------------------------------------------

    def select_target(self, trace: Trace) -> Tuple[str, Heatmap]:
        """Closest other-user profile by Topsoe divergence.

        Ties go to the smallest user id.  The kernel scores the whole
        pool at once; only candidates within :data:`NEAR_TIE` of its
        minimum are compared with the exact scalar divergence, in
        sorted-id order with a strict ``<``.  A trace sharing no cell
        with the pool ties every user at ``2 ln 2``; those exact values
        come from the fit-time :func:`_self_kl` terms, not one scalar
        divergence per user.
        """
        kernel = self._kernel
        if kernel is None:
            raise NotFittedError("call HeatmapConfusion.fit() before apply()")
        own = build_heatmap(trace, self.grid)
        div = kernel.divergences(own)
        row = kernel.row_of(trace.user_id)
        if row is not None:
            div[row] = math.inf
        lowest = float(div.min())
        if lowest == math.inf:
            raise ConfigurationError(
                f"no candidate target profile for user {trace.user_id!r}"
            )
        near = np.flatnonzero(div <= lowest + NEAR_TIE)
        best_user = kernel.users[int(near[0])]
        if len(near) > 1:
            own_cells = own.support()
            own_kl = _self_kl(own)
            best_div = math.inf
            for i in near:
                user_id = kernel.users[int(i)]
                profile = self._profiles[user_id]
                if own_cells.isdisjoint(profile.cells()):
                    exact = 2.0 * (0.5 * own_kl + 0.5 * self._profile_kl[user_id])
                else:
                    exact = heatmap_divergence(own, profile)
                if exact < best_div:
                    best_div = exact
                    best_user = user_id
        return (best_user, self._profiles[best_user])

    # -- obfuscation ------------------------------------------------------------

    def apply(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        if len(trace) == 0:
            return trace
        _, target = self.select_target(trace)
        target_cells = target.cells()
        tc_centers = np.array([self.grid.center_of(c) for c in target_cells])
        tc_bonus = self.popularity_weight * np.log10(
            np.array([target.mass(c) for c in target_cells]) + 1e-12
        )
        # Every record's source cell by MetricGrid.cell_of's floor
        # formula, kept in floats as a complex key (column + row·i) for
        # a 1-D unique: ``int()`` of a distinct key's parts then matches
        # ``math.floor`` exactly, non-finite input included.
        grid = self.grid
        keys = np.empty(len(trace), dtype=np.complex128)
        keys.real = np.floor(trace.lngs * grid._m_per_deg_lng / grid.cell_size_m)
        keys.imag = np.floor(trace.lats * grid._m_per_deg_lat / grid.cell_size_m)
        cells, inverse = np.unique(keys, return_inverse=True)
        # Map each distinct source cell to its best target cell once:
        # geometric proximity discounted by the target cell's popularity.
        d_lat = np.zeros(len(cells))
        d_lng = np.zeros(len(cells))
        moved = np.zeros(len(cells), dtype=bool)
        for k, key in enumerate(cells.tolist()):
            src = Cell(int(key.real), int(key.imag))
            dst = self._best_cell(src, target_cells, tc_centers, tc_bonus)
            if dst != src:
                src_lat, src_lng = grid.center_of(src)
                dst_lat, dst_lng = grid.center_of(dst)
                d_lat[k] = dst_lat - src_lat
                d_lng[k] = dst_lng - src_lng
                moved[k] = True
        # Shift only the records of moved cells: an unmoved coordinate
        # keeps its exact bytes (``-0.0 + 0.0`` would be ``+0.0``).
        on = moved[inverse]
        new_lats = np.array(trace.lats, copy=True)
        new_lngs = np.array(trace.lngs, copy=True)
        new_lats[on] += d_lat[inverse[on]]
        new_lngs[on] += d_lng[inverse[on]]
        return trace.with_positions(
            np.clip(new_lats, -90.0, 90.0),
            (new_lngs + 540.0) % 360.0 - 180.0,
        )

    def _best_cell(
        self,
        src: Cell,
        candidates: List[Cell],
        centers: np.ndarray,
        bonus: np.ndarray,
    ) -> Cell:
        """Mass-aware nearest cell: minimise distance − popularity bonus.

        Distances are measured in cell units so the popularity weight has
        a grid-independent meaning ("how many cells of detour a decade of
        target mass is worth").
        """
        src_lat, src_lng = self.grid.center_of(src)
        cos_ref = math.cos(math.radians(self.grid.ref_lat))
        m_per_deg = 111_320.0
        d_cells = (
            np.hypot(
                (centers[:, 0] - src_lat) * m_per_deg,
                (centers[:, 1] - src_lng) * m_per_deg * cos_ref,
            )
            / self.grid.cell_size_m
        )
        return candidates[int(np.argmin(d_cells - bonus))]

    def __repr__(self) -> str:
        return (
            f"HeatmapConfusion(cell_size_m={self.grid.cell_size_m}, "
            f"profiles={len(self._profiles)})"
        )
