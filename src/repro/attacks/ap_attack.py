"""AP-attack [22] (Maouche et al.): heatmap matching with Topsoe divergence.

The strongest known re-identification attack in the paper's evaluation.
Each user's past mobility is aggregated into an 800 m-cell heatmap; an
anonymous trace is attributed to the known user whose heatmap minimises
the Topsoe divergence.

Every candidate composition of MooD's search is attacked, so the
comparison runs on the zero-copy Topsoe kernel of
:class:`~repro.poi.heatmap.HeatmapProfiles` (shared with the HMC LPPM's
target selection): the anonymous distribution is scored against all
stored profiles on the columns it actually visits, plus a closed-form
correction for the rest.

:meth:`ApAttack.top1` skips even the final sort: the ``is_protected``
inner loop needs one argmin, not a ranking.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.registry import register_attack
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.geo.grid import MetricGrid
from repro.poi.heatmap import Heatmap, HeatmapProfiles, build_heatmap

_EPS = 1e-12


@register_attack("ap")
class ApAttack(Attack):
    """Re-identification by heatmap similarity."""

    name = "AP-attack"

    def __init__(self, cell_size_m: float = 800.0, ref_lat: float = 45.0) -> None:
        super().__init__()
        self.grid = MetricGrid(cell_size_m, ref_lat=ref_lat)
        self._kernel = HeatmapProfiles({})

    def _build_profiles(self, background: MobilityDataset) -> None:
        self._kernel = HeatmapProfiles(
            {
                trace.user_id: self._heatmap(trace)
                for trace in background.traces()
                if len(trace) > 0
            }
        )

    supports_refit = True

    def refit(self, delta: MobilityDataset) -> "ApAttack":
        """Replace the profiles of *delta*'s users in the fitted state.

        The kernel updates in place (:meth:`HeatmapProfiles.refit`):
        every divergence is bit-identical to a fresh :meth:`fit` on the
        updated background, and users whose delta trace is empty are
        dropped.
        """
        self._require_fitted()
        self._kernel.refit(
            {
                trace.user_id: self._heatmap(trace) if len(trace) > 0 else None
                for trace in delta.traces()
            }
        )
        return self

    @property
    def _users(self) -> List[str]:
        """Profiled user ids, sorted (the kernel's row order)."""
        return self._kernel.users

    @property
    def _matrix(self) -> np.ndarray:
        """The kernel's dense ``(users × cells)`` profile matrix."""
        return self._kernel.matrix

    def _heatmap(self, trace: Trace) -> Heatmap:
        return self._cached(
            "heatmap",
            trace,
            (self.grid.cell_size_m, self.grid.ref_lat),
            lambda: build_heatmap(trace, self.grid),
        )

    def profile_matrix(self) -> np.ndarray:
        """Copy of the (users × cells) profile matrix, for analysis."""
        self._require_fitted()
        return self._kernel.matrix.copy()

    def _divergences(self, trace: Trace) -> Optional[np.ndarray]:
        """Topsoe divergence of *trace* against every profile row.

        ``None`` when no hypothesis can be formed (empty trace or no
        profiles); otherwise one value per user of :attr:`_users`.
        """
        self._require_fitted()
        if len(trace) == 0 or not self._kernel.users:
            return None
        return self._kernel.divergences(self._heatmap(trace))

    def rank(self, trace: Trace) -> List[Tuple[str, float]]:
        divergences = self._divergences(trace)
        if divergences is None:
            return []
        order = np.argsort(divergences, kind="stable")
        return [(self._users[i], float(divergences[i])) for i in order]

    def top1(self, trace: Trace) -> Optional[Tuple[str, float]]:
        """Argmin fast path: no full sort, no ranking list.

        ``argmin`` returns the first minimum and :attr:`_users` is
        sorted, so ties break on the smallest user id — exactly like the
        stable sort in :meth:`rank`.
        """
        divergences = self._divergences(trace)
        if divergences is None:
            return None
        i = int(np.argmin(divergences))
        return (self._users[i], float(divergences[i]))


def _topsoe_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Topsoe divergence of each row of *p* against the vector *q*.

    ``T(p, q) = Σ p ln(2p/(p+q)) + q ln(2q/(p+q))`` with 0·ln(0/x) = 0.

    Retained as the scalar-reference kernel for the equivalence tests
    and benchmarks (see :mod:`repro.attacks.reference`); the query path
    uses the zero-copy decomposition in :meth:`HeatmapProfiles.divergences`.
    """
    m = p + q[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        left = p * np.log(2.0 * p / np.maximum(m, _EPS))
        right = q[None, :] * np.log(2.0 * q[None, :] / np.maximum(m, _EPS))
    left = np.where(p > _EPS, left, 0.0)
    right = np.where(q[None, :] > _EPS, right, 0.0)
    return (left + right).sum(axis=1)
