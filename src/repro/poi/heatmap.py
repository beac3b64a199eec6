"""Heatmap mobility profiles.

A heatmap aggregates a user's mobility over a metric grid: each cell's
value is the number of the user's records falling in that cell,
normalised to a probability distribution.  Heatmaps are the profile
model of the AP-attack [22] and the representation manipulated by the
HMC LPPM [23]; both use 800 m cells in the paper.

Both also compare one heatmap against every known user's by Topsoe
divergence — the AP-attack to re-identify, HMC to pick the user to
impersonate — through the one vectorised kernel of
:class:`HeatmapProfiles`.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.trace import Trace
from repro.errors import EmptyTraceError
from repro.geo.grid import Cell, MetricGrid

#: Packing stride for (ix, iy) cell pairs; iy must fit in ±2**30 (it does
#: for any cell size above ~1 cm — |lat| ≤ 90° is ~1e7 m of northing).
_PACK = 2**31
_HALF_PACK = 2**30

_EPS = 1e-12
_LN2 = float(np.log(2.0))


class Heatmap:
    """A normalised visit-frequency distribution over grid cells."""

    __slots__ = ("grid", "_mass", "_sorted_cells", "_sorted_items")

    def __init__(self, grid: MetricGrid, counts: Dict[Cell, float]) -> None:
        total = float(sum(counts.values()))
        if total <= 0:
            raise EmptyTraceError("cannot build a heatmap with zero total mass")
        self.grid = grid
        self._mass: Dict[Cell, float] = {c: v / total for c, v in counts.items() if v > 0}
        self._sorted_cells: Optional[Tuple[Cell, ...]] = None
        self._sorted_items: Optional[Tuple[Tuple[Cell, float], ...]] = None

    # -- mapping access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._mass)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._mass

    def mass(self, cell: Cell) -> float:
        """Probability mass of *cell* (0 if unvisited)."""
        return self._mass.get(cell, 0.0)

    def cells(self) -> Tuple[Cell, ...]:
        """Visited cells, sorted for deterministic iteration.

        The sorted view is computed once and cached (heatmaps are
        immutable and ``rank()`` iterates them on every call); it is a
        tuple, so the shared cached view cannot be mutated by callers.
        """
        if self._sorted_cells is None:
            self._sorted_cells = tuple(sorted(self._mass))
        return self._sorted_cells

    def items(self) -> Tuple[Tuple[Cell, float], ...]:
        """``(cell, mass)`` pairs, sorted by cell (cached, immutable)."""
        if self._sorted_items is None:
            self._sorted_items = tuple((c, self._mass[c]) for c in self.cells())
        return self._sorted_items

    def support(self) -> frozenset:
        """The set of visited cells."""
        return frozenset(self._mass)

    def top_cells(self, k: int) -> List[Cell]:
        """The *k* most visited cells (ties broken by cell index)."""
        return [c for c, _ in sorted(self._mass.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]

    def entropy(self) -> float:
        """Shannon entropy of the visit distribution, in bits."""
        p = np.fromiter(self._mass.values(), dtype=np.float64)
        return float(-np.sum(p * np.log2(p)))

    def __repr__(self) -> str:
        return f"Heatmap(cells={len(self)}, grid={self.grid!r})"


def build_heatmap(trace: Trace, grid: MetricGrid) -> Heatmap:
    """Accumulate *trace* into a heatmap over *grid*.

    Vectorised: the lat/lng arrays are converted to integer cell indices
    in one pass, then reduced with :func:`numpy.unique`.  The cell
    indices agree with :meth:`MetricGrid.cell_of` in *all four*
    quadrants: the packed key is decoded with a centred modulus, so
    negative rows (southern-hemisphere latitudes) and negative columns
    round-trip exactly instead of borrowing into the neighbouring
    column.
    """
    if len(trace) == 0:
        raise EmptyTraceError(f"trace of user {trace.user_id!r} is empty")
    m_lat = grid._m_per_deg_lat
    m_lng = grid._m_per_deg_lng
    ix = np.floor(trace.lngs * m_lng / grid.cell_size_m).astype(np.int64)
    iy = np.floor(trace.lats * m_lat / grid.cell_size_m).astype(np.int64)
    packed = ix * _PACK + iy
    uniq, counts = np.unique(packed, return_counts=True)
    # Centred decode: cy ∈ [-2**30, 2**30) regardless of sign, and the
    # remainder is subtracted before the exact division recovering cx.
    cy = (uniq + _HALF_PACK) % _PACK - _HALF_PACK
    cx = (uniq - cy) // _PACK
    cells: Dict[Cell, float] = {
        Cell(int(x), int(y)): float(count)
        for x, y, count in zip(cx, cy, counts)
    }
    return Heatmap(grid, cells)


def aggregate_heatmaps(grid: MetricGrid, heatmaps: Iterable[Heatmap]) -> Heatmap:
    """Average several heatmaps into a population-level heatmap."""
    counts: Dict[Cell, float] = {}
    n = 0
    for hm in heatmaps:
        if hm.grid != grid:
            raise ValueError("all heatmaps must share the same grid")
        for cell, mass in hm.items():
            counts[cell] = counts.get(cell, 0.0) + mass
        n += 1
    if n == 0:
        raise ValueError("no heatmaps to aggregate")
    return Heatmap(grid, counts)


def _plogp(values: np.ndarray) -> np.ndarray:
    """Entropy terms ``p·ln p`` with ``0·ln 0 = 0`` (the fit-time formula)."""
    return np.where(values > 0.0, values * np.log(np.maximum(values, _EPS)), 0.0)


class HeatmapProfiles:
    """Known users' heatmaps as one dense Topsoe kernel.

    Holds the sorted user ids, the cell vocabulary, the dense
    ``(users × cells)`` profile matrix and its fit-time ``p·ln p``
    terms.  :meth:`divergences` scores a query heatmap against every
    row without copying the matrix: it gathers only the columns the
    query visits, plus a closed-form correction for the rest.  Writing
    the Topsoe sum per profile row ``p`` against the query ``q`` as

        T(p, q) = Σ_j [ p_j ln p_j + q_j ln(2 q_j) − (p_j+q_j) ln(p_j+q_j) ]
                  + ln 2 · (1 + q_out)                      (j ∈ supp(q)∩V)

    — where ``V`` is the vocabulary and ``q_out`` the query mass outside
    it — every term outside the (small) support of ``q`` collapses into
    the ``ln 2`` correction, because both distributions sum to one (the
    profile mass missing from ``supp(q)`` contributes ``p_j ln 2`` each,
    which cancels exactly against the expansion of the overlap terms).
    A query therefore touches a ``(users × |supp(q)|)`` slice only.

    Columns are gathered in the query's sorted-cell order, so the
    vocabulary's column order never changes a divergence: a
    :meth:`refit` that appends cells yields bit-identical values to a
    fresh build on the updated heatmaps.
    """

    __slots__ = ("users", "cell_index", "matrix", "plogp")

    def __init__(self, heatmaps: Mapping[str, Heatmap]) -> None:
        vocabulary: Dict[Cell, int] = {}
        for hm in heatmaps.values():
            for cell in hm.cells():
                vocabulary.setdefault(cell, len(vocabulary))
        self.users: List[str] = sorted(heatmaps)
        self.cell_index = vocabulary
        matrix = np.zeros((len(self.users), len(vocabulary)), dtype=np.float64)
        for row, user in enumerate(self.users):
            for cell, mass in heatmaps[user].items():
                matrix[row, vocabulary[cell]] = mass
        self.matrix = matrix
        self.plogp = _plogp(matrix)

    def row_of(self, user_id: str) -> Optional[int]:
        """Row of *user_id* in :attr:`matrix`, or ``None`` if unknown."""
        row = bisect.bisect_left(self.users, user_id)
        if row < len(self.users) and self.users[row] == user_id:
            return row
        return None

    def refit(self, heatmaps: Mapping[str, Optional[Heatmap]]) -> None:
        """Replace the rows of *heatmaps*' users in place.

        New cells append to the vocabulary, each affected row is
        rewritten and its ``p·ln p`` recomputed with the fit-time
        formula, a ``None`` heatmap drops its user, and an unknown user
        is inserted at its sorted position — the state a fresh build on
        the updated heatmaps would hold, up to column order.
        """
        vocabulary = self.cell_index
        for hm in heatmaps.values():
            if hm is None:
                continue
            for cell in hm.cells():
                vocabulary.setdefault(cell, len(vocabulary))
        matrix = self.matrix
        plogp = self.plogp
        grown = len(vocabulary) - matrix.shape[1]
        if grown > 0:
            matrix = np.pad(matrix, ((0, 0), (0, grown)))
            plogp = np.pad(plogp, ((0, 0), (0, grown)))
        users = self.users
        for user in sorted(heatmaps):
            hm = heatmaps[user]
            row = bisect.bisect_left(users, user)
            present = row < len(users) and users[row] == user
            if hm is None:
                if present:
                    users.pop(row)
                    matrix = np.delete(matrix, row, axis=0)
                    plogp = np.delete(plogp, row, axis=0)
                continue
            if not present:
                users.insert(row, user)
                matrix = np.insert(matrix, row, 0.0, axis=0)
                plogp = np.insert(plogp, row, 0.0, axis=0)
            else:
                matrix[row, :] = 0.0
            for cell, mass in hm.items():
                matrix[row, vocabulary[cell]] = mass
            plogp[row] = _plogp(matrix[row])
        self.matrix = matrix
        self.plogp = plogp

    def divergences(self, heatmap: Heatmap) -> np.ndarray:
        """Topsoe divergence of *heatmap* against every row, in :attr:`users` order."""
        cols: List[int] = []
        qvals: List[float] = []
        q_out = 0.0
        cell_index = self.cell_index
        for cell, mass in heatmap.items():
            j = cell_index.get(cell)
            if j is None:
                q_out += mass
            else:
                cols.append(j)
                qvals.append(mass)
        div = np.full(len(self.users), _LN2 * (1.0 + q_out), dtype=np.float64)
        if cols:
            col_idx = np.asarray(cols, dtype=np.intp)
            q = np.asarray(qvals, dtype=np.float64)
            m = self.matrix[:, col_idx] + q[None, :]
            # q > 0 on every selected column, so m > 0: no masking needed.
            div += (self.plogp[:, col_idx] - m * np.log(m)).sum(axis=1)
            div += float((q * np.log(2.0 * q)).sum())
        return div
