"""Equivalence property tests: vectorised kernels vs scalar references.

The perf overhaul rewrote the attack hot paths (zero-copy Topsoe kernel,
packed pairwise POI kernel, ring-pruned ``top1``, loop-optimised
clustering).  These tests pin them, on randomised traces, to the
retained original implementations in :mod:`repro.attacks.reference` and
:mod:`repro.poi.clustering`:

* clustering (``extract_pois`` / ``merge_nearby_pois``) must be
  **bit-identical** — same arithmetic, same POIs, all fields;
* rankings must be identical wherever they carry information — order
  and distances agree, with reordering permitted only inside
  floating-point-degenerate tie groups (see
  :func:`repro.attacks.reference.rankings_equivalent`);
* every ``top1`` fast path must equal ``rank()[0]`` exactly, including
  the tie-break by user id — the engine's ``is_protected`` loop relies
  on that contract;
* HMC must pick the same target and publish byte-identical coordinates
  (``tobytes()``, so ``-0.0`` is told from ``0.0``).
"""

import math

import numpy as np
import pytest

from repro.attacks.ap_attack import ApAttack
from repro.attacks.poi_attack import (
    _TOP1_BRUTE_THRESHOLD,
    PoiAttack,
    poi_set_distance,
)
from repro.attacks.reference import (
    ap_rank_reference,
    hmc_apply_reference,
    hmc_select_target_reference,
    poi_rank_reference,
    poi_set_distance_reference,
    rankings_equivalent,
)
from repro.bench import CITY_LAT, synthetic_background, synthetic_trace
from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.geo.grid import Cell
from repro.lppm.hmc import HeatmapConfusion, heatmap_divergence
from repro.poi.clustering import (
    POI,
    extract_pois,
    extract_pois_reference,
    merge_nearby_pois,
    merge_nearby_pois_reference,
)
from repro.poi.heatmap import build_heatmap


def random_walk_trace(seed, n=400, lat0=45.76, lng0=4.84, step_m=60.0):
    """A jittery random walk with occasional long dwells — adversarial
    input for the sequential clustering (constant boundary decisions)."""
    rng = np.random.default_rng(seed)
    deg = step_m / 111_320.0
    dlat = rng.normal(0.0, deg, size=n)
    dlng = rng.normal(0.0, deg, size=n)
    # Freeze movement in random stretches to create qualifying dwells.
    for _ in range(4):
        start = rng.integers(0, max(1, n - 40))
        span = rng.integers(15, 40)
        dlat[start : start + span] *= 0.02
        dlng[start : start + span] *= 0.02
    dts = rng.integers(30, 600, size=n).astype(float)
    return Trace(
        f"w{seed}",
        np.cumsum(dts),
        lat0 + np.cumsum(dlat),
        lng0 + np.cumsum(dlng),
    )


def random_pois(seed, n, lat0=45.76, lng0=4.84, spread=0.01):
    rng = np.random.default_rng(seed)
    return [
        POI(
            lat=lat0 + rng.uniform(-spread, spread),
            lng=lng0 + rng.uniform(-spread, spread),
            weight=int(rng.integers(1, 20)),
            dwell_s=float(rng.uniform(3600, 40000)),
            t_enter=float(rng.uniform(0, 1e6)),
            t_exit=float(rng.uniform(1e6, 2e6)),
        )
        for _ in range(n)
    ]


class TestClusteringEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_extract_pois_bit_identical(self, seed):
        trace = random_walk_trace(seed)
        assert extract_pois(trace) == extract_pois_reference(trace)

    @pytest.mark.parametrize("seed", range(4))
    def test_extract_pois_parameter_sweep(self, seed):
        trace = random_walk_trace(seed + 100, n=250)
        for diameter, dwell in [(100.0, 1800.0), (200.0, 3600.0), (500.0, 600.0)]:
            assert extract_pois(trace, diameter, dwell) == extract_pois_reference(
                trace, diameter, dwell
            )

    def test_extract_pois_empty_trace(self):
        assert extract_pois(Trace.empty("u")) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_bit_identical(self, seed):
        pois = random_pois(seed, n=int(np.random.default_rng(seed).integers(2, 60)))
        for radius in (50.0, 100.0, 400.0):
            assert merge_nearby_pois(pois, radius) == merge_nearby_pois_reference(
                pois, radius
            )

    def test_merge_trivial_sizes(self):
        assert merge_nearby_pois([]) == []
        one = random_pois(1, 1)
        assert merge_nearby_pois(one) == one


class TestPoiSetDistanceEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed + 500)
        a = random_pois(seed * 2, int(rng.integers(1, 15)))
        b = random_pois(seed * 2 + 1, int(rng.integers(1, 15)))
        fast = poi_set_distance(a, b)
        ref = poi_set_distance_reference(a, b)
        assert fast == pytest.approx(ref, rel=1e-12)

    def test_symmetry_and_identity(self):
        a = random_pois(3, 6)
        b = random_pois(4, 9)
        assert poi_set_distance(a, b) == pytest.approx(poi_set_distance(b, a))
        assert poi_set_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_empty_sets_infinite(self):
        a = random_pois(5, 3)
        assert math.isinf(poi_set_distance(a, []))
        assert math.isinf(poi_set_distance([], a))


@pytest.fixture(scope="module")
def small_suite():
    """40 users (POI top1 takes the brute path) + mixed probes."""
    background = synthetic_background(40, seed=11)
    ap = ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
    poi = PoiAttack().fit(background)
    probes = [synthetic_trace(f"p{i}", seed=900 + i) for i in range(4)]
    probes += [background.traces()[0], background.traces()[17]]
    return ap, poi, probes


@pytest.fixture(scope="module")
def large_suite():
    """Enough users to force the ring-pruned POI top1 path."""
    n = _TOP1_BRUTE_THRESHOLD + 20
    background = synthetic_background(n, seed=23)
    ap = ApAttack(cell_size_m=800.0, ref_lat=CITY_LAT).fit(background)
    poi = PoiAttack().fit(background)
    probes = [synthetic_trace(f"q{i}", seed=700 + i) for i in range(4)]
    probes += [background.traces()[3], background.traces()[n - 1]]
    return ap, poi, probes


class TestRankingEquivalence:
    def test_ap_rank_matches_reference(self, small_suite):
        ap, _, probes = small_suite
        for probe in probes:
            assert rankings_equivalent(ap.rank(probe), ap_rank_reference(ap, probe))

    def test_poi_rank_matches_reference(self, small_suite):
        _, poi, probes = small_suite
        for probe in probes:
            fast = poi.rank(probe)
            ref = poi_rank_reference(poi, probe)
            assert rankings_equivalent(fast, ref, tol=1e-6)

    def test_ap_rank_matches_reference_at_scale(self, large_suite):
        ap, _, probes = large_suite
        for probe in probes:
            assert rankings_equivalent(ap.rank(probe), ap_rank_reference(ap, probe))

    def test_poi_rank_matches_reference_at_scale(self, large_suite):
        _, poi, probes = large_suite
        for probe in probes:
            assert rankings_equivalent(
                poi.rank(probe), poi_rank_reference(poi, probe), tol=1e-6
            )

    def test_background_user_ranks_first(self, small_suite):
        # The unobfuscated own trace must beat every other profile.
        ap, poi, _ = small_suite
        for attack in (ap, poi):
            trace = synthetic_trace("user0007", seed=11 * 100_003 + 7)
            ranked = attack.rank(trace)
            assert ranked and ranked[0][0] == "user0007"


class TestTop1Contract:
    def test_ap_top1_equals_rank_head(self, small_suite):
        ap, _, probes = small_suite
        for probe in probes:
            assert ap.top1(probe) == ap.rank(probe)[0]

    def test_poi_top1_equals_rank_head_brute_path(self, small_suite):
        _, poi, probes = small_suite
        assert len(poi._users) <= _TOP1_BRUTE_THRESHOLD
        for probe in probes:
            assert poi.top1(probe) == poi.rank(probe)[0]

    def test_poi_top1_equals_rank_head_ring_path(self, large_suite):
        _, poi, probes = large_suite
        assert len(poi._users) > _TOP1_BRUTE_THRESHOLD
        assert poi._buckets
        for probe in probes:
            assert poi.top1(probe) == poi.rank(probe)[0]

    def test_top1_none_iff_rank_empty(self, small_suite):
        ap, poi, _ = small_suite
        # A 2-record trace has no POI and an almost-empty heatmap.
        stub = Trace("x", [0.0, 60.0], [45.76, 45.76], [4.84, 4.84])
        assert (poi.top1(stub) is None) == (poi.rank(stub) == [])
        assert (ap.top1(stub) is None) == (ap.rank(stub) == [])
        assert ap.top1(Trace.empty("x")) is None

    def test_reidentify_routes_through_top1(self, small_suite):
        ap, poi, probes = small_suite
        for attack in (ap, poi):
            for probe in probes:
                ranked = attack.rank(probe)
                expected = ranked[0][0] if ranked else "unknown-user"
                got = attack.reidentify(probe)
                if ranked:
                    assert got == expected


# -- HMC: kernel target selection and per-cell materialisation --------------


def cell_trace(user, grid, counts, t0=0.0):
    """*counts* records at the centre of each cell, 10 minutes apart."""
    points = [grid.center_of(cell) for cell, n in counts.items() for _ in range(n)]
    return Trace(
        user,
        t0 + 600.0 * np.arange(len(points)),
        [lat for lat, _ in points],
        [lng for _, lng in points],
    )


def assert_hmc_matches_reference(hmc, trace):
    fast_user, fast_hm = hmc.select_target(trace)
    ref_user, ref_hm = hmc_select_target_reference(hmc, trace)
    assert fast_user == ref_user and fast_hm is ref_hm
    fast = hmc.apply(trace)
    ref = hmc_apply_reference(hmc, trace)
    assert fast.lats.tobytes() == ref.lats.tobytes()
    assert fast.lngs.tobytes() == ref.lngs.tobytes()
    assert fast.timestamps.tobytes() == ref.timestamps.tobytes()
    return fast_user, fast


@pytest.fixture(scope="module")
def hmc_pool():
    background = synthetic_background(40, seed=31)
    return HeatmapConfusion(ref_lat=CITY_LAT).fit(background), background


class TestHmcEquivalence:
    """HMC's kernel selection and vectorised apply vs the scalar originals
    (:func:`hmc_select_target_reference`, :func:`hmc_apply_reference`)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_walks(self, hmc_pool, seed):
        hmc, _ = hmc_pool
        assert_hmc_matches_reference(hmc, random_walk_trace(seed + 40))

    @pytest.mark.parametrize("weight", [0.0, 1.0, 3.0])
    def test_synthetic_probes_and_popularity_weights(self, hmc_pool, weight):
        _, background = hmc_pool
        hmc = HeatmapConfusion(ref_lat=CITY_LAT, popularity_weight=weight)
        hmc.fit(background)
        for i in range(4):
            assert_hmc_matches_reference(hmc, synthetic_trace(f"s{i}", seed=300 + i))

    def test_own_user_in_pool_is_never_picked(self, hmc_pool):
        hmc, background = hmc_pool
        for trace in background.traces()[:5]:
            user, _ = assert_hmc_matches_reference(hmc, trace)
            assert user != trace.user_id

    def test_unknown_user(self, hmc_pool):
        hmc, background = hmc_pool
        stranger = background.traces()[3].with_user("not-in-pool")
        assert_hmc_matches_reference(hmc, stranger)

    def test_query_cells_outside_vocabulary(self, hmc_pool):
        hmc, _ = hmc_pool
        far = random_walk_trace(7, lat0=48.85, lng0=2.35)  # Paris, not Lyon
        half = Trace(
            "half",
            np.concatenate([far.timestamps, far.timestamps[-1] + far.timestamps]),
            np.concatenate([far.lats, random_walk_trace(8).lats]),
            np.concatenate([far.lngs, random_walk_trace(8).lngs]),
        )
        for trace in (far, half):
            assert_hmc_matches_reference(hmc, trace)

    def test_exact_tie_picks_smaller_id(self):
        grid = HeatmapConfusion(ref_lat=45.0).grid
        twin = {Cell(5, 5): 3, Cell(5, 6): 1}
        past = MobilityDataset("tie")
        for user in ("twin-b", "twin-a", "other"):
            counts = twin if user != "other" else {Cell(40, 40): 2}
            past.add(cell_trace(user, grid, counts))
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        probe = cell_trace("probe", grid, {Cell(5, 5): 1, Cell(5, 7): 1})
        user, _ = assert_hmc_matches_reference(hmc, probe)
        assert user == "twin-a"

    @pytest.mark.parametrize(
        "a, b, probe",
        [
            # The kernel scores a bit-exact tie, which it would give to "a".
            (
                {(5, 5): 2, (5, 6): 6, (9, 9): 8, (9, 10): 3},
                {(5, 5): 2, (5, 6): 6, (1, 1): 3, (5, 8): 8},
                {(5, 5): 4, (5, 6): 2, (5, 7): 7},
            ),
            # The kernel puts "a" two ulps ahead.
            (
                {(5, 5): 3, (5, 6): 9, (5, 7): 5, (5, 8): 1, (9, 9): 5, (9, 10): 8},
                {(5, 5): 3, (5, 6): 9, (5, 7): 1, (5, 8): 5, (1, 1): 5, (0, 0): 8},
                {(5, 5): 7, (5, 6): 7, (5, 7): 7, (5, 8): 7},
            ),
        ],
    )
    def test_last_ulp_near_tie_follows_the_scalar_verdict(self, a, b, probe):
        # "a" and "b" are mathematically equidistant from the probe; the
        # scalar path's summation order puts "b" one ulp ahead, the
        # kernel's order does not.
        grid = HeatmapConfusion(ref_lat=45.0).grid
        past = MobilityDataset("near-tie")
        for user, counts in (("a", a), ("b", b)):
            past.add(cell_trace(user, grid, {Cell(*c): n for c, n in counts.items()}))
        hmc = HeatmapConfusion(ref_lat=45.0).fit(past)
        query = cell_trace("q", grid, {Cell(*c): n for c, n in probe.items()})
        own = build_heatmap(query, grid)
        kernel = hmc._kernel.divergences(own)
        assert kernel[0] <= kernel[1]
        exact = [heatmap_divergence(own, hmc._profiles[u]) for u in ("a", "b")]
        assert 0.0 < exact[0] - exact[1] < 1e-15
        user, _ = assert_hmc_matches_reference(hmc, query)
        assert user == "b"

    def test_negative_quadrant_cells(self):
        # Santiago de Chile: negative rows and columns.
        past = MobilityDataset("south-west")
        for i in range(6):
            past.add(random_walk_trace(60 + i, lat0=-33.45, lng0=-70.66).with_user(f"sw{i}"))
        hmc = HeatmapConfusion(ref_lat=-33.45).fit(past)
        for seed in (70, 71):
            assert_hmc_matches_reference(
                hmc, random_walk_trace(seed, lat0=-33.45, lng0=-70.66)
            )

    def test_negative_zero_latitude_keeps_its_bytes(self):
        grid = HeatmapConfusion(ref_lat=0.0).grid
        home = {Cell(0, 0): 6, Cell(1, 0): 1}
        past = MobilityDataset("equator")
        past.add(cell_trace("e1", grid, home))
        past.add(cell_trace("e2", grid, {**home, Cell(2, 0): 1}))
        hmc = HeatmapConfusion(ref_lat=0.0).fit(past)
        probe = Trace(
            "eq", [0.0, 60.0, 120.0], [-0.0, 0.001, -0.0], [0.001, 0.002, 0.003]
        )
        _, out = assert_hmc_matches_reference(hmc, probe)
        # Cell (0, 0) maps onto itself, so its records are not shifted.
        assert np.signbit(out.lats[0]) and np.signbit(out.lats[2])

    def test_antimeridian_wrap(self):
        # The pool's walks run past 180°E unnormalised, so records moved
        # onto their cells leave [-180, 180) and wrap round.
        past = MobilityDataset("dateline")
        for i in range(4):
            past.add(random_walk_trace(80 + i, lat0=-16.5, lng0=180.03).with_user(f"f{i}"))
        hmc = HeatmapConfusion(ref_lat=-16.5).fit(past)
        probe = random_walk_trace(90, lat0=-16.5, lng0=179.99)
        _, out = assert_hmc_matches_reference(hmc, probe)
        assert np.all(out.lngs < 180.0) and np.all(out.lngs >= -180.0)
        assert np.any(out.lngs < 0.0)
