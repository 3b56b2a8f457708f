"""Tests for repro.core.station_set — the unified station store.

The load-bearing guarantee: the ``"grid"`` backend is an exact,
bit-identical drop-in for the ``"linear"`` reference — same ids, same
distances, same tie-breaks — across arbitrary interleavings of add,
remove and query.  Everything downstream (planner determinism across
backends, the Table V numbers) rests on this.
"""

import numpy as np
import pytest

from repro.core import (
    EsharingConfig,
    StationSet,
    constant_facility_cost,
    esharing_placement,
    meyerson_placement,
    online_kmeans_placement,
)
from repro.geo import Point

from .placement_oracle import meyerson_per_call, online_kmeans_per_call


class TestConstruction:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            StationSet(backend="kdtree")

    def test_bad_cell_size_rejected(self):
        with pytest.raises(ValueError):
            StationSet(backend="grid", cell_size=0.0)

    def test_initial_points_get_dense_ids(self):
        s = StationSet([Point(0, 0), Point(10, 10)])
        assert s.ids() == [0, 1]
        assert len(s) == 2
        assert s.total_assigned == 2
        assert s.locations() == [Point(0, 0), Point(10, 10)]


class TestStableIds:
    def test_ids_survive_removal(self):
        s = StationSet([Point(0, 0), Point(10, 0), Point(20, 0)])
        s.remove(1)
        assert s.ids() == [0, 2]
        assert 1 not in s
        assert s.is_active(2)
        assert s.location(1) == Point(10, 0)  # retired keeps coordinates

    def test_ids_never_reused(self):
        s = StationSet([Point(0, 0)])
        s.remove(0)
        assert s.add(Point(0, 0)) == 1
        assert s.total_assigned == 2

    def test_remove_unknown_raises(self):
        s = StationSet([Point(0, 0)])
        with pytest.raises(KeyError):
            s.remove(7)
        s.remove(0)
        with pytest.raises(KeyError):
            s.remove(0)

    def test_location_unknown_raises(self):
        with pytest.raises(KeyError):
            StationSet([Point(0, 0)]).location(5)


class TestQueries:
    @pytest.fixture(params=["linear", "grid"])
    def backend(self, request):
        return request.param

    def test_nearest_empty_raises(self, backend):
        with pytest.raises(ValueError):
            StationSet(backend=backend).nearest(Point(0, 0))

    def test_nearest_tie_breaks_lowest_id(self, backend):
        s = StationSet(
            [Point(5, 0), Point(-5, 0), Point(0, 5)],
            backend=backend, cell_size=3.0,
        )
        assert s.nearest(Point(0, 0)) == (0, 5.0)
        s.remove(0)
        assert s.nearest(Point(0, 0)) == (1, 5.0)

    def test_nearest_where_skips_filtered(self, backend):
        s = StationSet([Point(0, 0), Point(1, 0), Point(2, 0)], backend=backend)
        hit = s.nearest_where(Point(0, 0), lambda sid: sid != 0)
        assert hit == (1, 1.0)

    def test_nearest_where_none_when_no_match(self, backend):
        s = StationSet([Point(0, 0)], backend=backend)
        assert s.nearest_where(Point(0, 0), lambda sid: False) is None
        assert StationSet(backend=backend).nearest_where(Point(0, 0), bool) is None

    def test_within_sorted_and_inclusive(self, backend):
        s = StationSet(
            [Point(0, 3), Point(0, 1), Point(0, 2)], backend=backend, cell_size=1.5
        )
        hits = s.within(Point(0, 0), 3.0)
        assert hits == [(1, 1.0), (2, 2.0), (0, 3.0)]
        with pytest.raises(ValueError):
            s.within(Point(0, 0), -1.0)

    def test_min_spacing_incremental_and_after_removal(self, backend):
        s = StationSet(backend=backend)
        assert s.min_spacing() == float("inf")
        s.add(Point(0, 0))
        assert s.min_spacing() == float("inf")
        s.add(Point(10, 0))
        assert s.min_spacing() == 10.0
        s.add(Point(4, 0))
        assert s.min_spacing() == 4.0
        s.remove(2)  # the point creating the 4 m pair
        assert s.min_spacing() == 10.0


class TestInventoryHooks:
    def test_add_and_remove_hooks_fire(self):
        events = []
        s = StationSet([Point(0, 0)])
        s.subscribe(
            on_add=lambda sid, p: events.append(("add", sid, p)),
            on_remove=lambda sid, p: events.append(("remove", sid, p)),
        )
        s.add(Point(5, 5))
        s.remove(0)
        assert events == [
            ("add", 1, Point(5, 5)),
            ("remove", 0, Point(0, 0)),
        ]


class TestBackendEquivalence:
    """Satellite: seeded random clouds, interleaved add/remove, 1k queries —
    the grid backend must agree with the linear reference exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cell_size", [40.0, 250.0, 900.0])
    def test_randomized_parity(self, seed, cell_size):
        rng = np.random.default_rng(seed)
        linear = StationSet(backend="linear")
        grid = StationSet(backend="grid", cell_size=cell_size)
        live = []

        def random_point():
            x, y = rng.uniform(0, 3000, 2)
            return Point(float(x), float(y))

        for p in [random_point() for _ in range(60)]:
            assert linear.add(p) == grid.add(p)
            live.append(True)

        checked = 0
        while checked < 1000:
            op = rng.uniform()
            if op < 0.08:
                sid = len(live)
                p = random_point()
                assert linear.add(p) == sid == grid.add(p)
                live.append(True)
            elif op < 0.16 and sum(live) > 5:
                active = [i for i, a in enumerate(live) if a]
                sid = int(active[int(rng.integers(len(active)))])
                linear.remove(sid)
                grid.remove(sid)
                live[sid] = False
            else:
                q = random_point()
                assert linear.nearest(q) == grid.nearest(q)
                radius = float(rng.uniform(0, 800))
                assert linear.within(q, radius) == grid.within(q, radius)
                checked += 1

        assert linear.ids() == grid.ids()
        assert linear.min_spacing() == grid.min_spacing()

    def test_parity_with_duplicate_points(self):
        pts = [Point(0, 0), Point(0, 0), Point(100, 100), Point(0, 0)]
        linear = StationSet(pts, backend="linear")
        grid = StationSet(pts, backend="grid", cell_size=50.0)
        assert linear.nearest(Point(1, 1)) == grid.nearest(Point(1, 1))
        linear.remove(0)
        grid.remove(0)
        assert linear.nearest(Point(1, 1)) == grid.nearest(Point(1, 1)) == (
            1,
            Point(1, 1).distance_to(Point(0, 0)),
        )


class TestPlacementBitIdentity:
    """Acceptance: placement outputs (stations, assignments, costs) are
    bit-identical between backends for a fixed seed.  The baselines have
    no backend switch: their per-arrival oracles scan a grid-backed
    StationSet against the production cached loop."""

    def _stream(self, seed, n=300):
        rng = np.random.default_rng(seed)
        return [Point(float(x), float(y)) for x, y in rng.uniform(0, 3000, (n, 2))]

    def test_esharing_backends_bit_identical(self):
        rng = np.random.default_rng(0)
        anchors = [Point(float(x), float(y)) for x, y in rng.uniform(0, 3000, (12, 2))]
        historical = rng.uniform(0, 3000, (400, 2))
        stream = self._stream(7)
        cost_fn = constant_facility_cost(10_000.0)
        results = {}
        for backend in ("linear", "grid"):
            results[backend] = esharing_placement(
                stream, anchors, cost_fn, historical, np.random.default_rng(42),
                EsharingConfig(nn_backend=backend),
            )
        a, b = results["linear"], results["grid"]
        assert a.stations == b.stations
        assert a.assignment == b.assignment
        assert a.walking == b.walking  # exact, not approx
        assert a.space == b.space
        assert a.online_opened == b.online_opened

    def test_meyerson_backends_bit_identical(self):
        stream = self._stream(11)
        cost_fn = constant_facility_cost(5_000.0)
        a = meyerson_placement(stream, cost_fn, np.random.default_rng(3))
        b = meyerson_per_call(
            stream, cost_fn, np.random.default_rng(3), backend="grid"
        )
        assert a.stations == b.stations
        assert a.assignment == b.assignment
        assert a.walking == b.walking
        assert a.space == b.space

    def test_online_kmeans_backends_bit_identical(self):
        stream = self._stream(13)
        cost_fn = constant_facility_cost(5_000.0)
        a = online_kmeans_placement(stream, 8, cost_fn, np.random.default_rng(5))
        b = online_kmeans_per_call(
            stream, 8, cost_fn, np.random.default_rng(5), backend="grid"
        )
        assert a.stations == b.stations
        assert a.assignment == b.assignment
        assert a.walking == b.walking
        assert a.space == b.space
