"""ShardPlan: partition invariants, routing kernels, persistence."""

import numpy as np
import pytest

from repro.geo import geohash
from repro.geo.distance import LocalProjection
from repro.geo.points import BoundingBox, Point
from repro.shard import ShardPlan

from .conftest import BOUNDS, PLANE, make_plan


class TestConstruction:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
    def test_every_shard_gets_cells(self, n_shards):
        plan = make_plan(n_shards)
        counts = plan.counts()
        assert len(counts) == n_shards
        assert all(c >= 1 for c in counts)
        assert sum(counts) == plan.shape[0] * plan.shape[1]

    def test_uniform_split_is_balanced(self):
        plan = make_plan(4)
        counts = plan.counts()
        assert max(counts) - min(counts) <= max(2, sum(counts) // 10)

    def test_shards_are_contiguous_morton_runs(self):
        # Walking the rectangle's cells in Morton (geohash) order must
        # visit each shard exactly once — contiguous territories.
        plan = make_plan(5)
        rows, cols = np.divmod(
            np.arange(plan.shape[0] * plan.shape[1]), plan.shape[1]
        )
        codes = [
            geohash.cell_code(int(r) + plan.origin[0], int(c) + plan.origin[1], plan.precision)
            for r, c in zip(rows, cols)
        ]
        order = np.argsort(np.array(codes))
        walked = plan.cell_shards.ravel()[order]
        changes = int((np.diff(walked) != 0).sum())
        assert changes == plan.n_shards - 1

    def test_demand_weighting_shifts_boundaries(self):
        rng = np.random.default_rng(0)
        hot = rng.normal([300.0, 300.0], 80.0, size=(2000, 2))
        plan_flat = make_plan(2)
        plan_hot = ShardPlan.from_bounds(BOUNDS, 2, demand=hot)
        # The hot corner's shard should own fewer cells when weighted.
        hot_shard = plan_hot.shard_of(Point(300.0, 300.0))
        flat_shard = plan_flat.shard_of(Point(300.0, 300.0))
        assert plan_hot.counts()[hot_shard] < plan_flat.counts()[flat_shard]

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.from_bounds(BOUNDS, 10_000, precision=1)

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError):
            make_plan(0)


class TestRouting:
    def test_scalar_matches_vectorized(self):
        plan = make_plan(4)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-200.0, PLANE + 200.0, 500)
        ys = rng.uniform(-200.0, PLANE + 200.0, 500)
        vec = plan.shard_of_many(xs, ys)
        for i in range(500):
            assert plan.shard_of(Point(float(xs[i]), float(ys[i]))) == int(vec[i])

    def test_garbage_routes_deterministically(self):
        plan = make_plan(3)
        sids = plan.shard_of_many(
            np.array([np.nan, np.inf, -np.inf, 1e12]),
            np.array([np.nan, np.inf, -np.inf, -1e12]),
        )
        assert (0 <= sids).all() and (sids < 3).all()
        again = plan.shard_of_many(
            np.array([np.nan, np.inf, -np.inf, 1e12]),
            np.array([np.nan, np.inf, -np.inf, -1e12]),
        )
        assert sids.tolist() == again.tolist()

    def test_matches_geohash_prefix_assignment(self):
        # The routing table must agree with encoding the point and
        # looking up its cell: shard(point) == shard(cell(geohash(point))).
        plan = make_plan(3)
        proj = LocalProjection(plan.ref_lat, plan.ref_lon)
        rng = np.random.default_rng(2)
        for _ in range(200):
            x, y = rng.uniform(0.0, PLANE, 2)
            lat, lon = proj.to_geo(Point(float(x), float(y)))
            code = geohash.encode(lat, lon, plan.precision)
            r, c = geohash.cell_of(code)
            sid = plan.cell_shards[r - plan.origin[0], c - plan.origin[1]]
            assert plan.shard_of(Point(float(x), float(y))) == int(sid)

    def test_boundary_mask_matches_neighbour_scan(self):
        plan = make_plan(4)
        table = plan.cell_shards
        n_lat, n_lon = plan.shape
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, PLANE, 300)
        ys = rng.uniform(0.0, PLANE, 300)
        rows, cols = plan.cell_index_of_many(xs, ys)
        flags = plan.boundary_of_many(xs, ys)
        for r, c, flag in zip(rows.tolist(), cols.tolist(), flags.tolist()):
            expect = False
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr = min(max(r + dr, 0), n_lat - 1)
                    cc = min(max(c + dc, 0), n_lon - 1)
                    if table[rr, cc] != table[r, c]:
                        expect = True
            assert flag == expect

    def test_touches_shard_excludes_own_cells(self):
        plan = make_plan(3)
        rng = np.random.default_rng(4)
        xs = rng.uniform(0.0, PLANE, 300)
        ys = rng.uniform(0.0, PLANE, 300)
        own = plan.shard_of_many(xs, ys)
        for sid in range(plan.n_shards):
            near = plan.touches_shard(xs, ys, sid)
            assert not bool((near & (own == sid)).any())


class TestPersistence:
    def test_state_roundtrip(self):
        plan = make_plan(4)
        clone = ShardPlan.from_state(plan.state_dict())
        assert clone.precision == plan.precision
        assert clone.origin == plan.origin
        assert clone.shape == plan.shape
        assert (clone.cell_shards == plan.cell_shards).all()
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, PLANE, 100)
        ys = rng.uniform(0.0, PLANE, 100)
        assert clone.shard_of_many(xs, ys).tolist() == plan.shard_of_many(xs, ys).tolist()

    def test_state_is_json_serialisable(self):
        import json

        plan = make_plan(2)
        assert ShardPlan.from_state(
            json.loads(json.dumps(plan.state_dict()))
        ).counts() == plan.counts()

    def test_cells_of_shard_cover_rectangle(self):
        plan = make_plan(3)
        seen = set()
        for sid in range(plan.n_shards):
            cells = plan.cells_of_shard(sid)
            assert cells == sorted(cells)  # Morton == lexicographic order
            seen.update(cells)
        assert len(seen) == plan.shape[0] * plan.shape[1]

    def test_invalid_table_rejected(self):
        plan = make_plan(2)
        state = plan.state_dict()
        state["n_shards"] = 3  # shard 2 owns nothing
        with pytest.raises(ValueError):
            ShardPlan.from_state(state)
