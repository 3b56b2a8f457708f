"""ShardRouter: exact partition, stable order, chunked == scalar."""

from dataclasses import replace

from repro.geo.points import Point
from repro.shard import ShardRouter

from .conftest import make_plan, make_trips


class TestSplitTrips:
    def test_partition_is_exact(self):
        router = ShardRouter(make_plan(4))
        trips = make_trips(500, seed=1)
        buckets = router.split_trips(trips)
        assert len(buckets) == 4
        assert sum(len(b) for b in buckets) == len(trips)
        seen = {t.order_id for b in buckets for t in b}
        assert seen == {t.order_id for t in trips}

    def test_within_shard_order_preserved(self):
        router = ShardRouter(make_plan(3))
        trips = make_trips(400, seed=2)
        positions = {t.order_id: i for i, t in enumerate(trips)}
        for bucket in router.split_trips(trips):
            idx = [positions[t.order_id] for t in bucket]
            assert idx == sorted(idx)

    def test_matches_scalar_route(self):
        router = ShardRouter(make_plan(5))
        trips = make_trips(300, seed=3)
        buckets = router.split_trips(trips)
        for sid, bucket in enumerate(buckets):
            for t in bucket:
                assert router.route(t) == sid

    def test_nan_destination_routes_like_scalar_route(self):
        router = ShardRouter(make_plan(3))
        trips = make_trips(50, seed=8)
        trips[10] = replace(trips[10], end=Point(float("nan"), trips[10].end.y))
        # A row whose destination is not a point sends its whole chunk
        # down the per-trip fallback; the NaN row must route alike there.
        garbage = trips[:30] + [replace(trips[30], end=None)] + trips[31:]
        for stream in (trips, garbage):
            buckets = router.split_trips(stream)
            routed = {t.order_id: sid for sid, b in enumerate(buckets) for t in b}
            assert routed == {t.order_id: router.route(t) for t in stream}
            assert routed[trips[10].order_id] == router.route(trips[10])

    def test_chunking_does_not_change_routing(self):
        import repro.shard.router as router_mod

        router = ShardRouter(make_plan(3))
        trips = make_trips(300, seed=4)
        whole = router.split_trips(trips)
        original = router_mod._CHUNK
        try:
            router_mod._CHUNK = 7
            chunked = router.split_trips(trips)
        finally:
            router_mod._CHUNK = original
        assert [[t.order_id for t in b] for b in whole] == [
            [t.order_id for t in b] for b in chunked
        ]
