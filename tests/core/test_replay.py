"""Parity of the batched replay paths against the per-call online APIs.

The contract (core/replay.py, DESIGN.md "Performance"): one RNG draw per
arrival in arrival order, scalar decision distances, nearest-station
selection with the lowest-id tie-break — so every planner's batched path
must reproduce its per-call path bit for bit.
"""

import math

import numpy as np
import pytest

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
    checkpoint_schedule,
    constant_facility_cost,
    meyerson_placement,
    online_kmeans_placement,
    uniform_facility_cost,
)
from repro.core.penalty import TypeIPenalty
from repro.core.replay import DrawStream
from repro.core.tripblock import TripBlock
from repro.gauntlet import trips as demo_trips
from repro.geo import Point


def _points(rng, n, extent=5_000.0):
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, extent, (n, 2))]


def _with_duplicates(rng, stream, anchors):
    for i in range(0, len(stream), 61):
        stream[i] = anchors[i % len(anchors)]
    for i in range(1, len(stream), 83):
        stream[i] = stream[i - 1]
    return stream


def _setup(seed, n, backend="linear"):
    rng = np.random.default_rng(seed)
    anchors = _points(rng, int(rng.integers(3, 25)))
    historical = rng.uniform(0, 5_000.0, size=(1_200, 2))
    stream = _with_duplicates(rng, _points(rng, n), anchors)
    fc = uniform_facility_cost(700.0, np.random.default_rng(seed + 1))
    planner = EsharingPlanner(
        anchors, fc, historical, np.random.default_rng(seed + 2),
        EsharingConfig(nn_backend=backend),
    )
    return planner, stream


def _same_run(a, b):
    ra, rb = a.result(), b.result()
    assert ra.stations == rb.stations
    assert ra.assignment == rb.assignment
    assert ra.walking == rb.walking
    assert ra.space == rb.space
    assert ra.online_opened == rb.online_opened
    assert a.similarity_history == b.similarity_history
    assert a._cost_scale == b._cost_scale
    assert a._arrivals_since_check == b._arrivals_since_check
    for da, db in zip(a.decisions, b.decisions):
        assert da == db


class TestEsharingReplay:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_call(self, seed):
        per_call, stream = _setup(seed, 1_200)
        batched, _ = _setup(seed, 1_200)
        for p in stream:
            per_call.offer(p)
        batched.replay(stream)
        _same_run(per_call, batched)

    @pytest.mark.parametrize("backend", ("linear", "grid"))
    def test_backends(self, backend):
        per_call, stream = _setup(42, 900, backend=backend)
        batched, _ = _setup(42, 900, backend=backend)
        for p in stream:
            per_call.offer(p)
        batched.replay(stream)
        _same_run(per_call, batched)

    def test_interleaves_with_offer(self):
        per_call, stream = _setup(3, 1_500)
        mixed, _ = _setup(3, 1_500)
        for p in stream:
            per_call.offer(p)
        third = len(stream) // 3
        for p in stream[:third]:
            mixed.offer(p)
        mixed.replay(stream[third : 2 * third])
        for p in stream[2 * third :]:
            mixed.offer(p)
        _same_run(per_call, mixed)

    def test_trip_block_matches_per_call_on_trip_ends(self):
        # A TripBlock's destinations go in as columns, never as points.
        per_call, _ = _setup(5, 0)
        batched, _ = _setup(5, 0)
        trips = demo_trips(700, seed=5)
        for t in trips:
            per_call.offer(t.end)
        batched.replay(TripBlock.from_trips(trips[:300]))
        batched.replay(TripBlock.from_trips(trips[300:]))
        _same_run(per_call, batched)

    def test_empty_stream_is_noop(self):
        planner, _ = _setup(0, 10)
        scale = planner._cost_scale
        assert planner.replay([]) == []
        assert planner.decisions == []
        assert planner._cost_scale == scale


class TestBaselineBatched:
    @pytest.mark.parametrize("seed", range(6))
    def test_meyerson(self, seed):
        rng = np.random.default_rng(seed)
        stream = _points(rng, 800)
        stream = _with_duplicates(rng, stream, stream[:5])
        init = _points(rng, 4) if seed % 2 else None
        penalty = TypeIPenalty(200.0) if seed % 3 == 0 else None
        runs = {}
        for batched in (False, True):
            fc = uniform_facility_cost(500.0, np.random.default_rng(seed + 1))
            runs[batched] = meyerson_placement(
                stream, fc, np.random.default_rng(seed + 2),
                initial_stations=init, penalty=penalty, batched=batched,
            )
        assert runs[False].stations == runs[True].stations
        assert runs[False].assignment == runs[True].assignment
        assert runs[False].walking == runs[True].walking
        assert runs[False].space == runs[True].space

    @pytest.mark.parametrize("seed", range(6))
    def test_online_kmeans(self, seed):
        rng = np.random.default_rng(seed)
        stream = _points(rng, 800)
        stream = _with_duplicates(rng, stream, stream[:5])
        runs = {}
        for batched in (False, True):
            runs[batched] = online_kmeans_placement(
                stream, 10, constant_facility_cost(400.0),
                np.random.default_rng(seed + 3), batched=batched,
            )
        assert runs[False].stations == runs[True].stations
        assert runs[False].assignment == runs[True].assignment
        assert runs[False].walking == runs[True].walking
        assert runs[False].space == runs[True].space

    def test_kmeans_short_stream_warmup_only(self):
        rng = np.random.default_rng(9)
        stream = _points(rng, 5)
        a = online_kmeans_placement(
            stream, 10, constant_facility_cost(1.0), np.random.default_rng(0)
        )
        b = online_kmeans_placement(
            stream, 10, constant_facility_cost(1.0), np.random.default_rng(0),
            batched=True,
        )
        assert a.stations == b.stations and a.assignment == b.assignment


class TestReplayPrimitives:
    def test_uniform_stream_matches_scalar_draws(self):
        a = np.random.default_rng(1)
        b = np.random.default_rng(1)
        stream = DrawStream(a, 20_000)
        got = [stream.next() for _ in range(20_000)]
        want = [float(b.uniform()) for _ in range(20_000)]
        assert got == want
        with pytest.raises(RuntimeError):
            stream.next()

    @pytest.mark.parametrize(
        "counter,n,period",
        [(0, 100, 10), (3, 100, 10), (0, 50, 7.5), (2, 40, 3.0), (0, 5, 100)],
    )
    def test_checkpoint_schedule_matches_counter_loop(self, counter, n, period):
        fires = []
        c = counter
        for t in range(n):
            c += 1
            if c >= period:
                fires.append(t)
                c = 0
        assert checkpoint_schedule(counter, n, period) == fires
        if fires:
            assert n - 1 - fires[-1] == c

    def test_checkpoint_schedule_rejects_bad_period(self):
        with pytest.raises(ValueError):
            checkpoint_schedule(0, 10, 0)
