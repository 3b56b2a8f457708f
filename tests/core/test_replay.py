"""Parity of the cached online placement loops against per-call loops.

The contract (core/replay.py, DESIGN.md "Performance"): one RNG draw per
arrival in arrival order, scalar decision distances, nearest-station
selection with the lowest-id tie-break — so ``EsharingPlanner.replay``
must reproduce a loop of ``offer`` calls, and the two baselines the
per-arrival oracles in ``placement_oracle.py``, bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
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

from .placement_oracle import meyerson_per_call, online_kmeans_per_call


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

    @pytest.mark.parametrize("case", ["cost@0", "cost@37", "cost@700", "retired"])
    def test_raise_leaves_planner_as_offer_loop_does(self, case):
        # A raise at arrival k leaves decisions, counter, live window and
        # coin generator where the offer loop leaves them, and is the
        # offer loop's exception.
        rng = np.random.default_rng(11)
        anchors = _points(rng, 6)
        historical = rng.uniform(0, 5_000.0, size=(400, 2))
        stream = _points(rng, 1_000)
        bad = stream[5 + int(case.split("@")[1])] if "@" in case else None

        def cost(p):
            if p == bad:
                raise RuntimeError("no cost for this location")
            return 700.0

        runs = []
        for step in ("offer", "replay"):
            planner = EsharingPlanner(
                anchors, cost, historical, np.random.default_rng(12),
                EsharingConfig(beta=1.0),
            )
            for p in stream[:5]:
                planner.offer(p)
            if bad is None:
                for sid in planner.station_set.ids():
                    planner.remove_station(sid)
            with pytest.raises(Exception) as info:
                if step == "offer":
                    for p in stream[5:]:
                        planner.offer(p)
                else:
                    planner.replay(stream[5:])
            runs.append((planner, info.type))
        (a, ea), (b, eb) = runs
        assert ea is eb is (ValueError if bad is None else RuntimeError)
        assert a.decisions == b.decisions
        assert a._arrivals_since_check == b._arrivals_since_check
        assert a._cost_scale == b._cost_scale
        assert np.array_equal(a._live.array(), b._live.array())
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_empty_stream_is_noop(self):
        planner, _ = _setup(0, 10)
        scale = planner._cost_scale
        assert planner.replay([]) == []
        assert planner.decisions == []
        assert planner._cost_scale == scale


def _same_placement(a, b):
    assert a.stations == b.stations
    assert a.assignment == b.assignment
    assert a.walking == b.walking
    assert a.space == b.space
    assert a.online_opened == b.online_opened


class TestBaselineBatched:
    """The production baselines against their per-arrival oracles."""

    @pytest.mark.parametrize("seed", range(6))
    def test_meyerson(self, seed):
        rng = np.random.default_rng(seed)
        stream = _points(rng, 800)
        stream = _with_duplicates(rng, stream, stream[:5])
        init = _points(rng, 4) if seed % 2 else None
        penalty = TypeIPenalty(200.0) if seed % 3 == 0 else None
        runs = []
        for run in (meyerson_per_call, meyerson_placement):
            fc = uniform_facility_cost(500.0, np.random.default_rng(seed + 1))
            coins = np.random.default_rng(seed + 2)
            result = run(stream, fc, coins, initial_stations=init, penalty=penalty)
            runs.append((result, coins.bit_generator.state))
        (want, want_rng), (got, got_rng) = runs
        _same_placement(want, got)
        assert want_rng == got_rng

    @pytest.mark.parametrize("seed", range(6))
    def test_online_kmeans(self, seed):
        rng = np.random.default_rng(seed)
        stream = _points(rng, 800)
        stream = _with_duplicates(rng, stream, stream[:5])
        runs = []
        for run in (online_kmeans_per_call, online_kmeans_placement):
            coins = np.random.default_rng(seed + 3)
            result = run(stream, 10, constant_facility_cost(400.0), coins)
            runs.append((result, coins.bit_generator.state))
        (want, want_rng), (got, got_rng) = runs
        _same_placement(want, got)
        assert want_rng == got_rng

    @pytest.mark.parametrize("at", [0, 50, 199])
    @pytest.mark.parametrize("algorithm", ["meyerson", "online_kmeans"])
    def test_raise_leaves_rng_as_oracle_does(self, algorithm, at):
        # A cost that raises at arrival `at` leaves the coin generator
        # where the per-arrival loop leaves it.  The raising arrival is
        # far from every other, so online k-means opens it and asks for
        # its cost too.
        stream = _points(np.random.default_rng(21), 200)
        stream[at] = Point(1e7, 1e7)

        def cost(p):
            if p == stream[at]:
                raise RuntimeError("no cost for this location")
            return 400.0

        runs = {
            "meyerson": (meyerson_per_call, meyerson_placement),
            "online_kmeans": (online_kmeans_per_call, online_kmeans_placement),
        }[algorithm]
        states = []
        for run in runs:
            coins = np.random.default_rng(22)
            with pytest.raises(RuntimeError, match="no cost"):
                if algorithm == "meyerson":
                    run(stream, cost, coins)
                else:
                    run(stream, 10, cost, coins)
            states.append(coins.bit_generator.state)
        assert states[0] == states[1]

    def test_kmeans_short_stream_warmup_only(self):
        rng = np.random.default_rng(9)
        stream = _points(rng, 5)
        a = online_kmeans_per_call(
            stream, 10, constant_facility_cost(1.0), np.random.default_rng(0)
        )
        b = online_kmeans_placement(
            stream, 10, constant_facility_cost(1.0), np.random.default_rng(0)
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
        # Two anchors, so the checkpoint period beta * k is 2 * beta.
        rng = np.random.default_rng(17)
        planner = EsharingPlanner(
            _points(rng, 2), constant_facility_cost(700.0),
            rng.uniform(0, 5_000.0, size=(300, 2)), np.random.default_rng(18),
            EsharingConfig(beta=period / 2, reset_on_shift=False),
        )
        stream = _points(rng, counter + n)
        for p in stream[:counter]:
            planner.offer(p)
        scale = planner._cost_scale
        fires = 0
        c = counter
        for _ in range(n):
            c += 1
            if c >= period:
                fires += 1
                c = 0
        planner.replay(stream[counter:])
        assert planner._arrivals_since_check == c
        assert planner._cost_scale == scale * 2.0**fires

    def test_checkpoint_schedule_rejects_bad_period(self):
        # The period beta * k is at least k: beta below 1 is refused.
        for beta in (0.0, 0.5, 0.999):
            with pytest.raises(ValueError):
                EsharingConfig(beta=beta)
