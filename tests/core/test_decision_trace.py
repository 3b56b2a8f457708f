"""Algorithm 2's decision trace, as ``offer`` and ``replay`` keep it.

The per-arrival step ``EsharingPlanner.arrive`` records nothing; the
per-request API records one ``EsharingDecision`` per request, under
the penalty in force after the request's periodic check.  The pinned
digests hold ``esharing_placement`` and ``planner.result()`` to the
output they gave before the serve path stopped keeping a trace.
"""

import dataclasses
import hashlib
import json

import numpy as np

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
    constant_facility_cost,
    esharing_placement,
)
from repro.geo import Point

ANCHORS = [Point(float(x), float(y)) for x in (0, 1000, 2000) for y in (0, 1000, 2000)]
COST = constant_facility_cost(8000.0)
N = 600
PINNED_RESULT = "45405c807626521a"
PINNED_DECISIONS = "9ed8e7a47cb287bf"


def _stream(seed=0):
    """Uniform destinations that jump 6 km away half-way, so the periodic
    KS check switches the penalty mid-stream."""
    xy = np.random.default_rng(seed).uniform(0.0, 2000.0, size=(N, 2))
    xy[N // 2 :] += 6000.0
    return [Point(float(x), float(y)) for x, y in xy]


def _historical(seed=0):
    return np.random.default_rng(seed + 100).uniform(0.0, 2000.0, size=(300, 2))


def _planner(seed=0):
    return EsharingPlanner(
        ANCHORS, COST, _historical(seed), np.random.default_rng(seed + 1),
        EsharingConfig(beta=1.0),
    )


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _result_digest(result):
    return _digest([
        [[p.x, p.y] for p in result.stations], result.assignment,
        result.walking, result.space,
        [[d.location.x, d.location.y] for d in result.demands],
        result.online_opened,
    ])


def _fields(decisions):
    return [dataclasses.astuple(d) for d in decisions]


def test_offer_records_the_penalty_after_the_check():
    planner = _planner()
    switched = []
    for t, point in enumerate(_stream(), start=1):
        before = planner.penalty.name
        decision = planner.offer(point)
        assert decision.penalty_name == planner.penalty.name
        if decision.penalty_name != before:
            switched.append(t)
    period = int(planner.config.beta * planner.k)
    assert switched, "the penalty never switched"
    assert all(t % period == 0 for t in switched), switched


def test_offer_loop_and_replay_record_the_same_decisions():
    stream = _stream()
    looped, replayed, mixed = _planner(), _planner(), _planner()
    for point in stream:
        looped.offer(point)
    assert len(replayed.replay(stream)) == N
    mixed.replay(stream[:250])
    for point in stream[250:400]:
        mixed.offer(point)
    mixed.replay(stream[400:])
    want = _fields(looped.decisions)
    assert len(want) == N
    assert _fields(replayed.decisions) == want
    assert _fields(mixed.decisions) == want


def test_placement_and_result_are_pinned():
    stream = _stream()
    placed = esharing_placement(
        stream, ANCHORS, COST, _historical(), np.random.default_rng(1),
        EsharingConfig(beta=1.0),
    )
    planner = _planner()
    for point in stream:
        planner.offer(point)
    assert _result_digest(placed) == PINNED_RESULT
    assert _result_digest(planner.result()) == PINNED_RESULT
    assert _digest(_fields(planner.decisions)) == PINNED_DECISIONS
