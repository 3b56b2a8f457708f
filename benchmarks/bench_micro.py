"""Micro-benchmarks: each serve-path fast path against its slow reference.

One leg times one fast path against its slow reference and asserts
parity (same answers, bytes or state) before it accepts a number.
:data:`LEGS` is the table: a leg's function with its full and smoke
sizes.  :data:`GATES` holds the speedups a full run enforces.  A gate
whose ``min_cores`` is above the host's usable cores is recorded as
skipped: a wall-clock fan-out speedup on such a host measures the
scheduler, not the code.

* ``stream.*`` — the columnar trip stream against per-trip baselines:
  the oracles of ``tests/guard/reference.py`` (imported with the
  repository root on ``sys.path``, so run from a full checkout), one
  fsync per trip, and ``GuardedRuntime.serve`` at a block of one.
  ``stream.replay`` is the composed validate → reorder → journal
  (durable) → plan path; its per-trip side does one fsync per trip, so
  its ratio follows the host's fsync latency.
* ``serve.horizon`` — ``GuardedRuntime.ingest_many`` on the e2e
  ``steady`` config at several stream lengths, each in a fresh
  interpreter: trips/s, µs per trip in the first and last quarter, RSS
  growth and retained tracked objects per trip, and ``recover`` time.
  It has no speed gate; the recovered state and at most one retained
  object per served trip are checked at every length.
* ``placement.*`` — Algorithm 1's lazy JMS solver against the per-round
  rescan; Algorithm 2's cached ``EsharingPlanner.replay`` against one
  ``offer`` per arrival, plus one periodic KS check (``CachedKS2D``
  against a from-scratch ``ks2d_fast``); and the periodic KS check on
  a sliding live window, counts carried between checks against a
  fresh ``CachedKS2D`` per check.
* ``throughput.nn_backend`` — ``StationSet.nearest``, grid against
  linear.
* ``parallel.*`` — process fan-outs against their serial runs.
* ``shard.supervision`` — fault-free supervised epochs against the
  plain fleet's, with the post-epoch scrub's share of the time.
* ``loadgen.*`` — the overload saturation curve (exact accounting, and
  identity with an uncontrolled runtime below capacity), the vectorised
  scenario apply against its scalar oracle, and stream emission.

Usage::

    PYTHONPATH=src python benchmarks/bench_micro.py [leg ...] [--smoke | --committed]

A full run writes the legs it ran, and their gate verdicts, into
``BENCH_micro.json`` at the repository root (other legs' entries are
kept) and exits 1 when an enforced gate fails.  ``--smoke`` runs at
seconds scale and writes nothing; it fails on a parity break, on a
latency limit, or on ``stream.replay`` below its 2x floor.
``--committed`` runs no leg: it fails when a gate of the named legs
(default: all) reads ``fail`` in the committed ``BENCH_micro.json``.
``pytest benchmarks/bench_micro.py`` runs one smoke test per leg.
Exit codes: 0 pass, 1 a check failed, 2 unknown leg.
"""

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import gauntlet
from repro.core import (
    BACKENDS,
    EsharingConfig,
    EsharingPlanner,
    StationSet,
    constant_facility_cost,
    offline_placement,
    uniform_facility_cost,
)
from repro.core.streaming import PlacementService
from repro.core.tripblock import TripBlock
from repro.datasets import (
    QuarantineReport,
    load_mobike_csv,
    mobike_like_dataset,
    save_mobike_csv,
)
from repro.datasets.synthetic import SyntheticConfig
from repro.energy.fleet import Fleet
from repro.experiments import run_pipeline_sweep
from repro.gauntlet import COST_VALUE, PLANE, guard_config, logical_state
from repro.gauntlet.city import anchors, historical
from repro.geo.points import BoundingBox
from repro.guard import (
    DeadLetterSink,
    GuardedRuntime,
    OverloadConfig,
    TripValidator,
    ValidationConfig,
    WatermarkBuffer,
)
from repro.loadgen import ODConfig, TripStream, make_scenario
from repro.parallel import ParallelRunner, TaskSpec, spawn_seeds, usable_cores
from repro.parallel.cells import offline_cell, random_demand_points, random_points
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.journal import TripJournal
from repro.resilience.service import CheckpointingService, constant_cost_spec
from repro.resilience.scrub import scrub_tree
from repro.shard import FleetSupervisor
from repro.shard import supervisor as shard_supervisor
from repro.stats.ks2d import CachedKS2D, LiveWindow, ks2d_fast

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tests.guard.reference import ReferenceBuffer, ReferenceValidator  # noqa: E402

BENCH_JSON = ROOT / "BENCH_micro.json"
BLOCK = 256  # trips per columnar block in the stream legs
EXTENT_M = 8_000.0  # side of the placement legs' square


@dataclass(frozen=True)
class Gate:
    """A full run fails when ``leg``'s speedup is below ``bound``, on a
    host with at least ``min_cores`` usable cores."""

    leg: str
    bound: float
    min_cores: int = 0


GATES = (
    Gate("stream.replay", 10.0),
    Gate("placement.offline", 5.0),  # at 2,000 demands
    Gate("placement.replay", 3.0),  # at 100,000 arrivals
    Gate("placement.ks_slide", 1.2),  # history 200, window 200, period 32
    Gate("throughput.nn_backend", 3.0),  # at 10,000 stations
    Gate("parallel.placement", 1.6, min_cores=4),  # at 4 workers
    Gate("loadgen.apply", 5.0, min_cores=4),
)
SMOKE_FLOORS = {"stream.replay": 2.0}
# Latency limits checked at every size, like parity: Algorithm 2 serves
# per-call offers at >= 1,000 a second (a 500-offer burst in 0.5 s), and
# one periodic KS check (800 vs 800 points) takes under 0.5 s.
OFFER_RATE_FLOOR = 1_000.0
KS_CHECK_LIMIT_S = 0.5
# Checked at every serve.horizon length: the serve path keeps one object
# per served trip, its response.  One-off objects (an opened station's
# location, rack and charge heap) stay well under the margin, while any
# second object kept per trip would read 2.
RETAINED_PER_TRIP_LIMIT = 1.1
HORIZON_BLOCK = 128  # the e2e steady workload's block
GATE_WORKERS = 4  # the fan-out legs report their speedup at this count


# ----------------------------------------------------------------------
# Shared pieces.
# ----------------------------------------------------------------------

def _check(ok, message):
    if not ok:
        raise AssertionError(message)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _ratio(what, n, slow_s, fast_s, **extra):
    return {
        "what": what, "n": n, "slow_s": slow_s, "fast_s": fast_s,
        "slow_per_s": n / slow_s, "fast_per_s": n / fast_s,
        "speedup": slow_s / fast_s, **extra,
    }


def _blocks(trips):
    return [
        TripBlock.from_trips(trips[lo : lo + BLOCK])
        for lo in range(0, len(trips), BLOCK)
    ]


def _validator(cls=TripValidator, max_bike_speed_mps=0.0):
    return cls(
        ValidationConfig(
            bounds=BoundingBox(-100.0, -100.0, PLANE + 100.0, PLANE + 100.0),
            max_backwards_s=3600.0,
            max_bike_speed_mps=max_bike_speed_mps,
        ),
        sink=DeadLetterSink(),
    )


def _planner(seed):
    # beta and history_window set the periodic KS cadence and sample
    # size, the same on both sides of every comparison.
    return EsharingPlanner(
        anchors(), constant_facility_cost(COST_VALUE), historical(seed),
        np.random.default_rng(seed + 1),
        EsharingConfig(beta=8.0, history_window=100),
    )


def _steady_runtime(directory, seed):
    """The e2e ``steady`` config: ``_planner``'s city, 120 bikes, a
    durable journal and a checkpoint every 500 trips."""
    planner = _planner(seed)
    bikes = Fleet(planner.stations, n_bikes=120, rng=np.random.default_rng(seed + 2))
    return GuardedRuntime(
        CheckpointingService(
            PlacementService(planner, bikes), directory,
            checkpoint_every=500, durable=True,
            facility_cost_spec=constant_cost_spec(COST_VALUE),
        ),
        guard_config(),
    )


def _same_placement(a, b):
    return (a.stations, a.assignment, a.walking, a.space) == (
        b.stations, b.assignment, b.walking, b.space
    )


def _fanout(what, counts, run, **extra):
    """Run ``run(count) -> (answer, seconds)`` at each count; the first
    count is the baseline, and every answer must equal its answer."""
    sweep, base, base_s = [], None, None
    for count in counts:
        answer, seconds = run(count)
        if base_s is None:
            base, base_s = answer, seconds
        _check(answer == base, f"{what}: diverged from serial at {count}")
        sweep.append(
            {"workers": count, "seconds": seconds, "speedup": base_s / seconds}
        )
    at_gate = [r["speedup"] for r in sweep if r["workers"] == GATE_WORKERS]
    return {
        "what": what, "speedup": at_gate[0] if at_gate else None,
        "sweep": sweep, **extra,
    }


# ----------------------------------------------------------------------
# stream.*: the columnar trip stream.
# ----------------------------------------------------------------------

def stream_validator(workdir, n, max_bike_speed_mps=0.0, seed=3):
    """``admit_block`` vs the per-trip reference on a chaos-mutated
    stream, so the reject paths run too."""
    stream = FaultInjector(ChaosConfig(
        seed=seed, p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
        p_clock_skew=0.02, skew_max_s=900.0, p_garbage=0.03,
        p_late=0.02, late_max_positions=8,
    )).mutate_trips(gauntlet.trips(n, seed=seed))
    blocks = _blocks(stream)
    slow = _validator(ReferenceValidator, max_bike_speed_mps)
    want, slow_s = _timed(lambda: [slow.admit(t) for t in stream])
    fast = _validator(max_bike_speed_mps=max_bike_speed_mps)
    got, fast_s = _timed(
        lambda: [bool(b) for blk in blocks for b in fast.admit_block(blk)]
    )
    _check(
        got == want and fast.counters == slow.counters
        and fast.sink.rows == slow.sink.rows,
        "blocked validator diverged from the per-trip reference",
    )
    return _ratio(
        f"TripValidator.admit_block vs per-trip admit "
        f"(max_bike_speed_mps={max_bike_speed_mps})",
        len(stream), slow_s, fast_s,
        rejected=slow.rejected, teleport_rejected=slow.counters["teleport"],
    )


def _buffers(stream, lateness_s, max_pending):
    """Push ``stream`` through the per-trip reference buffer and, in
    blocks, through ``WatermarkBuffer``; the release orders must match."""
    blocks = _blocks(stream)
    slow = ReferenceBuffer(lateness_s=lateness_s, max_pending=max_pending)
    want, slow_s = _timed(
        lambda: [r for t in stream for r in slow.push(t)] + slow.flush()
    )
    fast = WatermarkBuffer(lateness_s=lateness_s, max_pending=max_pending)
    (released, tail), fast_s = _timed(
        lambda: ([fast.push_block(b) for b in blocks], fast.flush())
    )
    # Released blocks go downstream as blocks; converting them for the
    # parity check is not timed.
    got = [t for blk in released + [tail] for t in blk.to_trips()]
    key = lambda t: (t.order_id, t.start_time)  # noqa: E731
    _check(
        [key(t) for t in got] == [key(t) for t in want],
        "blocked buffer release order diverged from the per-trip reference",
    )
    return slow, fast, blocks, slow_s, fast_s


def stream_buffer(workdir, n, seed=4):
    """A sorted stream: the fast path releases zero-copy block slices."""
    _, _, blocks, slow_s, fast_s = _buffers(
        gauntlet.trips(n, seed=seed), 600.0, 10_000
    )
    probe = WatermarkBuffer(lateness_s=0.0, max_pending=10_000)
    _check(
        np.shares_memory(probe.push_block(blocks[0]).start_us, blocks[0].start_us),
        "sorted fast path copied instead of slicing",
    )
    return _ratio(
        "WatermarkBuffer.push_block vs per-trip heap, sorted stream",
        n, slow_s, fast_s,
    )


def stream_buffer_full(workdir, n, max_pending, seed=9):
    """A locally shuffled stream whose lateness (one trip per 30 s) keeps
    about ``max_pending - 64`` trips held, next to the capacity cap."""
    trips = gauntlet.trips(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    order = np.argsort(np.arange(n) + rng.uniform(0.0, 16.0, n), kind="stable")
    slow, fast, _, slow_s, fast_s = _buffers(
        [trips[i] for i in order], 30.0 * (max_pending - 64), max_pending
    )
    counts = lambda b: (b.admitted, b.emitted, b.too_late, b.shed)  # noqa: E731
    _check(
        counts(fast) == counts(slow) and fast.sink.rows == slow.sink.rows,
        "blocked buffer accounting diverged from the per-trip reference",
    )
    return _ratio(
        "WatermarkBuffer.push_block vs per-trip heap, held near max_pending",
        n, slow_s, fast_s,
        max_pending=max_pending, too_late=slow.too_late, shed=slow.shed,
    )


def stream_journal(workdir, n, seed=5):
    """Group commit (one write+fsync per block) vs one fsync per trip."""
    stream = gauntlet.trips(n, seed=seed)
    blocks = _blocks(stream)

    def write(name, items, append):
        journal = TripJournal(workdir / name, durable=True)
        for item in items:
            append(journal, item)
        journal.close()

    _, slow_s = _timed(write, "per-trip.jsonl", stream, TripJournal.append)
    _, fast_s = _timed(write, "blocked.jsonl", blocks, TripJournal.append_block)
    _check(
        (workdir / "blocked.jsonl").read_bytes()
        == (workdir / "per-trip.jsonl").read_bytes(),
        "group-commit journal bytes diverged from per-trip",
    )
    return _ratio(
        "TripJournal.append_block vs append (durable)", n, slow_s, fast_s,
        fsyncs_slow=n, fsyncs_fast=len(blocks),
    )


def stream_replay(workdir, n, seed=6):
    """The composed guarded hot path: validate → reorder → journal
    (durable) → plan, per trip with ``offer`` vs in blocks with
    ``replay``.  Journal bytes, planner decisions and planner state must
    match before the ratio counts."""
    stream = gauntlet.trips(n, seed=seed)
    blocks = _blocks(stream)

    v1 = _validator(ReferenceValidator)
    b1 = ReferenceBuffer(lateness_s=600.0, max_pending=10_000)
    p1 = _planner(seed)
    j1 = TripJournal(workdir / "per-trip.jsonl", durable=True)

    def per_trip():
        for trip in stream:
            if v1.admit(trip):
                for rel in b1.push(trip):
                    j1.append(rel)
                    p1.offer(rel.end)
        for rel in b1.flush():
            j1.append(rel)
            p1.offer(rel.end)
        j1.close()

    v2 = _validator()
    b2 = WatermarkBuffer(lateness_s=600.0, max_pending=10_000)
    p2 = _planner(seed)
    j2 = TripJournal(workdir / "blocked.jsonl", durable=True)

    def blocked():
        for blk in blocks:
            mask = v2.admit_block(blk)
            accepted = blk if bool(mask.all()) else blk.take(np.flatnonzero(mask))
            released = b2.push_block(accepted)
            if len(released):
                j2.append_block(released)
                p2.replay(released)
        tail = b2.flush()
        if len(tail):
            j2.append_block(tail)
            p2.replay(tail)
        j2.close()

    _, slow_s = _timed(per_trip)
    _, fast_s = _timed(blocked)
    _check(
        (workdir / "blocked.jsonl").read_bytes()
        == (workdir / "per-trip.jsonl").read_bytes(),
        "composed path journal bytes diverged",
    )
    _check(p2.decisions == p1.decisions, "composed path planner decisions diverged")
    _check(
        (p2.walking, p2.space, p2.online_opened)
        == (p1.walking, p1.space, p1.online_opened),
        "composed path planner state diverged",
    )
    return _ratio(
        "validate+reorder+journal(durable)+plan, blocked vs per trip",
        n, slow_s, fast_s,
        decisions=len(p1.decisions), stations_opened=len(p1.online_opened),
    )


def stream_serve(workdir, n, seed=7):
    """``GuardedRuntime.serve`` end to end with a durable journal, at a
    block of 256 vs a block of one (the same serve path).  The planner
    step runs row by row in either case (a pickup may retire a station
    before the next row); only its draws are per block, which bounds
    this ratio."""
    stream = gauntlet.trips(n, seed=seed)
    runs = []
    for size in (1, BLOCK):
        runtime = _steady_runtime(workdir / f"block-{size}", seed)
        _, seconds = _timed(runtime.serve, stream, block_size=size)
        runs.append((runtime, seconds))
    (one, slow_s), (blocked, fast_s) = runs
    _check(
        blocked.inner.service.responses == one.inner.service.responses,
        "serve responses diverged across block sizes",
    )
    _check(
        logical_state(blocked.inner.service) == logical_state(one.inner.service),
        "serve state diverged across block sizes",
    )
    _check(
        (blocked.inner.directory / "journal.jsonl").read_bytes()
        == (one.inner.directory / "journal.jsonl").read_bytes(),
        "serve journal bytes diverged across block sizes",
    )
    one.close()
    blocked.close()
    return _ratio(
        f"GuardedRuntime.serve, block {BLOCK} vs block 1 (durable)",
        n, slow_s, fast_s,
    )


def _rss_bytes():
    """This process's resident set size, or ``None`` off Linux."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return None


def _horizon_run(directory, n, seed):
    """One ``serve.horizon`` length in this process: the e2e ``steady``
    config (16 anchors, beta 8, 120 bikes, durable, a checkpoint every
    500 trips; :func:`_steady_runtime`) serves ``n`` clean trips through
    ``GuardedRuntime.ingest_many`` in blocks of 128, then
    ``CheckpointingService.recover`` reads the directory back.

    Tracked objects are counted (after a full collection, outside the
    timed calls) once half the stream is served and again at the end,
    so first-use caches (the first checkpoint's among them) and the
    early online openings stay out of the per-trip figure.  RSS growth is
    the rise in resident set size while serving (``None`` where
    ``/proc/self/statm`` is missing: a peak-RSS counter would carry the
    parent process's peak into the child).
    """
    directory = Path(directory)
    stream = gauntlet.trips(n, seed=seed)
    runtime = _steady_runtime(directory, seed)
    responses = runtime.inner.service.responses
    quarter = n // 4
    seconds, sizes = [0.0] * 4, [0] * 4  # per quarter of the stream
    counted = None
    rss_before = _rss_bytes()
    for lo in range(0, n, HORIZON_BLOCK):
        if counted is None and lo >= n // 2:
            gc.collect()
            counted = (len(gc.get_objects()), len(responses))
        chunk = stream[lo : lo + HORIZON_BLOCK]
        _, took = _timed(runtime.ingest_many, chunk, block_size=HORIZON_BLOCK)
        q = min(lo // quarter, 3)
        seconds[q] += took
        sizes[q] += len(chunk)
    runtime.finish()
    rss_after = _rss_bytes()
    gc.collect()
    served = len(responses) - counted[1]
    retained = (len(gc.get_objects()) - counted[0]) / served
    live = logical_state(runtime.inner.service)
    runtime.close()
    recovered, recover_s = _timed(CheckpointingService.recover, directory, durable=True)
    _check(logical_state(recovered.service) == live,
           f"recovered state diverged from the live run at {n} trips")
    recovered.close()
    _check(
        retained <= RETAINED_PER_TRIP_LIMIT,
        f"{retained:.3f} tracked objects retained per served trip at {n} "
        f"trips, limit {RETAINED_PER_TRIP_LIMIT}",
    )
    return {
        "trips": n, "trips_per_s": n / sum(seconds),
        "us_per_trip_q1": 1e6 * seconds[0] / sizes[0],
        "us_per_trip_q4": 1e6 * seconds[3] / sizes[3],
        "rss_growth_b_per_trip": (
            None if rss_before is None else (rss_after - rss_before) / n
        ),
        "retained_per_trip": retained, "recover_s": recover_s,
    }


def serve_horizon(workdir, lengths, seed=0):
    """The serve path at several stream lengths, each in a fresh
    interpreter, one at a time (see :func:`_horizon_run`): super-linear
    time or memory shows as a q4 cost or a per-trip figure that grows
    with the length.  No speed gate; the recovered state and the
    per-trip object retention are checked at every length."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    sweep = []
    for n in lengths:
        code = (
            "import json, runpy; "
            f"leg = runpy.run_path({str(Path(__file__).resolve())!r}); "
            f"print(json.dumps(leg['_horizon_run']({str(workdir / str(n))!r}, {n}, {seed})))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        _check(proc.returncode == 0, f"serve.horizon at {n} trips: {proc.stderr.strip()}")
        sweep.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "what": "GuardedRuntime.ingest_many (steady config) by stream length",
        "sweep": sweep,
    }


# ----------------------------------------------------------------------
# placement.* and throughput.*: Algorithms 1 and 2, nearest station.
# ----------------------------------------------------------------------

def placement_offline(workdir, sizes, seed=0):
    """Lazy vs reference JMS solve over an instance-size sweep; results
    must be identical.  The lazy side is the solver's latency."""
    rng = np.random.default_rng(seed)
    sweep = []
    for n in sizes:
        demands = random_demand_points(rng, n, EXTENT_M)
        ref, slow_s = _timed(
            offline_placement, demands, constant_facility_cost(6_000.0),
            strategy="reference",
        )
        lazy, fast_s = _timed(
            offline_placement, demands, constant_facility_cost(6_000.0),
            strategy="lazy",
        )
        _check(_same_placement(ref, lazy), f"offline strategies diverged at n={n}")
        sweep.append({
            "demands": n, "stations": len(lazy.stations),
            "slow_s": slow_s, "fast_s": fast_s, "speedup": slow_s / fast_s,
        })
    return {
        "what": "offline_placement lazy vs reference",
        "speedup": sweep[-1]["speedup"], "sweep": sweep,
    }


def _offer_each(planner, stream):
    for p in stream:
        planner.offer(p)


def placement_replay(workdir, sizes, n_anchors, seed=0):
    """Per-call ``offer`` loop vs cached ``replay`` from identical RNG
    streams, then one periodic KS check (800 vs 800 points)."""
    rng = np.random.default_rng(seed)
    sites = random_points(rng, n_anchors, EXTENT_M)
    past = rng.uniform(0, EXTENT_M, size=(5_000, 2))
    sweep = []
    for n in sizes:
        stream = random_points(rng, n, EXTENT_M)
        runs = []
        for run in (_offer_each, EsharingPlanner.replay):
            planner = EsharingPlanner(
                sites, uniform_facility_cost(800.0, np.random.default_rng(seed + 1)),
                past, np.random.default_rng(seed + 2), EsharingConfig(),
            )
            _, seconds = _timed(run, planner, stream)
            runs.append((planner.result(), seconds))
        (want, slow_s), (got, fast_s) = runs
        _check(_same_placement(want, got), f"replay diverged from offer at n={n}")
        _check(
            n / slow_s >= OFFER_RATE_FLOOR,
            f"offer served {n / slow_s:.0f}/s at n={n}, below {OFFER_RATE_FLOOR:.0f}/s",
        )
        sweep.append({
            "arrivals": n, "stations": len(got.stations),
            "slow_s": slow_s, "fast_s": fast_s, "speedup": slow_s / fast_s,
            "offers_per_s": n / slow_s,
        })
    ks_rng = np.random.default_rng(2)
    a, b = ks_rng.normal(size=(800, 2)), ks_rng.normal(loc=0.3, size=(800, 2))
    want, ks_slow_s = _timed(ks2d_fast, a, b)
    got, ks_fast_s = _timed(CachedKS2D(a).test, b)
    _check(got == want, "cached KS check diverged from ks2d_fast")
    _check(
        ks_slow_s < KS_CHECK_LIMIT_S,
        f"KS check took {ks_slow_s:.3f} s, limit {KS_CHECK_LIMIT_S} s",
    )
    return {
        "what": "EsharingPlanner.replay vs per-call offer",
        "speedup": sweep[-1]["speedup"], "sweep": sweep,
        "ks_check": {
            "points": 800, "slow_s": ks_slow_s, "fast_s": ks_fast_s,
            "speedup": ks_slow_s / ks_fast_s,
        },
    }


def placement_ks_slide(workdir, n_hist, window, period, checks, seed=0):
    """Algorithm 2's periodic KS check on a sliding live window: one
    ``CachedKS2D`` carried across every check against a fresh cache per
    check (counting from scratch).  Both must equal ``ks2d_fast`` at
    every check; only the ``test`` calls are timed."""
    rng = np.random.default_rng(seed)
    past = rng.normal(size=(n_hist, 2))
    arrivals = rng.normal(loc=0.2, size=(window + period * checks, 2))
    carried, live = CachedKS2D(past), LiveWindow(window)
    slow_s = fast_s = 0.0
    for t, (x, y) in enumerate(arrivals.tolist(), 1):
        live.push(x, y)
        if t <= window or (t - window) % period:
            continue
        sample, fresh = live.array(), CachedKS2D(past)
        want, seconds = _timed(fresh.test, sample)
        slow_s += seconds
        got, seconds = _timed(carried.test, sample)
        fast_s += seconds
        _check(
            got == want == ks2d_fast(past, sample),
            f"carried KS check diverged at arrival {t}",
        )
    return _ratio(
        "CachedKS2D.test carried vs fresh per check", checks, slow_s, fast_s,
        slow_us_per_check=1e6 * slow_s / checks,
        fast_us_per_check=1e6 * fast_s / checks,
    )


def throughput_nn_backend(workdir, counts, n_queries, seed=0, extent_m=30_000.0):
    """``StationSet.nearest`` per backend over a station-count sweep, on
    one seeded query stream; both backends must answer the same ids."""
    rng = np.random.default_rng(seed)
    sweep = []
    for n in counts:
        stations = random_points(rng, n, extent_m)
        queries = random_points(rng, n_queries, extent_m)
        answers, rates = {}, {}
        for backend in BACKENDS:
            # Cells near the mean station spacing keep ring expansions short.
            store = StationSet(stations, backend=backend, cell_size=extent_m / math.sqrt(n))
            answers[backend], seconds = _timed(
                lambda: [store.nearest(q)[0] for q in queries]
            )
            rates[backend] = n_queries / seconds
        _check(answers["grid"] == answers["linear"], f"backends diverged at n={n}")
        sweep.append({
            "stations": n, "queries": n_queries,
            "linear_per_s": rates["linear"], "grid_per_s": rates["grid"],
            "speedup": rates["grid"] / rates["linear"],
        })
    return {
        "what": "StationSet.nearest, grid vs linear",
        "speedup": sweep[-1]["speedup"], "sweep": sweep,
    }


# ----------------------------------------------------------------------
# parallel.*: fan-outs against serial.
# ----------------------------------------------------------------------

def parallel_placement(workdir, workers, n_cells, n_demands):
    tasks = [
        TaskSpec(offline_cell, kwargs={"seed": ss, "n_demands": n_demands},
                 label=f"offline[{i}]")
        for i, ss in enumerate(spawn_seeds(0, n_cells))
    ]
    return _fanout(
        "offline placement cells over ParallelRunner", workers,
        lambda w: _timed(
            lambda: [c["digest"] for c in ParallelRunner(w).run(tasks)]
        ),
        cells=n_cells, demands_per_cell=n_demands,
    )


def parallel_ingest(workdir, workers, n_weekday, n_malformed=8, seed=11):
    """Sharded CSV ingest of a synthetic Mobike file with malformed rows;
    records and quarantine report must match the serial load."""
    path = workdir / "trips.csv"
    save_mobike_csv(mobike_like_dataset(
        seed=seed, days=3,
        config=SyntheticConfig(
            trips_per_weekday=n_weekday, trips_per_weekend_day=n_weekday
        ),
    ), path)
    lines = path.read_text().splitlines(keepends=True)
    rng = np.random.default_rng(seed)
    for row in rng.choice(len(lines) - 1, size=n_malformed, replace=False) + 1:
        parts = lines[row].split(",")
        parts[5] = "!!badgeohash"
        lines[row] = ",".join(parts)
    path.write_text("".join(lines))

    def load(w):
        report = QuarantineReport()
        dataset, seconds = _timed(
            load_mobike_csv, path, on_error="quarantine", quarantine=report,
            workers=w,
        )
        _check(len(report.rows) == n_malformed, "malformed rows not quarantined")
        return (list(dataset), report.rows), seconds

    return _fanout(
        "load_mobike_csv over a process pool", workers, load, rows=len(lines) - 1
    )


def parallel_pipeline(workdir, workers, seeds, volume):
    def sweep(w):
        result, seconds = _timed(run_pipeline_sweep, seeds, volume=volume, workers=w)
        return (result.rows, [c["digest"] for c in result.extras["cells"]]), seconds

    return _fanout(
        "run_pipeline_sweep seed grid over a process pool", workers, sweep,
        seeds=list(seeds), volume=volume,
    )


def shard_supervision(workdir, n_trips, n_epochs=10, n_shards=2, seed=0):
    """Fault-free supervised epochs vs the plain fleet's, scrub on: no
    restart, and journal bytes identical shard by shard after every
    epoch.  Reports each side's mean epoch time over the first and the
    last three epochs, and the post-epoch scrub's share of the
    supervised time."""
    trips = gauntlet.trips(n_trips, seed=seed)
    cut = n_trips // n_epochs
    epochs = [trips[i * cut:(i + 1) * cut] for i in range(n_epochs)]
    plain = gauntlet.fleet(n_shards, workdir / "plain", seed=seed, durable=True)
    supervisor = FleetSupervisor(
        gauntlet.fleet(n_shards, workdir / "supervised", seed=seed, durable=True)
    )
    scrub_s = []

    def timed_scrub(*args, **kwargs):
        report, seconds = _timed(scrub_tree, *args, **kwargs)
        scrub_s.append(seconds)
        return report

    plain_s, supervised_s = [], []
    with plain, supervisor.fleet, mock.patch.object(
        shard_supervisor, "scrub_tree", timed_scrub
    ):
        for e, epoch in enumerate(epochs):
            plain_s.append(_timed(plain.serve, epoch)[1])
            outcome, seconds = _timed(supervisor.serve, epoch)
            supervised_s.append(seconds)
            _check(
                not (outcome.restarts or outcome.quarantined),
                f"fault-free epoch {e} restarted",
            )
            for sid in range(n_shards):
                name = f"shard-{sid:03d}/journal.jsonl"
                _check(
                    (workdir / "supervised" / name).read_bytes()
                    == (workdir / "plain" / name).read_bytes(),
                    f"supervised journal diverged after epoch {e}: {name}",
                )
    _check(len(scrub_s) == n_epochs, "the supervisor skipped a post-epoch scrub")

    # Not a speedup: the supervised side is the slower one.
    return {
        "what": "FleetSupervisor.serve vs plain fleet epochs, fault-free, scrub on",
        "trips": n_trips, "epochs": n_epochs, "shards": n_shards,
        "plain_s": sum(plain_s), "supervised_s": sum(supervised_s),
        "overhead": sum(supervised_s) / sum(plain_s) - 1.0,
        "plain_first3_s": sum(plain_s[:3]) / 3,
        "plain_last3_s": sum(plain_s[-3:]) / 3,
        "supervised_first3_s": sum(supervised_s[:3]) / 3,
        "supervised_last3_s": sum(supervised_s[-3:]) / 3,
        "scrub_share": sum(scrub_s) / sum(supervised_s),
    }


# ----------------------------------------------------------------------
# loadgen.*: offered load, scenario apply, stream emission.
# ----------------------------------------------------------------------

BASE_TRIPS_PER_HOUR = 2400.0


def _runtime(directory, seed, overload):
    return GuardedRuntime(
        CheckpointingService(
            gauntlet.service(seed), directory, checkpoint_every=500,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        ),
        guard_config(overload),
    )


def loadgen_saturation(workdir, multipliers, duration_s, seed=0, block=64):
    """Serve each offered-load multiple through admission sized to 1.6x
    the 1x rate.  Accounting must be exact at every point; at or below
    1x, no control may engage and the run must match an uncontrolled
    runtime (responses and state).  ``block`` is arrival-scale, so the
    token bucket sees minutes of traffic per offer."""
    rate = 1.6 * BASE_TRIPS_PER_HOUR / 3600.0
    overload = OverloadConfig(
        rate_per_s=rate, burst=max(32, int(round(rate * 180.0))), queue_limit=400
    )
    sweep = []
    for mult in multipliers:
        od = ODConfig(
            bounds=gauntlet.BOUNDS, trips_per_hour=BASE_TRIPS_PER_HOUR * mult
        )
        records = TripStream(
            od, make_scenario("baseline", od.bounds, duration_s), seed=seed
        ).records(duration_s)
        runtime = _runtime(workdir / f"{mult}x", seed, overload)
        outcomes, seconds = _timed(runtime.serve, records, block_size=block)
        runtime.consistency_check()
        offered, ctrl = runtime.validator.offered, runtime.overload
        accounted = (
            runtime.served + runtime.duplicates + runtime.sink.total
            + len(runtime.deferred_decisions) + len(runtime.degraded_decisions)
        )
        _check(
            offered == len(records) == accounted,
            f"accounting drift at {mult}x: {len(records)} in, {offered} "
            f"offered, {accounted} accounted",
        )
        if mult <= 1.0:
            _check(
                not (ctrl.shed or ctrl.deferred or ctrl.transitions),
                f"control engaged below capacity ({mult}x)",
            )
            oracle = _runtime(workdir / f"{mult}x-oracle", seed, None)
            _check(
                oracle.serve(records, block_size=block) == outcomes
                and logical_state(oracle.inner.service)
                == logical_state(runtime.inner.service),
                f"diverged from the uncontrolled runtime at {mult}x",
            )
            oracle.close()
        runtime.close()
        sweep.append({
            "multiplier": mult, "offered": offered, "served": runtime.served,
            "shed": ctrl.shed, "deferred": ctrl.deferred,
            "deadlettered": runtime.sink.total,
            "ladder_transitions": len(ctrl.transitions),
            "seconds": seconds, "trips_per_s": offered / seconds,
            "served_rate_per_s": runtime.served / duration_s,
        })
    return {
        "what": "overload saturation: offered load vs served rate",
        "admission_rate_per_s": rate, "duration_s": duration_s, "sweep": sweep,
    }


def loadgen_apply(workdir, n_target, seed=0):
    """Vectorised ``ScenarioSchedule.apply`` vs its scalar oracle on one
    block; the rewritten destinations must match bit for bit."""
    od = ODConfig(
        bounds=gauntlet.BOUNDS, trips_per_hour=2.0 * n_target, step_s=1800.0
    )
    schedule = make_scenario("weather", od.bounds, duration_s=1800.0)
    block = max(TripStream(od, schedule, seed=seed).blocks(1800.0), key=len)
    fast, fast_s = _timed(schedule.apply, block, np.random.default_rng(seed))
    slow, slow_s = _timed(schedule.apply_scalar, block, np.random.default_rng(seed))
    _check(
        np.array_equal(fast.end_x, slow.end_x)
        and np.array_equal(fast.end_y, slow.end_y),
        "vectorised scenario apply diverged from scalar",
    )
    return _ratio(
        "ScenarioSchedule.apply vs apply_scalar", len(block), slow_s, fast_s
    )


def loadgen_generation(workdir, n_target, seed=0):
    """``TripStream.blocks`` emission rate with the festival scenario on;
    a second stream from the same seed must emit the same rows."""
    od = ODConfig(bounds=gauntlet.BOUNDS, trips_per_hour=float(n_target), step_s=60.0)
    schedule = make_scenario("festival", od.bounds, duration_s=3600.0)
    emit = lambda: list(TripStream(od, schedule, seed=seed).blocks(3600.0))  # noqa: E731
    blocks, seconds = _timed(emit)
    again = emit()
    _check(
        len(again) == len(blocks) and all(
            np.array_equal(a.order_id, b.order_id) and np.array_equal(a.end_x, b.end_x)
            for a, b in zip(blocks, again)
        ),
        "seeded stream emission is not reproducible",
    )
    rows = sum(len(b) for b in blocks)
    return {
        "what": "TripStream emission (festival scenario)",
        "rows": rows, "seconds": seconds, "rows_per_s": rows / seconds,
    }


# ----------------------------------------------------------------------
# The table and the harness.
# ----------------------------------------------------------------------

#: leg name -> (function, full sizes, smoke sizes)
LEGS = {
    "stream.validator": (stream_validator, {"n": 40_000}, {"n": 4_000}),
    "stream.validator_teleport": (
        stream_validator,
        {"n": 40_000, "max_bike_speed_mps": 1.0},
        {"n": 4_000, "max_bike_speed_mps": 1.0},
    ),
    "stream.buffer": (stream_buffer, {"n": 40_000}, {"n": 4_000}),
    "stream.buffer_full": (
        stream_buffer_full,
        {"n": 40_000, "max_pending": 10_000},
        {"n": 4_000, "max_pending": 1_000},
    ),
    "stream.journal": (stream_journal, {"n": 8_000}, {"n": 1_500}),
    "stream.replay": (stream_replay, {"n": 20_000}, {"n": 4_000}),
    "stream.serve": (stream_serve, {"n": 4_000}, {"n": 500}),
    "serve.horizon": (
        serve_horizon,
        {"lengths": (4_000, 16_000, 64_000)},
        {"lengths": (1_000, 4_000)},
    ),
    "placement.offline": (
        placement_offline,
        {"sizes": (250, 500, 1_000, 2_000)},
        {"sizes": (120, 300), "seed": 3},
    ),
    "placement.replay": (
        placement_replay,
        {"sizes": (10_000, 100_000), "n_anchors": 150},
        {"sizes": (3_000,), "n_anchors": 40, "seed": 4},
    ),
    "placement.ks_slide": (
        placement_ks_slide,
        {"n_hist": 200, "window": 200, "period": 32, "checks": 400},
        {"n_hist": 200, "window": 200, "period": 32, "checks": 40},
    ),
    "throughput.nn_backend": (
        throughput_nn_backend,
        {"counts": (1_000, 3_000, 10_000), "n_queries": 500},
        {"counts": (500, 2_000), "n_queries": 200},
    ),
    "parallel.placement": (
        parallel_placement,
        {"workers": (1, 2, 4, 8), "n_cells": 12, "n_demands": 500},
        {"workers": (1, 2), "n_cells": 4, "n_demands": 150},
    ),
    "parallel.ingest": (
        parallel_ingest,
        {"workers": (1, 2, 4, 8), "n_weekday": 6_000},
        {"workers": (1, 2), "n_weekday": 400},
    ),
    "parallel.pipeline": (
        parallel_pipeline,
        {"workers": (1, 2, 4), "seeds": (0, 1, 2, 3), "volume": 400},
        {"workers": (1, 2), "seeds": (0, 1), "volume": 200},
    ),
    "shard.supervision": (shard_supervision, {"n_trips": 2_000}, {"n_trips": 400}),
    "loadgen.saturation": (
        loadgen_saturation,
        {"multipliers": (0.5, 1.0, 2.0, 4.0, 8.0), "duration_s": 1800.0},
        {"multipliers": (0.5, 4.0), "duration_s": 600.0},
    ),
    "loadgen.apply": (loadgen_apply, {"n_target": 20_000}, {"n_target": 4_000}),
    "loadgen.generation": (
        loadgen_generation, {"n_target": 50_000}, {"n_target": 5_000}
    ),
}


def run_leg(name, smoke=False):
    """Run one leg in a scratch directory; returns its report."""
    fn, full, small = LEGS[name]
    with tempfile.TemporaryDirectory(prefix="esharing-bench-") as tmp:
        return fn(Path(tmp), **(small if smoke else full))


def judge(gate, measured, cores):
    """One gate's JSON record; the verdict reads pass, fail or skipped."""
    enforced = cores >= gate.min_cores
    if not enforced:
        verdict = (
            f"skipped: host exposes {cores} usable core(s); the wall-clock "
            f"gate needs >= {gate.min_cores} to be measurable"
        )
    else:
        verdict = "pass" if measured is not None and measured >= gate.bound else "fail"
    return {
        "bound": gate.bound, "min_cores": gate.min_cores, "measured": measured,
        "usable_cores": cores, "enforced": enforced, "verdict": verdict,
    }


def floor_failures(reports):
    """Smoke legs measured below their floor."""
    return [
        f"{name}: {reports[name]['speedup']:.2f}x is below the smoke floor {floor}x"
        for name, floor in SMOKE_FLOORS.items()
        if name in reports and reports[name]["speedup"] < floor
    ]


def committed_failures(names):
    """Gates of ``names`` whose verdict in the committed
    ``BENCH_micro.json`` reads ``fail`` (a skipped gate is not enforced,
    so it never does)."""
    if not BENCH_JSON.exists():
        return []
    return [
        f"committed {BENCH_JSON.name} records {leg} failing: "
        f"{_fmt(row['measured'])}x against >= {row['bound']}x "
        f"on {row['usable_cores']} usable core(s)"
        for leg, row in json.loads(BENCH_JSON.read_text())["gates"].items()
        if leg in names and row["verdict"] == "fail"
    ]


def _fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_leg(name, report):
    speedup = report.get("speedup")
    head = f"{speedup:7.2f}x" if speedup is not None else ""
    print(f"{name:<26} {head:>8}  {report['what']}")
    scalars = {
        k: v for k, v in report.items()
        if isinstance(v, (int, float)) and k != "speedup"
    }
    for row in [scalars, *report.get("sweep", ())]:
        if row:
            print("      " + "  ".join(f"{k} {_fmt(v)}" for k, v in row.items()))


def run_legs(names, smoke):
    """Run and print ``names``; a full run records them in
    ``BENCH_micro.json``.  Returns the failures."""
    reports = {}
    for name in names:
        reports[name] = run_leg(name, smoke=smoke)
        print_leg(name, reports[name])
    if smoke:
        return floor_failures(reports)
    cores = usable_cores()
    gates = {
        g.leg: judge(g, reports[g.leg]["speedup"], cores)
        for g in GATES if g.leg in reports
    }
    record = {"host": None, "legs": {}, "gates": {}}
    if BENCH_JSON.exists():
        record = json.loads(BENCH_JSON.read_text())
    # Each gate record carries the cores it was judged on; "host" is the
    # latest run's, which may have run only some legs.
    record["host"] = {"cpu_count": os.cpu_count(), "usable_cores": cores}
    record["legs"].update(reports)
    record["gates"].update(gates)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")
    failures = []
    for leg, row in gates.items():
        print(f"gate {leg} >= {row['bound']}x: {row['verdict']}")
        if row["verdict"] == "fail":
            failures.append(f"{leg} measured {_fmt(row['measured'])}x")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"legs: {', '.join(LEGS)}",
    )
    parser.add_argument("legs", nargs="*", metavar="leg", help="legs to run (default: all)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale sizes: parity, latency limits and smoke "
        "floors only; writes nothing",
    )
    mode.add_argument(
        "--committed", action="store_true",
        help="run nothing; fail if a committed gate verdict reads fail",
    )
    args = parser.parse_args(argv)
    names = args.legs or list(LEGS)
    unknown = [name for name in names if name not in LEGS]
    if unknown:
        print(f"unknown leg(s): {', '.join(unknown)}; known legs: {', '.join(LEGS)}")
        return 2
    if args.committed:
        failures = committed_failures(names)
    else:
        failures = run_legs(names, args.smoke)
    for line in failures:
        print(f"FAIL: {line}")
    return 1 if failures else 0


@pytest.mark.parametrize("name", list(LEGS))
def test_leg_smoke(name):
    """Each leg at smoke size: parity inside the leg, then its floor."""
    assert not floor_failures({name: run_leg(name, smoke=True)})


if __name__ == "__main__":
    sys.exit(main())
