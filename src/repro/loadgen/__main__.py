"""The overload gauntlet: ``python -m repro.loadgen``.

Runs every named surge scenario (or one, via ``--scenario``) as a
seeded OD trip stream against a geo-sharded fleet under admission
control, and verifies for each that

* the run completes without an uncaught exception and no shard halts;
* accounting is **exact** on every shard:
  ``offered == served + duplicates + dead-lettered + deferred +
  degraded`` (every shed row is inside the dead-letter count, with a
  reason);
* the overload machinery actually engages on surge scenarios (shed
  rows, backpressure, or a ladder climb — a gauntlet that never bites
  proves nothing) and stays silent on ``baseline``;
* every shard's degradation ladder is back at full service by end of
  stream — the fleet *recovers*;
* with **zero overload** (the baseline stream under generous admission
  headroom), the controlled fleet is byte-identical to the uncontrolled
  one: same journal bytes, same checkpoint state (modulo the KS
  wall-clock timing, which is not logical state).

Per scenario it reports sustained trips/sec, the
served/shed/deferred/dead-lettered split, breaker trips, ladder
transitions, and the recovery time from first ladder escalation back to
full service.

Exit status 0 on success, 1 with a FAIL line per violation — the same
contract as ``python -m repro.guard``, so CI can run both.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..geo.points import BoundingBox, Point
from ..guard.breakers import OPEN
from ..guard.overload import RUNGS, LadderConfig, OverloadConfig
from ..guard.runtime import GuardConfig
from ..guard.validation import ValidationConfig
from ..shard import ShardPlan, ShardedRuntime
from .odmatrix import ODConfig, TripStream
from .scenarios import SCENARIOS, make_scenario

PLANE = 2000.0
COST_VALUE = 8000.0
#: Stream steps per serving epoch (epoch = one ingest_many + latency
#: observation per shard).
EPOCH_STEPS = 5


def _bounds() -> BoundingBox:
    return BoundingBox(0.0, 0.0, PLANE, PLANE)


def _guard_config(overload: Optional[OverloadConfig]) -> GuardConfig:
    margin = 100.0
    return GuardConfig(
        validation=ValidationConfig(
            bounds=BoundingBox(-margin, -margin, PLANE + margin, PLANE + margin),
            max_backwards_s=3600.0,
        ),
        lateness_s=600.0,
        overload=overload,
    )


def _overload_config(
    od: ODConfig, n_shards: int, headroom: float = 1.6, queue_limit: int = 400
) -> OverloadConfig:
    """Admission sized to the *baseline* per-shard rate.

    Headroom 1.6 over the offered baseline: normal traffic sails
    through and the post-surge queue drains at ~0.6x the baseline rate,
    while a 10–50x localized spike saturates the bucket within a few
    steps.
    """
    per_shard = od.trips_per_hour / 3600.0 / n_shards
    rate = headroom * per_shard
    return OverloadConfig(
        rate_per_s=rate,
        burst=max(32, int(round(rate * 180.0))),
        queue_limit=queue_limit,
        ladder=LadderConfig(),
    )


def _build_fleet(
    directory: Path, n_shards: int, seed: int, overload: Optional[OverloadConfig]
) -> ShardedRuntime:
    plan = ShardPlan.from_bounds(_bounds(), n_shards)
    anchors = [
        Point(float(x), float(y))
        for x in (0, 667, 1333, 2000)
        for y in (0, 667, 1333, 2000)
    ]
    historical = np.random.default_rng(seed).uniform(0.0, PLANE, size=(300, 2))
    return ShardedRuntime(
        plan,
        directory,
        anchors,
        historical,
        seed=seed,
        guard=_guard_config(overload),
        durable=False,
    )


def _breaker_trips(runtime) -> int:
    return sum(
        sum(1 for _, new, _ in b.transitions if new == OPEN)
        for b in runtime.breakers.values()
    )


def _run_scenario(
    name: str,
    n_shards: int,
    duration_s: float,
    od: ODConfig,
    seed: int,
    block_size: Optional[int],
    workdir: Path,
) -> int:
    """One scenario against a persistent in-process shard fleet."""
    failures = 0
    schedule = make_scenario(name, od.bounds, duration_s)
    stream = TripStream(od, schedule, seed=seed)
    overload = _overload_config(od, n_shards)
    fleet = _build_fleet(workdir / name, n_shards, seed, overload)
    shards = {sid: fleet.open_shard(sid) for sid in range(n_shards)}
    offered_total = 0
    wall_s = 0.0
    try:
        blocks = list(stream.blocks(duration_s))
        epoch_dt = [0.0] * n_shards
        for i, block in enumerate(blocks):
            offered_total += len(block)
            buckets = fleet.router.split_trips(block.to_trips())
            for sid, bucket in enumerate(buckets):
                if not bucket:
                    continue
                t0 = time.perf_counter()
                shards[sid].ingest_many(bucket, block_size=block_size)
                dt = time.perf_counter() - t0
                wall_s += dt
                epoch_dt[sid] += dt
            if (i + 1) % EPOCH_STEPS == 0 or i + 1 == len(blocks):
                for sid in range(n_shards):
                    shards[sid].overload.observe_latency(epoch_dt[sid])
                epoch_dt = [0.0] * n_shards
        for sid in range(n_shards):
            t0 = time.perf_counter()
            shards[sid].finish()
            wall_s += time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 — the gauntlet's whole point
        print(f"FAIL: [{name}] fleet raised under load: {exc!r}")
        for rt in shards.values():
            rt.close()
        return failures + 1

    served = duplicates = dead = shed = deferred = degraded = 0
    transitions = 0
    trips = 0
    recovery_s = 0.0
    engaged = False
    for sid, rt in shards.items():
        rt.consistency_check()
        ctrl = rt.overload
        offered = rt.validator.offered
        accounted = (
            rt.served
            + rt.duplicates
            + rt.sink.total
            + len(rt.deferred_decisions)
            + len(rt.degraded_decisions)
        )
        if offered != accounted:
            print(
                f"FAIL: [{name}] shard {sid} accounting drift: "
                f"{offered} offered vs {accounted} accounted"
            )
            failures += 1
        if rt.halted:
            print(f"FAIL: [{name}] shard {sid} halted: {rt.halt_reason}")
            failures += 1
        if ctrl.rung != 0:
            print(
                f"FAIL: [{name}] shard {sid} ended at rung "
                f"{RUNGS[ctrl.rung]!r} — the ladder never recovered"
            )
            failures += 1
        if ctrl.shed or ctrl.transitions or ctrl.backpressure_signals:
            engaged = True
        if ctrl.transitions:
            recovery_s = max(
                recovery_s,
                (ctrl.transitions[-1][0] - ctrl.transitions[0][0]) / 1e6,
            )
        served += rt.served
        duplicates += rt.duplicates
        dead += rt.sink.total
        shed += ctrl.shed
        deferred += len(rt.deferred_decisions)
        degraded += len(rt.degraded_decisions)
        transitions += len(ctrl.transitions)
        trips += _breaker_trips(rt)
        rt.close()

    if name == "baseline" and engaged:
        print(
            f"FAIL: [{name}] overload control engaged on the baseline "
            f"stream ({shed} shed, {transitions} transition(s))"
        )
        failures += 1
    if name != "baseline" and not engaged:
        print(
            f"FAIL: [{name}] surge never engaged the overload machinery "
            "(no shed, no backpressure, no ladder transition)"
        )
        failures += 1

    rate = offered_total / wall_s if wall_s > 0 else float("inf")
    print(
        f"[{name}] {offered_total} trips on {n_shards} shard(s) @ "
        f"{rate:.0f} trips/s sustained; {served} served, {shed} shed, "
        f"{deferred} deferred, {dead} dead-lettered, {degraded} degraded, "
        f"{duplicates} duplicate(s); {trips} breaker trip(s), "
        f"{transitions} ladder transition(s), recovery {recovery_s:.0f}s "
        f"event time"
    )
    return failures


def _zero_overload_parity(
    n_shards: int,
    duration_s: float,
    od: ODConfig,
    seed: int,
    block_size: Optional[int],
    workdir: Path,
) -> int:
    """Baseline stream, generous admission: controlled == uncontrolled."""
    failures = 0
    schedule = make_scenario("baseline", od.bounds, duration_s)
    records = TripStream(od, schedule, seed=seed).records(duration_s)
    # Admission sized far above the offered rate: the fast path must
    # hit on every block and consume zero entropy.
    generous = OverloadConfig(
        rate_per_s=100.0 * od.trips_per_hour / 3600.0,
        burst=max(4096, len(records)),
        queue_limit=max(4096, len(records)),
    )
    controlled = _build_fleet(workdir / "parity-on", n_shards, seed, generous)
    plain = _build_fleet(workdir / "parity-off", n_shards, seed, None)
    on = controlled.serve(records, block_size=block_size)
    off = plain.serve(records, block_size=block_size)
    if on.shed or on.deferred or on.deadlettered:
        print(
            f"FAIL: zero-overload run engaged control: {on.shed} shed, "
            f"{on.deferred} deferred, {on.deadlettered} dead-lettered"
        )
        failures += 1
    for a, b in zip(on.reports, off.reports):
        if a.outcomes != b.outcomes:
            print(
                f"FAIL: shard {a.shard_id} responses diverged under "
                "zero-overload admission control"
            )
            failures += 1
    for sid in range(n_shards):
        ja = (workdir / "parity-on" / f"shard-{sid:03d}" / "journal.jsonl")
        jb = (workdir / "parity-off" / f"shard-{sid:03d}" / "journal.jsonl")
        if ja.exists() != jb.exists() or (
            ja.exists() and ja.read_bytes() != jb.read_bytes()
        ):
            print(
                f"FAIL: shard {sid} journal bytes diverged under "
                "zero-overload admission control"
            )
            failures += 1
        rt_on = controlled.open_shard(sid)
        rt_off = plain.open_shard(sid)
        sa = rt_on.inner.service.state_dict()
        sb = rt_off.inner.service.state_dict()
        sa["planner"]["ks_seconds"] = sb["planner"]["ks_seconds"] = 0.0
        if sa != sb:
            print(
                f"FAIL: shard {sid} checkpoint state diverged under "
                "zero-overload admission control"
            )
            failures += 1
        rt_on.close()
        rt_off.close()
    if not failures:
        print(
            f"zero-overload parity OK: {len(records)} trips, "
            f"{n_shards} shard(s) — journal bytes and checkpoint state "
            "identical with admission control on"
        )
    return failures


def _gauntlet(
    scenarios: List[str],
    n_shards: int,
    duration_s: float,
    trips_per_hour: float,
    seed: int,
    block_size: Optional[int],
) -> int:
    failures = 0
    od = ODConfig(bounds=_bounds(), trips_per_hour=trips_per_hour)
    workdir = Path(tempfile.mkdtemp(prefix="esharing-loadgen-"))
    try:
        for name in scenarios:
            failures += _run_scenario(
                name, n_shards, duration_s, od, seed, block_size, workdir
            )
        failures += _zero_overload_parity(
            n_shards, duration_s, od, seed, block_size, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print(f"overload gauntlet: {failures} failure(s)")
        return 1
    print(
        f"overload gauntlet OK: {len(scenarios)} scenario(s) on "
        f"{n_shards} shard(s), exact accounting, ladder recovery, and "
        "zero-overload byte-identity verified"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="overload gauntlet: surge scenarios vs admission control",
    )
    parser.add_argument(
        "--scenario",
        default="all",
        help=f"one of {', '.join(sorted(SCENARIOS))}, or 'all' (default)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="fleet size (default 2)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=5400.0,
        help="stream length in event-time seconds (default 5400)",
    )
    parser.add_argument(
        "--trips-per-hour",
        type=float,
        default=2400.0,
        help="city-wide baseline offered rate (default 2400)",
    )
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="trips per columnar block (default: the GuardConfig default; "
        "1 = blocks of one trip)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.block_size is not None and args.block_size <= 0:
        parser.error(f"--block-size must be positive, got {args.block_size}")
    if args.duration <= 0:
        parser.error(f"--duration must be positive, got {args.duration}")
    if args.trips_per_hour <= 0:
        parser.error(
            f"--trips-per-hour must be positive, got {args.trips_per_hour}"
        )
    if args.scenario == "all":
        scenarios = sorted(SCENARIOS)
    elif args.scenario in SCENARIOS:
        scenarios = [args.scenario]
    else:
        parser.error(
            f"unknown scenario {args.scenario!r} "
            f"(known: {', '.join(sorted(SCENARIOS))}, all)"
        )
    return _gauntlet(
        scenarios,
        args.shards,
        args.duration,
        args.trips_per_hour,
        args.seed,
        args.block_size,
    )


if __name__ == "__main__":
    sys.exit(main())
