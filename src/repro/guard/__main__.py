"""The chaos gauntlet: ``python -m repro.guard``.

Runs the full guarded stack against a hostile 5k-trip stream —
duplicates, drops, bounded reorder, clock skew, garbage fields, and
injected KS/incentive exceptions — and verifies that

* the run completes without an uncaught exception and never halts
  (degraded is fine; halted means durability was lost, which no stream
  fault should cause);
* every rejected event is accounted for in the dead-letter sink
  (``accepted + dead-lettered == offered``, end to end);
* the injector's fault counters are consistent with the damage actually
  observed in the stream (a fault that stops firing fails the smoke);
* with **all fault rates at zero**, the guarded runtime is bit-identical
  to the unguarded :class:`~repro.resilience.CheckpointingService` on
  the same seed — responses and full checkpoint state (modulo the KS
  wall-clock timing, which is not part of logical state).

``--shards N`` (N > 1) runs the geo-sharded variant instead: the same
clean stream served through :class:`repro.shard.ShardedRuntime` must be
bit-identical, shard by shard, to standalone single-shard oracles built
from the same specs (outcomes *and* journal bytes), and the hostile
stream must stay fully accounted for across the fleet
(``served + degraded + duplicates + dead-lettered == offered`` on every
shard, summing to the stream length).

Exit status 0 on success, 1 with a FAIL line per violation — same
contract as ``python -m repro.resilience.chaos``, so CI can run both.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path
from typing import List

import numpy as np

from ..core.costs import constant_facility_cost
from ..core.esharing import EsharingConfig, EsharingPlanner
from ..core.streaming import PlacementService
from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..geo.points import BoundingBox, Point
from ..incentives.charging_cost import ChargingCostParams
from ..incentives.mechanism import IncentiveMechanism
from ..resilience.chaos import ChaosConfig, FaultInjector
from ..resilience.service import CheckpointingService, constant_cost_spec
from .runtime import HALTED, GuardConfig, GuardedRuntime
from .validation import ValidationConfig

PLANE = 2000.0
COST_VALUE = 8000.0


def _make_trips(n: int, seed: int) -> List[TripRecord]:
    rng = np.random.default_rng(seed)
    t0 = datetime(2017, 5, 10)
    return [
        TripRecord(
            order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
            start_time=t0 + timedelta(seconds=30 * i),
            start=Point(*rng.uniform(0.0, PLANE, 2)),
            end=Point(*rng.uniform(0.0, PLANE, 2)),
            battery=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n)
    ]


def _build_service(seed: int) -> PlacementService:
    anchors = [
        Point(float(x), float(y))
        for x in (0, 667, 1333, 2000)
        for y in (0, 667, 1333, 2000)
    ]
    historical = np.random.default_rng(seed).uniform(0.0, PLANE, size=(300, 2))
    planner = EsharingPlanner(
        anchors,
        constant_facility_cost(COST_VALUE),
        historical,
        np.random.default_rng(seed + 1),
        EsharingConfig(beta=2.0, history_window=200),
    )
    fleet = Fleet(planner.stations, n_bikes=120, rng=np.random.default_rng(seed + 2))
    return PlacementService(planner, fleet)


def _guard_config() -> GuardConfig:
    margin = 100.0
    return GuardConfig(
        validation=ValidationConfig(
            bounds=BoundingBox(-margin, -margin, PLANE + margin, PLANE + margin),
            max_backwards_s=3600.0,  # chaos clock skew stays under an hour
        ),
        lateness_s=600.0,
    )


def _gauntlet(n_trips: int, seed: int, block_size: int = None) -> int:
    failures = 0
    records = _make_trips(n_trips, seed)
    workdir = Path(tempfile.mkdtemp(prefix="esharing-guard-"))
    try:
        # ------------------------------------------------------------------
        # 1. Zero-fault parity: guarded == unguarded, bit for bit.
        plain = CheckpointingService(
            _build_service(seed), workdir / "plain", checkpoint_every=500,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        plain.serve(records)
        guarded_inner = CheckpointingService(
            _build_service(seed), workdir / "guarded", checkpoint_every=500,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        runtime = GuardedRuntime(guarded_inner, _guard_config())
        runtime.serve(records, block_size=block_size)
        runtime.consistency_check()
        if runtime.sink.total != 0 or runtime.incidents.total != 0:
            print(
                f"FAIL: clean stream triggered guards: {runtime.sink.total} "
                f"dead-lettered, {runtime.incidents.total} incident(s)"
            )
            failures += 1
        if runtime.inner.service.responses != plain.service.responses:
            print("FAIL: zero-fault guarded responses diverged from unguarded")
            failures += 1
        g_state = runtime.inner.service.state_dict()
        p_state = plain.service.state_dict()
        g_state["planner"]["ks_seconds"] = p_state["planner"]["ks_seconds"] = 0.0
        if g_state != p_state:
            print("FAIL: zero-fault guarded state diverged from unguarded")
            failures += 1
        plain.close()
        runtime.close()

        # ------------------------------------------------------------------
        # 2. The gauntlet proper: every fault category at once.
        injector = FaultInjector(ChaosConfig(
            seed=seed,
            p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
            p_clock_skew=0.02, skew_max_s=900.0,
            p_garbage=0.02,
            p_late=0.02, late_max_positions=8,
            p_subsystem_error=0.10,
        ))
        hostile = injector.mutate_trips(records)
        summary = injector.summary()
        if len(hostile) != len(records) - summary.drops + summary.duplicates:
            print(
                "FAIL: fault accounting drift: "
                f"{len(records)} in, {len(hostile)} out, {summary.to_text()}"
            )
            failures += 1

        inner = CheckpointingService(
            _build_service(seed), workdir / "hostile", checkpoint_every=500,
            durable=False, facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        mechanism = IncentiveMechanism(
            inner.service.fleet, ChargingCostParams(),
            rng=np.random.default_rng(seed + 3),
            stations=inner.service.planner.station_set,
        )
        mechanism.offer_ride = injector.failing(  # type: ignore[method-assign]
            mechanism.offer_ride, "incentive"
        )
        runtime = GuardedRuntime(inner, _guard_config(), incentives=mechanism)
        ks_inner = runtime.guarded_ks.inner
        ks_inner.test = injector.failing(ks_inner.test, "ks")  # type: ignore[method-assign]
        try:
            runtime.serve(hostile, block_size=block_size)
        except Exception as exc:  # noqa: BLE001 — the gauntlet's whole point
            print(f"FAIL: guarded runtime raised on the hostile stream: {exc!r}")
            failures += 1
        else:
            runtime.consistency_check()
            if runtime.health == HALTED:
                print(f"FAIL: runtime halted: {runtime.halt_reason}")
                failures += 1
            if runtime.validator.offered != len(hostile):
                print(
                    f"FAIL: {len(hostile)} events offered but validator saw "
                    f"{runtime.validator.offered}"
                )
                failures += 1
            accounted = (
                runtime.validator.rejected
                + runtime.buffer.too_late + runtime.buffer.shed
            )
            if runtime.sink.total != accounted:
                print(
                    f"FAIL: dead-letter sink holds {runtime.sink.total} but "
                    f"{accounted} rejections were recorded"
                )
                failures += 1
            gauntlet_summary = injector.summary()
            ks_faults = gauntlet_summary.subsystem_errors.get("ks", 0)
            incentive_faults = gauntlet_summary.subsystem_errors.get("incentive", 0)
            if ks_faults == 0 or incentive_faults == 0:
                print(
                    "FAIL: subsystem fault injection never fired "
                    f"(ks={ks_faults}, incentive={incentive_faults})"
                )
                failures += 1
            if runtime.validator.counters["finite"] + runtime.validator.counters["bounds"] == 0:
                print("FAIL: garbage coordinates never reached the validator")
                failures += 1
            runtime.flush_logs(workdir / "logs", durable=False)
            dead_lines = (
                (workdir / "logs" / "deadletter.jsonl").read_text().splitlines()
            )
            if len(dead_lines) != len(runtime.sink.rows):
                print("FAIL: dead-letter JSONL does not match the sink")
                failures += 1
            print(
                f"gauntlet: {len(hostile)} hostile events "
                f"({gauntlet_summary.to_text()}); "
                f"{runtime.sink.to_text().splitlines()[0]}; "
                f"{runtime.incidents.total} incident(s); "
                f"final health {runtime.health}"
            )
        runtime.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"guard gauntlet: {failures} failure(s)")
        return 1
    print(
        f"guard gauntlet OK: zero-fault bit-identity and hostile-stream "
        f"accounting verified over {n_trips} trips"
    )
    return 0


def _build_city(n_shards: int, directory: Path, seed: int):
    """The gauntlet's demo city as a geo-sharded fleet."""
    from ..shard import ShardPlan, ShardedRuntime

    plan = ShardPlan.from_bounds(BoundingBox(0.0, 0.0, PLANE, PLANE), n_shards)
    anchors = [
        Point(float(x), float(y))
        for x in (0, 667, 1333, 2000)
        for y in (0, 667, 1333, 2000)
    ]
    historical = np.random.default_rng(seed).uniform(0.0, PLANE, size=(300, 2))
    return ShardedRuntime(
        plan, directory, anchors, historical, seed=seed,
        guard=_guard_config(), durable=False,
    )


def _sharded_gauntlet(
    n_trips: int, seed: int, n_shards: int, block_size: int = None
) -> int:
    from ..shard import ShardRouter, build_shard_runtime

    failures = 0
    records = _make_trips(n_trips, seed)
    workdir = Path(tempfile.mkdtemp(prefix="esharing-guard-shard-"))
    try:
        # ------------------------------------------------------------------
        # 1. Clean-stream parity: every fleet shard == its standalone
        #    oracle, outcomes and journal bytes.
        city = _build_city(n_shards, workdir / "clean", seed)
        outcome = city.serve(records, block_size=block_size)
        if outcome.deadlettered or any(r.incidents for r in outcome.reports):
            print(
                f"FAIL: clean stream triggered guards: {outcome.deadlettered} "
                f"dead-lettered, "
                f"{sum(r.incidents for r in outcome.reports)} incident(s)"
            )
            failures += 1
        buckets = ShardRouter(city.plan).split_trips(records)
        by_id = {r.shard_id: r for r in outcome.reports}
        for sid in range(n_shards):
            if not buckets[sid]:
                continue
            oracle = build_shard_runtime(city.spec(sid), workdir / f"oracle-{sid}")
            expected = oracle.serve(buckets[sid], block_size=block_size)
            oracle.close()
            if by_id[sid].outcomes != tuple(expected):
                print(
                    f"FAIL: shard {sid} outcomes diverged from its "
                    "standalone oracle"
                )
                failures += 1
            fleet_journal = (
                workdir / "clean" / f"shard-{sid:03d}" / "journal.jsonl"
            ).read_bytes()
            oracle_journal = (
                workdir / f"oracle-{sid}" / "journal.jsonl"
            ).read_bytes()
            if fleet_journal != oracle_journal:
                print(
                    f"FAIL: shard {sid} journal bytes diverged from its "
                    "standalone oracle"
                )
                failures += 1

        # ------------------------------------------------------------------
        # 2. Hostile-stream accounting across the fleet.
        injector = FaultInjector(ChaosConfig(
            seed=seed,
            p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
            p_clock_skew=0.02, skew_max_s=900.0,
            p_garbage=0.02,
            p_late=0.02, late_max_positions=8,
        ))
        hostile = injector.mutate_trips(records)
        summary = injector.summary()
        hostile_city = _build_city(n_shards, workdir / "hostile", seed)
        try:
            hostile_outcome = hostile_city.serve(hostile, block_size=block_size)
        except Exception as exc:  # noqa: BLE001 — the gauntlet's whole point
            print(f"FAIL: sharded runtime raised on the hostile stream: {exc!r}")
            failures += 1
        else:
            if hostile_outcome.health == HALTED:
                print("FAIL: sharded fleet halted on the hostile stream")
                for report in hostile_outcome.reports:
                    print(
                        f"  shard {report.shard_id:03d}: health "
                        f"{report.health}, {report.served} served, "
                        f"{report.incidents} incident(s)"
                    )
                failures += 1
            offered = sum(r.offered for r in hostile_outcome.reports)
            if offered != len(hostile):
                print(
                    f"FAIL: {len(hostile)} hostile events offered but the "
                    f"fleet's validators saw {offered}"
                )
                failures += 1
            for report in hostile_outcome.reports:
                accounted = (
                    report.served + report.degraded
                    + report.duplicates + report.deadlettered
                )
                if accounted != report.offered:
                    print(
                        f"FAIL: shard {report.shard_id} accounting drift: "
                        f"{report.offered} offered vs {accounted} accounted"
                    )
                    failures += 1
            if summary.garbage_fields and not hostile_outcome.deadlettered:
                print("FAIL: garbage fields never reached a shard validator")
                failures += 1
            print(
                f"sharded gauntlet: {len(hostile)} hostile events "
                f"({summary.to_text()}) across {n_shards} shards; "
                f"{hostile_outcome.served} served, "
                f"{hostile_outcome.deadlettered} dead-lettered, "
                f"{len(hostile_outcome.referrals)} cross-shard referral(s); "
                f"worst health {hostile_outcome.health}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        print(f"sharded guard gauntlet: {failures} failure(s)")
        return 1
    print(
        f"sharded guard gauntlet OK: per-shard oracle bit-identity and "
        f"hostile-stream accounting verified over {n_trips} trips on "
        f"{n_shards} shards"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.guard",
        description="chaos gauntlet for the guarded online runtime",
    )
    parser.add_argument("--trips", type=int, default=5000, help="stream length")
    parser.add_argument("--seed", type=int, default=0, help="chaos + workload seed")
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="trips per columnar block on the guarded stream path "
        "(default: the GuardConfig default; 1 = blocks of one trip)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run the geo-sharded gauntlet on this many shards "
        "(1 = the classic single-runtime gauntlet)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.block_size is not None and args.block_size <= 0:
        parser.error(f"--block-size must be positive, got {args.block_size}")
    if args.shards > 1:
        return _sharded_gauntlet(
            args.trips, args.seed, args.shards, block_size=args.block_size
        )
    return _gauntlet(args.trips, args.seed, block_size=args.block_size)


if __name__ == "__main__":
    sys.exit(main())
