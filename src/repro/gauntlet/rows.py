"""The gauntlet's rows: one function per contract, one table entry per run.

Each row function takes the :class:`~repro.gauntlet.city.Checks`
collector, a scratch directory and a seed, followed by its sizes.
:data:`ROWS` binds the sizes; :func:`main` runs the rows at seed 0.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from datetime import timedelta
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ..core.costs import constant_facility_cost
from ..core.esharing import EsharingConfig, EsharingPlanner
from ..core.streaming import PlacementService
from ..core.tripblock import TripBlock
from ..datasets import load_mobike_csv, mobike_like_dataset, save_mobike_csv
from ..datasets.mobike import QuarantineReport
from ..datasets.synthetic import SyntheticConfig
from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..errors import WorkerCrashError
from ..geo.points import Point
from ..guard.overload import RUNGS, LadderConfig, OverloadConfig
from ..guard.runtime import HALTED, HEALTHY, GuardConfig, GuardedRuntime
from ..incentives.charging_cost import ChargingCostParams
from ..incentives.mechanism import IncentiveMechanism
from ..loadgen import SCENARIOS, ODConfig, TripStream, make_scenario
from ..parallel import ParallelRunner, TaskSpec, spawn_seeds
from ..parallel.cells import offline_cell
from ..resilience.chaos import ChaosConfig, FaultInjector, simulate_period_crash
from ..resilience.faultfs import FaultFS, FaultFSConfig
from ..resilience.journal import TripJournal
from ..resilience.ledger import LEDGER_NAME
from ..resilience.scrub import scrub_tree
from ..resilience.service import CheckpointingService, constant_cost_spec
from ..shard import ShardRouter, build_shard_runtime
from ..shard.supervisor import QUARANTINED, FleetSupervisor, SupervisorConfig
from ..sim.simulator import SystemSimulator
from . import city
from .city import Checks, accounting, fleet_image, logical_state, oracle_identity

#: Stream faults of the chaos rows; the single runtime adds subsystem errors.
HOSTILE = dict(
    p_duplicate=0.03, p_drop=0.03, p_swap=0.05, p_clock_skew=0.02,
    skew_max_s=900.0, p_garbage=0.02, p_late=0.02, late_max_positions=8,
)
#: Trips per block in the supervision row.
BLOCK = 64
#: Serve epochs of the chaos-sharded row's hostile stream.
CHAOS_EPOCHS = 3


def mutate(check: Checks, injector: FaultInjector, records) -> List[TripRecord]:
    """The injector's stream; it must hold exactly its own drops and
    duplicates."""
    out = injector.mutate_trips(records)
    s = injector.summary()
    check(
        len(out) == len(records) - s.drops + s.duplicates,
        f"fault accounting drift: {len(records)} in, {len(out)} out, {s.to_text()}",
    )
    return out


def _checkpointing(seed: int, directory: Path) -> CheckpointingService:
    return CheckpointingService(
        city.service(seed), directory, checkpoint_every=500, durable=False,
        facility_cost_spec=constant_cost_spec(city.COST_VALUE),
    )


# ----------------------------------------------------------------------
def chaos(check, workdir, seed, n_trips, block_size: Optional[int] = None):
    """One guarded runtime: zero-fault bit-identity with the unguarded
    service, then every stream and subsystem fault at once."""
    records = city.trips(n_trips, seed)
    plain = _checkpointing(seed, workdir / "plain")
    plain.serve(records)
    runtime = GuardedRuntime(
        _checkpointing(seed, workdir / "guarded"), city.guard_config()
    )
    runtime.serve(records, block_size=block_size)
    runtime.consistency_check()
    dead, incidents = runtime.sink.total, runtime.incidents.total
    check(
        dead == 0 and incidents == 0,
        f"clean stream triggered guards: {dead} dead-lettered, "
        f"{incidents} incident(s)",
    )
    check(
        runtime.inner.service.responses == plain.service.responses,
        "zero-fault guarded responses diverged from unguarded",
    )
    check(
        logical_state(runtime.inner.service) == logical_state(plain.service),
        "zero-fault guarded state diverged from unguarded",
    )
    plain.close()
    runtime.close()

    injector = FaultInjector(
        ChaosConfig(seed=seed, p_subsystem_error=0.10, **HOSTILE)
    )
    hostile = mutate(check, injector, records)
    inner = _checkpointing(seed, workdir / "hostile")
    mechanism = IncentiveMechanism(
        inner.service.fleet, ChargingCostParams(),
        rng=np.random.default_rng(seed + 3),
        stations=inner.service.planner.station_set,
    )
    mechanism.offer_ride = injector.failing(mechanism.offer_ride, "incentive")
    runtime = GuardedRuntime(inner, city.guard_config(), incentives=mechanism)
    ks = runtime.guarded_ks.inner
    ks.test = injector.failing(ks.test, "ks")
    runtime.serve(hostile, block_size=block_size)
    runtime.consistency_check()
    check(runtime.health != HALTED, f"runtime halted: {runtime.halt_reason}")
    validator, buffer, sink = runtime.validator, runtime.buffer, runtime.sink
    check(
        validator.offered == len(hostile),
        f"{len(hostile)} events offered but validator saw {validator.offered}",
    )
    rejected = validator.rejected + buffer.too_late + buffer.shed
    check(
        sink.total == rejected,
        f"dead-letter sink holds {sink.total} but {rejected} rejections "
        "were recorded",
    )
    summary = injector.summary()
    ks_n = summary.subsystem_errors.get("ks", 0)
    incentive_n = summary.subsystem_errors.get("incentive", 0)
    check(
        ks_n and incentive_n,
        f"subsystem fault injection never fired (ks={ks_n}, "
        f"incentive={incentive_n})",
    )
    check(
        validator.counters["finite"] + validator.counters["bounds"],
        "garbage coordinates never reached the validator",
    )
    runtime.flush_logs(workdir / "logs", durable=False)
    lines = (workdir / "logs" / "deadletter.jsonl").read_text().splitlines()
    check(len(lines) == len(sink.rows), "dead-letter JSONL does not match the sink")
    print(
        f"{len(hostile)} hostile events ({summary.to_text()}); "
        f"{sink.to_text().splitlines()[0]}; final health {runtime.health}"
    )
    runtime.close()


def chaos_sharded(check, workdir, seed, n_trips, n_shards):
    """Every shard identical to its standalone oracle on the clean
    stream; the hostile stream fully accounted across the fleet."""
    records = city.trips(n_trips, seed)
    clean = city.fleet(n_shards, workdir / "clean", seed)
    outcome = clean.serve(records)
    dead = outcome.deadlettered
    incidents = sum(r.incidents for r in outcome.reports)
    check(
        not dead and not incidents,
        f"clean stream triggered guards: {dead} dead-lettered, "
        f"{incidents} incident(s)",
    )
    by_id = {r.shard_id: r for r in outcome.reports}
    buckets = ShardRouter(clean.plan).split_trips(records)
    for sid, bucket in enumerate(buckets):
        if bucket:
            directory = workdir / "oracle" / f"shard-{sid:03d}"
            oracle = build_shard_runtime(clean.spec(sid), directory)
            expected = tuple(oracle.serve(bucket))
            oracle.close()
            check(
                by_id[sid].outcomes == expected,
                f"shard {sid} outcomes diverged from its standalone oracle",
            )
    oracles = fleet_image(clean, workdir / "oracle")
    oracle_identity(check, "standalone oracles", clean, oracles)
    clean.close()

    injector = FaultInjector(ChaosConfig(seed=seed, **HOSTILE))
    hostile = mutate(check, injector, records)
    summary = injector.summary()
    cut = len(hostile) // CHAOS_EPOCHS
    parts = [hostile[e * cut:(e + 1) * cut] for e in range(CHAOS_EPOCHS - 1)]
    parts.append(hostile[(CHAOS_EPOCHS - 1) * cut:])
    with city.fleet(n_shards, workdir / "hostile", seed) as fleet:
        outs = [fleet.serve(part) for part in parts]
    reports = [r for out in outs for r in out.reports]
    shards = "; ".join(
        f"epoch {e} shard {r.shard_id:03d}: health {r.health}, {r.served} "
        f"served, {r.incidents} incident(s)"
        for e, out in enumerate(outs) for r in out.reports
    )
    check(
        all(out.health != HALTED for out in outs), f"sharded fleet halted: {shards}"
    )
    offered = sum(r.offered for r in reports)
    check(
        offered == len(hostile),
        f"{len(hostile)} hostile events offered but the fleet's validators "
        f"saw {offered}",
    )
    for r in reports:
        accounted = r.served + r.degraded + r.duplicates + r.deadlettered
        accounting(check, f"shard {r.shard_id}", r.offered, accounted)
    for sid in range(n_shards):
        reported = sum(r.deadlettered for r in reports if r.shard_id == sid)
        log = workdir / "hostile" / f"shard-{sid:03d}" / "logs" / "deadletter.jsonl"
        rows = len(log.read_text().splitlines()) if log.exists() else 0
        check(
            rows == reported,
            f"shard {sid} dead-letter log holds {rows} row(s) but its "
            f"{CHAOS_EPOCHS} epochs reported {reported}",
        )
    dead = sum(r.deadlettered for r in reports)
    served = sum(r.served for r in reports)
    check(
        dead or not summary.garbage_fields,
        "garbage fields never reached a shard validator",
    )
    print(
        f"{len(hostile)} hostile events ({summary.to_text()}) on {n_shards} "
        f"shards in {CHAOS_EPOCHS} epochs; {served} served, {dead} dead-lettered"
    )


# ----------------------------------------------------------------------
def _no_sleep(_seconds: float) -> None:
    pass


def _supervise(fleet, **config) -> FleetSupervisor:
    return FleetSupervisor(
        fleet, config=SupervisorConfig(backoff_base_s=0.0, **config),
        sleep=_no_sleep,
    )


def supervision(check, workdir, seed, n_trips, n_shards):
    """A supervised fleet under every failure class: fault-free parity,
    disk-fault schedules, poison quarantine and a scrub round-trip."""
    records = city.trips(n_trips, seed)

    def durable(name):
        return city.fleet(n_shards, workdir / name, seed, durable=True)

    plain = city.fleet(n_shards, workdir / "plain", seed)
    plain_outcome = plain.serve(records, block_size=BLOCK)
    clean = city.fleet(n_shards, workdir / "clean", seed)
    sup = _supervise(clean)
    outcome = sup.serve(records, block_size=BLOCK)
    check(
        outcome.health == HEALTHY
        and not outcome.restarts and not outcome.quarantined,
        f"clean supervised epoch not clean: health {outcome.health}, "
        f"{outcome.restarts} restart(s), {len(outcome.quarantined)} quarantined",
    )
    check(
        sup.incidents.total == 0,
        f"clean supervised epoch logged {sup.incidents.total} fleet incident(s)",
    )
    check(
        outcome.scrub is not None and outcome.scrub.clean,
        "post-epoch scrub of a clean fleet found damage",
    )
    by_id = {r.shard_id: r for r in outcome.reports}
    for report in plain_outcome.reports:
        sid, got = report.shard_id, by_id.get(report.shard_id)
        if check(
            got is not None and got.report is not None,
            f"shard {sid} missing from supervised epoch",
        ):
            check(
                got.report.outcomes == report.outcomes,
                f"shard {sid} supervised outcomes diverged from the plain fleet",
            )
    oracle_identity(check, "clean supervised", clean, fleet_image(plain))

    # Disk faults against a durable fault-free oracle. Torn/fsync faults
    # aim at one WAL; ENOSPC at one shard dir, where the first durable
    # write is the genesis snapshot. Torn ledger appends outlast the
    # guard's in-place checkpoint retries, so the shard restarts and
    # recovers past a torn ledger tail.
    oracle_fleet = durable("oracle")
    _supervise(oracle_fleet).serve(records, block_size=BLOCK)
    oracle = fleet_image(oracle_fleet)
    schedules = {
        "torn-writes": dict(p_torn=1.0, match="shard-001/journal.jsonl"),
        "enospc": dict(p_enospc=1.0, match="shard-001"),
        "fsync-failure": dict(p_fsync=1.0, match="shard-001/journal.jsonl"),
        "ledger-torn-writes": dict(
            p_torn=1.0, match=f"shard-001/{LEDGER_NAME}",
            max_faults=GuardConfig().checkpoint_attempts,
        ),
    }
    for name, faults in schedules.items():
        fleet = durable(f"faults-{name}")
        sup = _supervise(fleet)
        fs = FaultFS(FaultFSConfig(**{"seed": seed, "max_faults": 2, **faults}))
        with fs.inject():
            outcome = sup.serve(records, block_size=BLOCK)
        check(fs.counters.faults, f"{name}: schedule injected no faults")
        check(outcome.health != HALTED, f"{name}: fleet halted under budget")
        check(outcome.restarts, f"{name}: faults fired but no shard restarted")
        oracle_identity(check, name, fleet, oracle)
        healthy = [
            r.shard_id for r in outcome.reports
            if r.restarts == 0 and r.report is not None
        ]
        check(healthy, f"{name}: targeted schedule disturbed every shard")
        print(f"{name}: {fs.to_text()}; {outcome.restarts} restart(s)")

    # Poison: one trip's journal line is unwritable forever.
    buckets = clean.router.split_trips(records)
    victim_sid = 1 if len(buckets) > 1 and buckets[1] else 0
    bucket = buckets[victim_sid]
    victim = bucket[len(bucket) // 2]
    fleet = durable("poison")
    sup = _supervise(fleet, poison_retries=2)
    marker = f'"order_id":{victim.order_id},"start"'
    fs = FaultFS(FaultFSConfig(
        seed=seed, match="journal.jsonl", poison_markers=(marker,)
    ))
    with fs.inject():
        outcome = sup.serve(records, block_size=BLOCK)
    check(fs.counters.poisoned, "poison: marker never fired")
    report = {r.shard_id: r for r in outcome.reports}[victim_sid]
    if check(
        report.state == QUARANTINED and report.quarantined,
        f"poison: victim shard ended {report.state} with "
        f"{len(report.quarantined)} quarantined block(s)",
    ):
        held = {oid for row in report.quarantined for oid in row.order_ids}
        check(victim.order_id in held, "poison: victim trip not in the ledger")
        path = fleet.directory / f"shard-{victim_sid:03d}" / "journal.jsonl"
        journaled = {
            e.trip.order_id for e in TripJournal(path, durable=False).scan()
        }
        ids = {t.order_id for t in bucket}
        check(
            ids - held <= journaled <= ids,
            "poison: journaled trips != bucket minus quarantined",
        )
        claim = sum(r.journaled for r in report.quarantined)
        check(
            claim == len(held & journaled),
            f"poison: ledger claims {claim} journaled quarantined trip(s), "
            f"journal holds {len(held & journaled)}",
        )
        ledger = fleet.directory / "quarantine.jsonl"
        check(
            ledger.exists() and ledger.read_text().strip(),
            "poison: quarantine ledger not persisted",
        )
    check(
        not any(
            r.restarts for r in outcome.reports
            if r.shard_id != victim_sid and r.report is not None
        ),
        "poison: unaffected shards restarted",
    )
    print(f"poison: {fs.to_text()}; {len(report.quarantined)} block(s) held")

    # Damage at rest, scrub, then serve epoch 2 against a reference.
    epoch2 = city.trips(n_trips // 2, seed + 17)
    ref = durable("scrub-ref")
    ref_sup = _supervise(ref)
    ref_sup.serve(records, block_size=BLOCK)
    ref_sup.serve(epoch2, block_size=BLOCK)
    fleet = durable("scrub")
    _supervise(fleet).serve(records, block_size=BLOCK)
    root = fleet.directory
    newest = sorted((root / "shard-000").glob("snapshot-*.json"))[-1]
    FaultFS.bitrot(newest, seed=seed)
    with open(root / "shard-001" / "journal.jsonl", "a") as f:
        f.write("deadbeefdeadbeef {torn garbage")
    orphan = root / "shard-002" / "snapshot-0000000099.json.tmp-orphan"
    orphan.write_text("half a snapshot")
    scrub = scrub_tree(root, repair=True, durable=True)
    kinds = {(f.kind, f.action) for f in scrub.findings}
    for expected in (
        ("snapshot_corrupt", "demoted"),
        ("journal_torn_tail", "repaired"),
        ("orphan_tmp", "removed"),
    ):
        check(expected in kinds, f"scrub: expected finding {expected}, got {kinds}")
    check(
        newest.with_name(newest.name + ".corrupt").exists(),
        "scrub: corrupt snapshot not demoted to .corrupt",
    )
    recovered = FleetSupervisor.recover(
        root, config=SupervisorConfig(backoff_base_s=0.0), sleep=_no_sleep
    )
    outcome = recovered.serve(epoch2, block_size=BLOCK)
    check(outcome.health != HALTED, "scrub: epoch 2 halted after repair")
    oracle_identity(check, "scrub: epoch 2", fleet, fleet_image(ref))


# ----------------------------------------------------------------------
def surge(check, workdir, seed, name, od, duration_s, n_shards):
    """One scenario, stepped through a fleet whose admission is sized to
    1.6x the baseline per-shard rate."""
    rate = 1.6 * od.trips_per_hour / 3600.0 / n_shards
    overload = OverloadConfig(
        rate_per_s=rate, burst=max(32, int(round(rate * 180.0))),
        queue_limit=400, ladder=LadderConfig(),
    )
    stream = TripStream(od, make_scenario(name, od.bounds, duration_s), seed=seed)
    fleet = city.fleet(n_shards, workdir / name, seed, overload=overload)
    shards = [fleet.open_shard(sid) for sid in range(n_shards)]
    try:
        for block in stream.blocks(duration_s):
            buckets = fleet.router.split_trips(block.to_trips())
            for sid, bucket in enumerate(buckets):
                if bucket:
                    shards[sid].ingest_many(bucket)
        for rt in shards:
            rt.finish()
    except Exception as exc:  # noqa: BLE001 — the gauntlet's whole point
        check.error(f"[{name}] fleet raised under load: {exc!r}")
        for rt in shards:
            rt.close()
        return
    for sid, rt in enumerate(shards):
        rt.consistency_check()
        accounted = (
            rt.served + rt.duplicates + rt.sink.total
            + len(rt.deferred_decisions) + len(rt.degraded_decisions)
        )
        accounting(check, f"[{name}] shard {sid}", rt.validator.offered, accounted)
        check(not rt.halted, f"[{name}] shard {sid} halted: {rt.halt_reason}")
        check(
            rt.overload.rung == 0,
            f"[{name}] shard {sid} ended at rung {RUNGS[rt.overload.rung]!r} "
            "— the ladder never recovered",
        )
        rt.close()
    ctrls = [rt.overload for rt in shards]
    shed = sum(c.shed for c in ctrls)
    moves = sum(len(c.transitions) for c in ctrls)
    engaged = any(c.shed or c.transitions or c.backpressure_signals for c in ctrls)
    if name == "baseline":
        check(
            not engaged,
            f"[{name}] overload control engaged on the baseline stream "
            f"({shed} shed, {moves} transition(s))",
        )
    else:
        check(
            engaged,
            f"[{name}] surge never engaged the overload machinery "
            "(no shed, no backpressure, no ladder transition)",
        )
    print(
        f"[{name}] {sum(rt.validator.offered for rt in shards)} trips; "
        f"{sum(rt.served for rt in shards)} served, {shed} shed, "
        f"{sum(c.deferred for c in ctrls)} deferred, {moves} ladder move(s)"
    )


def zero_overload(check, workdir, seed, od, duration_s, n_shards):
    """The baseline stream under admission sized far above it is
    byte-identical to the uncontrolled fleet."""
    schedule = make_scenario("baseline", od.bounds, duration_s)
    records = TripStream(od, schedule, seed=seed).records(duration_s)
    generous = OverloadConfig(
        rate_per_s=100.0 * od.trips_per_hour / 3600.0,
        burst=max(4096, len(records)),
        queue_limit=max(4096, len(records)),
    )
    on = city.fleet(n_shards, workdir / "parity-on", seed, overload=generous)
    off = city.fleet(n_shards, workdir / "parity-off", seed)
    got, want = on.serve(records), off.serve(records)
    check(
        not (got.shed or got.deferred or got.deadlettered),
        f"zero-overload run engaged control: {got.shed} shed, {got.deferred} "
        f"deferred, {got.deadlettered} dead-lettered",
    )
    for a, b in zip(got.reports, want.reports):
        check(
            a.outcomes == b.outcomes,
            f"shard {a.shard_id} responses diverged under zero-overload control",
        )
    oracle_identity(check, "zero-overload control", on, fleet_image(off))


def overload(check, workdir, seed, scenarios, duration_s, n_shards):
    """Each scenario under admission control, then zero-overload parity."""
    od = ODConfig(bounds=city.BOUNDS, trips_per_hour=2400.0)
    for name in scenarios:
        surge(check, workdir, seed, name, od, duration_s, n_shards)
    zero_overload(check, workdir, seed, od, duration_s, n_shards)


# ----------------------------------------------------------------------
def recovery(check, workdir, seed, n_trips, crash_at):
    """Crash/recover a checkpointed service bit for bit, tear a snapshot
    and fall back, crash the simulator mid-period under unreliable
    delivery. The row keeps its own 3x3-anchor city."""
    rng = np.random.default_rng(seed)
    records = [
        TripRecord(
            order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
            start_time=city.T0 + timedelta(seconds=30 * i),
            start=Point(*rng.uniform(0.0, 2000.0, 2)),
            end=Point(*rng.uniform(0.0, 2000.0, 2)),
        )
        for i in range(n_trips)
    ]
    grid = (0.0, 1000.0, 2000.0)
    anchors = [Point(x, y) for x in grid for y in grid]
    historical = rng.uniform(0.0, 2000.0, size=(400, 2))
    cost = constant_facility_cost(city.COST_VALUE)

    def build(planner_seed, fleet_seed):
        planner = EsharingPlanner(
            anchors, cost, historical, np.random.default_rng(planner_seed),
            EsharingConfig(beta=1.0),
        )
        bikes = np.random.default_rng(fleet_seed)
        return planner, Fleet(planner.stations, n_bikes=80, rng=bikes)

    reference = PlacementService(*build(seed + 1, seed + 2))
    reference.serve(records)
    wrapped = CheckpointingService(
        PlacementService(*build(seed + 1, seed + 2)), workdir / "run",
        checkpoint_every=50, durable=False,
        facility_cost_spec=constant_cost_spec(city.COST_VALUE),
    )
    def serve(service, rows):
        # Responses and journal bytes do not depend on the block size.
        for lo in range(0, len(rows), BLOCK):
            service.handle_block(TripBlock.from_trips(rows[lo : lo + BLOCK]))

    serve(wrapped, records[:crash_at])
    wrapped.close()  # the "crash": the in-memory object is abandoned
    recovered = CheckpointingService.recover(workdir / "run", durable=False)
    serve(recovered, records[crash_at:])
    recovered.consistency_check()
    check(
        recovered.service.responses == reference.responses,
        "recovered response stream diverged from reference",
    )
    check(
        logical_state(recovered.service) == logical_state(reference),
        "recovered state diverged from reference",
    )

    # Tear the newest snapshot: recovery must fall back and replay more.
    recovered.checkpoint()
    newest = recovered.store.list()[-1][1]
    recovered.close()
    FaultInjector.corrupt_file(newest, mode="truncate")
    fallback = CheckpointingService.recover(workdir / "run", durable=False)
    fallback.consistency_check()
    check(
        fallback.service.responses == reference.responses,
        "fallback recovery diverged from reference",
    )
    fallback.close()

    injector = FaultInjector(
        ChaosConfig(seed=seed, p_duplicate=0.05, p_drop=0.05, p_swap=0.05)
    )
    unreliable = mutate(check, injector, records)
    check(injector.summary().total, "injector reported zero faults at non-zero rates")
    planner, bikes = build(seed + 3, seed + 4)
    _, report = simulate_period_crash(
        lambda p, f: SystemSimulator(p, f, rng=np.random.default_rng(seed + 5)),
        planner, bikes, cost, unreliable, crash_after=len(unreliable) // 2,
    )
    check(
        report.trips_requested == len(unreliable),
        "recovered simulator lost trips",
    )


# ----------------------------------------------------------------------
def _crash(_: int) -> None:
    """Kill the worker process without returning."""
    os._exit(13)


def parallel(check, workdir, seed, workers):
    """Placement cells and sharded CSV ingest bit-identical to serial; a
    dead worker surfaces :class:`WorkerCrashError`."""
    tasks = [
        TaskSpec(offline_cell, kwargs={"seed": ss, "n_demands": 150}, label=f"cell{i}")
        for i, ss in enumerate(spawn_seeds(2024 + seed, 6))
    ]
    serial = ParallelRunner(workers=1).run(tasks)
    pooled = ParallelRunner(workers=workers).run(tasks)
    check(
        [c["digest"] for c in serial] == [c["digest"] for c in pooled],
        f"placement digests diverged between serial and {workers}-worker runs",
    )

    config = SyntheticConfig(trips_per_weekday=400, trips_per_weekend_day=300)
    dataset = mobike_like_dataset(seed=7 + seed, days=2, config=config)
    path = str(workdir / "trips.csv")
    save_mobike_csv(dataset, path)
    lines = Path(path).read_text().splitlines(keepends=True)
    # Damage a few rows scattered across the future chunks.
    rng = np.random.default_rng(seed)
    for row in sorted(rng.choice(len(lines) - 1, size=5, replace=False)):
        parts = lines[row + 1].split(",")
        parts[4] = "not-a-time"
        lines[row + 1] = ",".join(parts)
    Path(path).write_text("".join(lines))
    serial_q, pooled_q = QuarantineReport(), QuarantineReport()
    serial = load_mobike_csv(path, on_error="quarantine", quarantine=serial_q)
    pooled = load_mobike_csv(
        path, on_error="quarantine", quarantine=pooled_q, workers=workers
    )
    check(
        list(serial) == list(pooled) and serial_q.rows == pooled_q.rows,
        f"sharded ingest diverged from serial at workers={workers}",
    )

    try:
        ParallelRunner(workers=max(workers, 2)).map(_crash, [(0,)])
    except WorkerCrashError:
        return
    check(False, "dead worker did not raise WorkerCrashError")


# ----------------------------------------------------------------------
#: Every gauntlet run, at the sizes CI runs it. An entry is called as
#: ``ROWS[name](check, workdir, seed=...)``.
ROWS = {
    "chaos": partial(chaos, n_trips=2000),
    "chaos-block1": partial(chaos, n_trips=1000, block_size=1),
    "chaos-sharded": partial(chaos_sharded, n_trips=1500, n_shards=2),
    "supervision": partial(supervision, n_trips=600, n_shards=3),
    "overload": partial(
        overload, scenarios=sorted(SCENARIOS), duration_s=5400.0, n_shards=2
    ),
    "overload-stadium": partial(
        overload, scenarios=["stadium"], duration_s=1800.0, n_shards=2
    ),
    "recovery": partial(recovery, n_trips=400, crash_at=150),
    "parallel": partial(parallel, workers=2),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the named rows (every row when none is named) at seed 0.

    Returns the exit status: 0 when every check passed, 1 when any
    failed, 2 for an unknown row name.
    """
    names = list(sys.argv[1:] if argv is None else argv) or list(ROWS)
    unknown = [name for name in names if name not in ROWS]
    if unknown:
        print(
            f"unknown row(s): {', '.join(unknown)}; "
            f"known rows: {', '.join(ROWS)}",
            file=sys.stderr,
        )
        return 2
    failed = []
    for name in names:
        check, start = Checks(), time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"gauntlet-{name}-") as tmp:
            try:
                ROWS[name](check, Path(tmp), seed=0)
            except Exception as exc:  # noqa: BLE001 — a raising row failed
                check.error(f"{name} raised: {exc!r}")
        verdict = f"{check.failures} failure(s)" if check.failures else "OK"
        print(f"== {name}: {verdict} ({time.perf_counter() - start:.1f}s)")
        if check.failures:
            failed.append(name)
    print(f"gauntlet: {len(names) - len(failed)} of {len(names)} row(s) passed")
    return 1 if failed else 0
