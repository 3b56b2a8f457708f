"""Command-line interface: list and run the paper's experiments.

Usage::

    esharing list
    esharing run table5
    esharing run table2 --seed 1 --csv out.csv
    esharing run all
    esharing sweep table5 --seeds 0,1,2,3 --workers 4   # parallel seed grid
    esharing sweep pipeline --seeds 0:4 --workers 4     # merged sweep table
    esharing stats                     # describe the synthetic workload
    esharing stats --mobike trips.csv  # describe a real Mobike CSV
    esharing stats --mobike trips.csv --workers 4       # sharded ingest
    esharing checkpoint --dir ckpt --trips 400 --crash-at 150
    esharing resume --dir ckpt --trips 400   # recover + finish the workload
    esharing serve --dir city --shards 4 --supervise   # self-healing fleet
    esharing scrub --dir city                # repair snapshots/WAL in place
    esharing scrub --dir city --check        # verify only; exit 4 on damage

(or ``python -m repro.cli ...``)

Exit codes: 0 success; 2 usage error; 3 a serve run ended halted (its
durable state is intact — inspect with ``esharing incidents`` and
``esharing scrub --check``); 4 ``scrub`` found damage (``--check``) or
damage it could not repair.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from .experiments import EXPERIMENTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esharing",
        description="E-Sharing (ICDCS 2020) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run.add_argument("--seed", type=int, default=0, help="RNG seed")
    run.add_argument("--csv", default=None, help="also write rows to this CSV path")
    sweep = sub.add_parser(
        "sweep",
        help="run one experiment across a seed grid, fanned over worker "
        "processes (results merge in seed order — identical for any "
        "--workers value)",
    )
    sweep.add_argument("experiment", help="experiment id (see 'list')")
    sweep.add_argument(
        "--seeds",
        default="0,1,2,3",
        help="seed grid: comma list ('0,1,5') or a 'start:stop' range ('0:8')",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial in-process reference path)",
    )
    sweep.add_argument(
        "--volume", type=int, default=600,
        help="trip volume per cell (pipeline sweep only)",
    )
    stats = sub.add_parser(
        "stats", help="describe a trip workload (synthetic or a Mobike CSV)"
    )
    stats.add_argument("--mobike", default=None, help="path to a Mobike-schema CSV")
    stats.add_argument("--seed", type=int, default=0, help="synthetic workload seed")
    stats.add_argument("--days", type=int, default=14, help="synthetic workload days")
    stats.add_argument(
        "--volume", type=int, default=1500, help="synthetic weekday trip volume"
    )
    stats.add_argument(
        "--workers", type=int, default=1,
        help="CSV parse workers (--mobike only); sharded ingest is "
        "byte-identical to the serial load",
    )
    ckpt = sub.add_parser(
        "checkpoint",
        help="run a demo workload under the crash-safe checkpointing service",
    )
    ckpt.add_argument(
        "--dir", required=True, help="checkpoint directory (snapshots + journal)"
    )
    ckpt.add_argument("--trips", type=int, default=400, help="demo workload length")
    ckpt.add_argument(
        "--every", type=int, default=100, help="trips between periodic snapshots"
    )
    ckpt.add_argument("--seed", type=int, default=0, help="workload seed")
    ckpt.add_argument("--bikes", type=int, default=80, help="fleet size")
    ckpt.add_argument(
        "--crash-at",
        type=int,
        default=None,
        dest="crash_at",
        help="stop after this many trips to simulate a crash",
    )
    serve = sub.add_parser(
        "serve",
        help="serve a demo workload through the live placement service, "
        "optionally under the guarded runtime",
    )
    serve.add_argument(
        "--dir", required=True, help="checkpoint directory (snapshots + journal)"
    )
    serve.add_argument("--trips", type=int, default=400, help="demo workload length")
    serve.add_argument(
        "--every", type=int, default=100, help="trips between periodic snapshots"
    )
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument("--bikes", type=int, default=80, help="fleet size")
    serve.add_argument(
        "--guard",
        action="store_true",
        help="wrap the service in the guarded runtime (validation, "
        "watermark reordering, circuit breakers, incident log)",
    )
    serve.add_argument(
        "--lateness",
        type=float,
        default=600.0,
        help="watermark lateness bound in seconds (--guard only)",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="deliver the workload through a faulty upstream "
        "(duplicates, drops, reorder, clock skew, garbage fields)",
    )
    serve.add_argument(
        "--block-size",
        type=int,
        default=256,
        help="trips per columnar block on the stream hot path "
        "(every size takes the same group-commit route)",
    )
    serve.add_argument(
        "--scenario",
        default=None,
        help="generate the workload from a named loadgen surge scenario "
        "(baseline, festival, stadium, weather, rush) instead of the "
        "uniform demo stream",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the plane by geohash prefix and serve each "
        "territory as an independently checkpointed guarded shard "
        "(> 1 enables the geo-sharded runtime with cross-shard "
        "referrals; resume with ShardedRuntime.recover)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process workers to fan shards across (--shards > 1 only); "
        "any worker count is bit-identical to serial",
    )
    serve.add_argument(
        "--supervise",
        action="store_true",
        help="run the sharded fleet under the self-healing supervisor "
        "(--shards > 1 only): crashed shards restart from their own "
        "durable state, poison blocks are quarantined with provenance, "
        "and the storage scrubber runs after the epoch",
    )
    scrub = sub.add_parser(
        "scrub",
        help="verify and repair the durable state of a checkpoint "
        "directory or sharded fleet root (snapshot checksums, WAL "
        "tails, orphan tmp files, advisory logs)",
    )
    scrub.add_argument(
        "--dir", required=True,
        help="checkpoint directory or fleet root to scrub",
    )
    scrub.add_argument(
        "--check",
        action="store_true",
        help="report damage without touching any file; exit 4 if "
        "anything is found",
    )
    inc = sub.add_parser(
        "incidents",
        help="inspect the incident and dead-letter logs a guarded "
        "'serve --guard' run wrote",
    )
    inc.add_argument(
        "--dir", required=True, help="checkpoint directory of the guarded run"
    )
    inc.add_argument(
        "--limit", type=int, default=20, help="detail rows to show per log"
    )
    inc.add_argument(
        "--kind",
        default=None,
        help="only show rows whose incident kind / dead-letter rule "
        "contains this substring (e.g. shed, breaker, ladder, "
        "backpressure)",
    )
    res = sub.add_parser(
        "resume", help="recover a checkpointed run and optionally finish the workload"
    )
    res.add_argument("--dir", required=True, help="checkpoint directory to recover")
    res.add_argument(
        "--trips",
        type=int,
        default=None,
        help="regenerate the demo workload (same --seed) and serve the "
        "remainder; already-served trips are screened as duplicates",
    )
    res.add_argument("--seed", type=int, default=0, help="workload seed")
    res.add_argument(
        "--every", type=int, default=100, help="snapshot cadence going forward"
    )
    return parser


def _run_one(exp_id: str, seed: int, csv_path: Optional[str]) -> None:
    runner = EXPERIMENTS[exp_id]
    start = time.time()
    result = runner(seed=seed)
    elapsed = time.time() - start
    print(result.to_text())
    print(f"({exp_id} finished in {elapsed:.1f}s)")
    if csv_path:
        result.save_csv(csv_path)
        print(f"rows written to {csv_path}")


def _run_stats(args) -> int:
    from .datasets import SyntheticConfig, describe, load_mobike_csv, mobike_like_dataset
    from .geo import UniformGrid

    if args.mobike:
        dataset = load_mobike_csv(args.mobike, workers=args.workers)
        source = args.mobike
    else:
        dataset = mobike_like_dataset(
            seed=args.seed,
            days=args.days,
            config=SyntheticConfig(
                trips_per_weekday=args.volume,
                trips_per_weekend_day=int(args.volume * 0.75),
            ),
        )
        source = f"synthetic (seed={args.seed}, days={args.days}, volume={args.volume})"
    grid = UniformGrid(dataset.bounding_box(margin=50.0), cell_size=150.0)
    print(f"workload: {source}")
    print(describe(dataset, grid).to_text())
    return 0


def _parse_seed_grid(spec: str) -> List[int]:
    """Parse a ``--seeds`` spec: ``"0,1,5"`` or a ``"start:stop"`` range."""
    spec = spec.strip()
    if ":" in spec:
        start_s, stop_s = spec.split(":", 1)
        start, stop = int(start_s), int(stop_s)
        if stop <= start:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(start, stop))
    seeds = [int(s) for s in spec.split(",") if s.strip()]
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def _run_sweep(args) -> int:
    from .experiments import ExperimentResult, run_pipeline_sweep
    from .parallel.cells import experiment_cell
    from .parallel.pool import ParallelRunner

    try:
        seeds = _parse_seed_grid(args.seeds)
    except ValueError as exc:
        print(f"bad --seeds: {exc}", file=sys.stderr)
        return 2
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    start = time.time()
    if args.experiment == "pipeline":
        # The pipeline sweep merges all seeds into one table (and one
        # whole-sweep phase-timer breakdown).
        result = run_pipeline_sweep(seeds, volume=args.volume, workers=args.workers)
        print(result.to_text())
    else:
        cells = ParallelRunner(args.workers).map(
            experiment_cell,
            [(args.experiment, s) for s in seeds],
            labels=[f"{args.experiment}[seed={s}]" for s in seeds],
        )
        for cell in cells:  # canonical seed order, independent of workers
            result = ExperimentResult(
                experiment_id=cell["experiment_id"],
                title=f"{cell['title']} [seed={cell['seed']}]",
                headers=cell["headers"],
                rows=cell["rows"],
                notes=cell["notes"],
            )
            print(result.to_text())
            print()
    elapsed = time.time() - start
    print(
        f"({args.experiment} x {len(seeds)} seeds finished in {elapsed:.1f}s "
        f"on {args.workers} worker(s))"
    )
    return 0


def _demo_trips(seed: int, trips: int):
    """Deterministic demo workload shared by ``checkpoint`` and ``resume``.

    Both commands must regenerate the identical stream from the same
    seed so that ``resume`` can replay the full workload and let the
    duplicate screen drop what the crashed run already served.
    """
    from .datasets import SyntheticConfig, mobike_like_dataset

    volume = max(trips, 50)
    dataset = mobike_like_dataset(
        seed=seed,
        days=3,
        config=SyntheticConfig(
            trips_per_weekday=volume, trips_per_weekend_day=volume
        ),
    )
    return list(dataset)[:trips]


def _serve_workload(args):
    """The serve workload: the demo stream, or a named loadgen scenario.

    ``--scenario`` validity is checked by :func:`_run_serve` before any
    dispatch, so this only builds.
    """
    if getattr(args, "scenario", None) is None:
        return _demo_trips(args.seed, args.trips)
    from .geo.points import BoundingBox
    from .loadgen import ODConfig, TripStream, make_scenario

    plane = 2000.0
    rate = 2400.0  # city-wide trips/hour; duration scales to --trips
    bounds = BoundingBox(0.0, 0.0, plane, plane)
    duration_s = max(60.0, args.trips * 3600.0 / rate)
    schedule = make_scenario(args.scenario, bounds, duration_s)
    return TripStream(
        ODConfig(bounds=bounds, trips_per_hour=rate), schedule, seed=args.seed
    ).records(duration_s)


_DEMO_COST = 8000.0


def _demo_service(records, seed: int, bikes: int):
    """Build the demo planner+fleet service over a workload's extent."""
    import numpy as np

    from .core.costs import constant_facility_cost
    from .core.esharing import EsharingConfig, EsharingPlanner
    from .core.streaming import PlacementService
    from .energy.fleet import Fleet
    from .geo.points import Point

    xs = [r.start.x for r in records]
    ys = [r.start.y for r in records]
    anchors = [
        Point(float(x), float(y))
        for x in np.linspace(min(xs), max(xs), 3)
        for y in np.linspace(min(ys), max(ys), 3)
    ]
    historical = np.asarray([[r.start.x, r.start.y] for r in records], dtype=float)
    planner = EsharingPlanner(
        anchors,
        constant_facility_cost(_DEMO_COST),
        historical,
        np.random.default_rng(seed + 1),
        EsharingConfig(),
    )
    fleet = Fleet(
        planner.stations, n_bikes=bikes, rng=np.random.default_rng(seed + 2)
    )
    return PlacementService(planner, fleet)


def _run_checkpoint(args) -> int:
    from .resilience import CheckpointingService, constant_cost_spec

    records = _demo_trips(args.seed, args.trips)
    wrapped = CheckpointingService(
        _demo_service(records, args.seed, args.bikes),
        args.dir,
        checkpoint_every=args.every,
        facility_cost_spec=constant_cost_spec(_DEMO_COST),
    )
    served = len(records) if args.crash_at is None else min(args.crash_at, len(records))
    for record in records[:served]:
        wrapped.handle_trip(record)
    if args.crash_at is None:
        # Clean completion gets a final snapshot; a simulated crash does
        # not, so 'resume' genuinely exercises the journal-tail replay.
        wrapped.checkpoint()
    wrapped.close()
    print(f"served {served}/{len(records)} trips; checkpoints in {args.dir}")
    if served < len(records):
        print(
            "stopped early (simulated crash); "
            "run 'esharing resume' to recover and finish"
        )
    return 0


def _run_serve_sharded(args) -> int:
    """``esharing serve --shards N``: the geo-sharded fleet."""
    import numpy as np

    from .geo import geohash
    from .geo.distance import LocalProjection
    from .geo.points import BoundingBox, Point
    from .guard import GuardConfig, ValidationConfig
    from .resilience.chaos import ChaosConfig, FaultInjector
    from .shard import ShardPlan, ShardedRuntime

    clean = _serve_workload(args)
    records = clean
    if args.chaos:
        injector = FaultInjector(ChaosConfig(
            seed=args.seed, p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
            p_clock_skew=0.02, skew_max_s=900.0, p_garbage=0.02,
            p_late=0.02, late_max_positions=8,
        ))
        records = injector.mutate_trips(clean)
        print(f"chaos upstream: {injector.summary().to_text()}")

    xs = [r.start.x for r in clean] + [r.end.x for r in clean]
    ys = [r.start.y for r in clean] + [r.end.y for r in clean]
    box = BoundingBox(min(xs), min(ys), max(xs), max(ys))
    demand = np.asarray([[r.end.x, r.end.y] for r in clean], dtype=float)
    plan = ShardPlan.from_bounds(box, args.shards, demand=demand)

    # City-wide anchors: a 3x3 grid over the extent, plus each
    # territory's first-cell centre so every shard owns at least one
    # anchor (and one historical row) however the split fell.
    proj = LocalProjection(plan.ref_lat, plan.ref_lon)
    anchors = [
        Point(float(x), float(y))
        for x in np.linspace(box.min_x, box.max_x, 3)
        for y in np.linspace(box.min_y, box.max_y, 3)
    ]
    for sid in range(plan.n_shards):
        lat, lon = geohash.decode(plan.cells_of_shard(sid)[0])
        anchors.append(proj.to_plane(lat, lon))
    historical = np.vstack([demand, [[p.x, p.y] for p in anchors]])

    margin = 500.0
    guard = GuardConfig(
        validation=ValidationConfig(
            bounds=BoundingBox(
                box.min_x - margin, box.min_y - margin,
                box.max_x + margin, box.max_y + margin,
            ),
            max_backwards_s=3600.0,
        ),
        lateness_s=args.lateness,
    )
    runtime = ShardedRuntime(
        plan, args.dir, anchors, historical, seed=args.seed,
        n_bikes=args.bikes, cost_value=_DEMO_COST, guard=guard,
        checkpoint_every=args.every,
    )
    if args.supervise:
        from .guard.runtime import HALTED
        from .shard import FleetSupervisor

        supervisor = FleetSupervisor(runtime)
        outcome = supervisor.serve(
            records, workers=args.workers, block_size=args.block_size
        )
        for report in outcome.reports:
            extra = ""
            if report.restarts:
                extra = f", {report.restarts} restart(s)"
            if report.quarantined:
                extra += f", {len(report.quarantined)} quarantined block(s)"
            inner = report.report
            counts = (
                f"{inner.offered} offered, {inner.served} served, "
                f"{inner.deadlettered} dead-lettered"
                if inner is not None else f"halted: {report.error}"
            )
            print(
                f"shard {report.shard_id:03d}: {counts}, "
                f"health {report.state}{extra}"
            )
        scrub_note = ""
        if outcome.scrub is not None and not outcome.scrub.clean:
            scrub_note = (
                f"; scrub repaired {outcome.scrub.repaired} finding(s)"
            )
        print(
            f"supervised run ({plan.n_shards} shards, {args.workers} "
            f"worker(s)): {outcome.served} served, {outcome.restarts} "
            f"restart(s), {len(outcome.quarantined)} quarantined block(s), "
            f"fleet health {outcome.health}{scrub_note}"
        )
        print(f"per-shard checkpoints in {args.dir}")
        if outcome.health == HALTED:
            print(
                "fleet ended halted; durable state kept for inspection",
                file=sys.stderr,
            )
            return 3
        return 0
    from .guard.runtime import HALTED

    outcome = runtime.serve(
        records, workers=args.workers, block_size=args.block_size
    )
    for report in outcome.reports:
        print(
            f"shard {report.shard_id:03d}: {report.offered} offered, "
            f"{report.served} served, {report.deadlettered} dead-lettered, "
            f"{report.degraded} degraded, health {report.health}"
        )
    print(
        f"sharded run ({plan.n_shards} shards, {args.workers} worker(s)): "
        f"{outcome.served} served, {len(outcome.referrals)} cross-shard "
        f"referral(s), worst health {outcome.health}"
    )
    print(f"per-shard checkpoints in {args.dir}")
    if outcome.health == HALTED:
        print(
            "fleet ended halted; durable state kept for inspection "
            "(consider 'esharing scrub' and '--supervise')",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_serve(args) -> int:
    from pathlib import Path

    from .geo.points import BoundingBox
    from .guard import GuardConfig, GuardedRuntime, ValidationConfig
    from .resilience import CheckpointingService, constant_cost_spec
    from .resilience.chaos import ChaosConfig, FaultInjector

    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.block_size < 1:
        print(f"--block-size must be >= 1, got {args.block_size}", file=sys.stderr)
        return 2
    if args.scenario is not None:
        from .loadgen import SCENARIOS

        if args.scenario not in SCENARIOS:
            print(
                f"unknown scenario {args.scenario!r} "
                f"(known: {', '.join(sorted(SCENARIOS))})",
                file=sys.stderr,
            )
            return 2
    if args.shards > 1:
        return _run_serve_sharded(args)
    records = _serve_workload(args)
    if args.chaos:
        injector = FaultInjector(ChaosConfig(
            seed=args.seed, p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
            p_clock_skew=0.02, skew_max_s=900.0, p_garbage=0.02,
            p_late=0.02, late_max_positions=8,
        ))
        records = injector.mutate_trips(records)
        print(f"chaos upstream: {injector.summary().to_text()}")
        if not args.guard:
            print(
                "warning: --chaos without --guard feeds raw faults to the "
                "unguarded service", file=sys.stderr,
            )
    wrapped = CheckpointingService(
        _demo_service(records, args.seed, args.bikes),
        args.dir,
        checkpoint_every=args.every,
        facility_cost_spec=constant_cost_spec(_DEMO_COST),
    )
    if not args.guard:
        served = 0
        for lo in range(0, len(records), args.block_size):
            chunk = records[lo : lo + args.block_size]
            served += sum(1 for r in wrapped.handle_block(chunk) if r is not None)
        wrapped.checkpoint()
        wrapped.close()
        print(f"served {served}/{len(records)} trips; checkpoints in {args.dir}")
        return 0

    # The city plane: the clean workload's extent plus a margin wide
    # enough that chaos-skewed-but-sane events still pass the bounds rule.
    xs = [r.start.x for r in records] + [r.end.x for r in records]
    ys = [r.start.y for r in records] + [r.end.y for r in records]
    finite_xs = [x for x in xs if math.isfinite(x) and abs(x) < 1e6]
    finite_ys = [y for y in ys if math.isfinite(y) and abs(y) < 1e6]
    box = BoundingBox(
        min(finite_xs) - 500.0, min(finite_ys) - 500.0,
        max(finite_xs) + 500.0, max(finite_ys) + 500.0,
    )
    from .errors import RuntimeHaltedError

    runtime = GuardedRuntime(
        wrapped,
        GuardConfig(
            validation=ValidationConfig(bounds=box, max_backwards_s=3600.0),
            lateness_s=args.lateness,
        ),
    )
    logs = Path(args.dir) / "guard-logs"
    try:
        runtime.serve(records, block_size=args.block_size)
    except RuntimeHaltedError:
        # Durability was lost mid-stream; keep the logs and journal for
        # the operator and report the halt through the exit code.
        runtime.flush_logs(logs)
        runtime.close()
        print(
            f"guarded run HALTED: {runtime.halt_reason} "
            f"({runtime.served} served before the halt)",
            file=sys.stderr,
        )
        print(f"incident and dead-letter logs in {logs}")
        return 3
    runtime.consistency_check()
    runtime.flush_logs(logs)
    runtime.inner.checkpoint()
    runtime.close()
    print(
        f"guarded run: {runtime.validator.offered} offered, "
        f"{runtime.served} served, {runtime.duplicates} duplicates screened, "
        f"{runtime.sink.total} dead-lettered, "
        f"{len(runtime.degraded_decisions)} degraded, "
        f"final health {runtime.health}"
    )
    print(f"incident and dead-letter logs in {logs}")
    return 0


def _run_incidents(args) -> int:
    import json
    from pathlib import Path

    logs = Path(args.dir) / "guard-logs"
    missing = True
    for name, fields in (
        ("incidents.jsonl", ("seq", "kind", "detail")),
        ("deadletter.jsonl", ("seq", "rule", "reason", "order_id")),
    ):
        current = logs / name
        # Size-capped rotation keeps at most one predecessor file
        # (incidents.jsonl -> incidents.1.jsonl); read oldest first.
        rotated = current.with_name(f"{current.stem}.1{current.suffix}")
        paths = [p for p in (rotated, current) if p.exists()]
        if not paths:
            continue
        missing = False
        rows = []
        torn = 0
        for path in paths:
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    rows.append(json.loads(line))
                except ValueError:
                    # A torn trailing line is the normal signature of a
                    # crash mid-flush — skip it rather than refusing the
                    # whole log.
                    torn += 1
        kind = getattr(args, "kind", None)
        if kind:
            # Incident rows carry 'kind', dead-letter rows 'rule' — one
            # filter serves both logs (shed rows match via their rule).
            total = len(rows)
            rows = [
                row
                for row in rows
                if kind in str(row.get("kind") or row.get("rule") or "")
            ]
            suffix = f" matching {kind!r} (of {total})"
        else:
            suffix = ""
        if len(paths) > 1:
            suffix += " (+ rotated)"
        print(f"{name}: {len(rows)} row(s){suffix}")
        if torn:
            print(
                f"warning: {name}: skipped {torn} torn line(s); "
                "run 'esharing scrub' to clean the log in place",
                file=sys.stderr,
            )
        for row in rows[-args.limit:]:
            print("  " + "  ".join(f"{f}={row.get(f)}" for f in fields))
    if missing:
        print(
            f"no guard logs under {logs}; run 'esharing serve --guard' first",
            file=sys.stderr,
        )
        return 2
    return 0


def _run_scrub(args) -> int:
    from pathlib import Path

    from .resilience import scrub_tree

    root = Path(args.dir)
    if not root.exists():
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    repair = not args.check
    report = scrub_tree(root, repair=repair, record=repair)
    print(report.to_text())
    if args.check:
        return 4 if report.findings else 0
    return 4 if report.refused else 0


def _run_resume(args) -> int:
    from .resilience import CheckpointingService

    wrapped = CheckpointingService.recover(args.dir, checkpoint_every=args.every)
    info = wrapped.last_recovery
    print(
        f"recovered from {info.snapshot_path} "
        f"(snapshot seq {info.snapshot_seq}, replayed {info.replayed} "
        "journal records)"
    )
    wrapped.consistency_check()
    print(f"{wrapped.applied_seq} trips applied; consistency check passed")
    if args.trips is not None:
        records = _demo_trips(args.seed, args.trips)
        fresh = sum(1 for r in records if wrapped.handle_trip(r) is not None)
        wrapped.consistency_check()
        print(
            f"continued: {fresh} new trips served "
            f"({len(records) - fresh} duplicates screened), "
            f"total {wrapped.applied_seq}"
        )
    wrapped.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "checkpoint":
        return _run_checkpoint(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "incidents":
        return _run_incidents(args)
    if args.command == "scrub":
        return _run_scrub(args)
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[key].__doc__ or "").strip().splitlines()[0]
            print(f"{key.ljust(width)}  {doc}")
        return 0
    if args.experiment == "all":
        for key in sorted(EXPERIMENTS):
            _run_one(key, args.seed, None)
            print()
        return 0
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    _run_one(args.experiment, args.seed, args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
