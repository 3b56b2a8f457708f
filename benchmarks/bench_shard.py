"""Geo-sharded runtime scaling — shards vs throughput (``BENCH_shard.json``).

Serves one demo-city stream through :class:`repro.shard.ShardedRuntime`
at 1/2/4/8 shards (each sweep point fanning its shards across that many
workers) and records the wall-clock curve to ``BENCH_shard.json`` at
the repo root.

Parity is asserted inside every sweep point, before its timing is
accepted: each shard of the fleet must have produced exactly the
outcomes and journal bytes of a standalone single-shard runtime built
from the same :class:`~repro.shard.ShardSpec` and fed that shard's
sub-stream (the oracles run *outside* the timed region).  A sweep point
that is fast but wrong fails the benchmark regardless of speed.

The scaling gate (>= 1.6x end-to-end at 4 shards / 4 workers) is
enforced only when the host exposes >= 4 usable cores; on a
core-limited CI container the curve is still recorded but the verdict
says why the gate was skipped — process fan-out on one core measures
the scheduler, not the partitioner.  ``--smoke`` runs a seconds-scale
parity-only subset for CI.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro import gauntlet
from repro.parallel import usable_cores
from repro.shard import (
    FleetSupervisor,
    ShardRouter,
    SupervisorConfig,
    build_shard_runtime,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_shard.json"
SHARD_SWEEP = (1, 2, 4, 8)
GATE_SHARDS = 4
GATE_SPEEDUP = 1.6  # end-to-end at 4 shards / 4 workers vs 1 shard serial
MIN_GATE_CORES = 4  # the gate needs hardware that can express a speedup


def _assert_parity(city, trips, outcome, tmp):
    """Every fleet shard vs its standalone oracle — outcomes AND journal
    bytes.  Runs outside the timed region; raises on any divergence."""
    buckets = ShardRouter(city.plan).split_trips(trips)
    by_id = {r.shard_id: r for r in outcome.reports}
    for sid in range(city.plan.n_shards):
        if not buckets[sid]:
            continue
        oracle = build_shard_runtime(city.spec(sid), tmp / f"oracle-{sid}")
        expected = oracle.serve(buckets[sid])
        oracle.close()
        if by_id[sid].outcomes != tuple(expected):
            raise AssertionError(
                f"shard {sid} outcomes diverged from its standalone oracle"
            )
        fleet = (
            Path(city.directory) / f"shard-{sid:03d}" / "journal.jsonl"
        ).read_bytes()
        want = (tmp / f"oracle-{sid}" / "journal.jsonl").read_bytes()
        if fleet != want:
            raise AssertionError(
                f"shard {sid} journal bytes diverged from its standalone oracle"
            )


def run_shard_scaling(shard_sweep=SHARD_SWEEP, n_trips=6_000, seed=0):
    """Serve the same stream at every shard count; assert oracle parity
    at each point before accepting its timing."""
    trips = gauntlet.trips(n_trips, seed=seed)
    sweep = []
    baseline_seconds = None
    for n_shards in shard_sweep:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            city = gauntlet.fleet(n_shards, tmp / "city", seed=seed, durable=True)
            start = time.perf_counter()
            outcome = city.serve(trips, workers=n_shards)
            elapsed = time.perf_counter() - start
            _assert_parity(city, trips, outcome, tmp)
            if baseline_seconds is None:
                baseline_seconds = elapsed
            sweep.append(
                {
                    "shards": n_shards,
                    "workers": n_shards,
                    "seconds": elapsed,
                    "speedup": baseline_seconds / elapsed,
                    "efficiency": baseline_seconds / elapsed / n_shards,
                    "trips_per_sec": n_trips / elapsed,
                    "served": outcome.served,
                    "deadlettered": outcome.deadlettered,
                    "referrals": len(outcome.referrals),
                }
            )
    return {
        "benchmark": "geo-sharded fleet serve, shards == workers",
        "trips": n_trips,
        "parity": (
            "per-shard outcomes and journal bytes identical to standalone "
            "oracles at every sweep point (oracles untimed)"
        ),
        "sweep": sweep,
    }


def run_supervision_overhead(n_trips=2_000, n_shards=2, seed=0):
    """Fault-free supervised serve vs the plain fleet: the watchdog and
    post-epoch scrub must cost little and change nothing (journal bytes
    identical shard by shard)."""
    trips = gauntlet.trips(n_trips, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        plain = gauntlet.fleet(n_shards, tmp / "plain", seed=seed, durable=True)
        start = time.perf_counter()
        plain.serve(trips)
        plain_seconds = time.perf_counter() - start

        supervised = gauntlet.fleet(
            n_shards, tmp / "supervised", seed=seed, durable=True
        )
        supervisor = FleetSupervisor(supervised, config=SupervisorConfig())
        start = time.perf_counter()
        outcome = supervisor.serve(trips)
        supervised_seconds = time.perf_counter() - start

        if outcome.restarts or outcome.quarantined:
            raise AssertionError("fault-free supervised run restarted")
        for sid in range(n_shards):
            name = f"shard-{sid:03d}/journal.jsonl"
            if (tmp / "supervised" / name).read_bytes() != (
                tmp / "plain" / name
            ).read_bytes():
                raise AssertionError(f"supervised journal diverged: {name}")
    return {
        "benchmark": "fault-free supervised serve vs plain fleet",
        "trips": n_trips,
        "shards": n_shards,
        "plain_seconds": plain_seconds,
        "supervised_seconds": supervised_seconds,
        "overhead": supervised_seconds / plain_seconds - 1.0,
        "parity": "journal bytes identical shard by shard",
    }


def run_full_report(shard_sweep=SHARD_SWEEP):
    cores = usable_cores()
    scaling = run_shard_scaling(shard_sweep)
    supervision = run_supervision_overhead()
    at_gate = next(
        (row for row in scaling["sweep"] if row["shards"] == GATE_SHARDS), None
    )
    gate_enforced = cores >= MIN_GATE_CORES
    return {
        "host": {
            "cpu_count": os.cpu_count(),
            "usable_cores": cores,
        },
        "scaling": scaling,
        "supervision": supervision,
        "gates": {
            "parity": "ok (asserted at every sweep point)",
            "required_speedup_at_4_shards": GATE_SPEEDUP,
            "measured_speedup_at_4_shards": at_gate["speedup"] if at_gate else None,
            "enforced": gate_enforced,
            "verdict": (
                ("pass" if at_gate and at_gate["speedup"] >= GATE_SPEEDUP else "fail")
                if gate_enforced
                else f"skipped: host exposes {cores} usable core(s); the "
                f"wall-clock gate needs >= {MIN_GATE_CORES} to be measurable"
            ),
        },
    }


def write_report(report, path=BENCH_JSON):
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def _print_report(report):
    scaling = report["scaling"]
    print(f"{scaling['benchmark']}:")
    print(f"{'shards':>7} {'seconds':>9} {'speedup':>8} {'trips/s':>10} {'refer':>6}")
    for row in scaling["sweep"]:
        print(
            f"{row['shards']:>7} {row['seconds']:>9.3f} {row['speedup']:>7.2f}x "
            f"{row['trips_per_sec']:>10,.0f} {row['referrals']:>6}"
        )
    supervision = report.get("supervision")
    if supervision:
        print(
            f"supervision overhead (fault-free, {supervision['shards']} shards): "
            f"{supervision['overhead']:+.1%} "
            f"({supervision['supervised_seconds']:.3f}s vs "
            f"{supervision['plain_seconds']:.3f}s)"
        )
    gates = report["gates"]
    print(
        f"gate: >= {gates['required_speedup_at_4_shards']}x at {GATE_SHARDS} "
        f"shards -> {gates['verdict']}"
    )


# ----------------------------------------------------------------------
# pytest entry point (pytest benchmarks/) — parity-gated, modest sizes.
def test_shard_scaling_parity_smoke():
    """Every fleet shard matches its standalone oracle bit for bit."""
    report = run_shard_scaling(shard_sweep=(1, 2), n_trips=400)
    assert all(row["seconds"] > 0 for row in report["sweep"])
    assert all(row["served"] > 0 for row in report["sweep"])


def test_supervision_overhead_smoke():
    """A fault-free supervised run changes nothing (parity asserted
    inside the helper)."""
    report = run_supervision_overhead(n_trips=300)
    assert report["supervised_seconds"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale subset for CI (1/2-shard sweep, parity gates only)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        scaling = run_shard_scaling(shard_sweep=(1, 2), n_trips=600)
        _print_report({
            "scaling": scaling,
            "supervision": run_supervision_overhead(n_trips=400),
            "gates": {
                "required_speedup_at_4_shards": GATE_SPEEDUP,
                "verdict": "skipped (smoke: parity only)",
            },
        })
        print("parity OK (every shard bit-identical to its standalone oracle)")
        return 0
    report = run_full_report()
    path = write_report(report)
    _print_report(report)
    print(f"wrote {path}")
    if report["gates"]["verdict"] == "fail":
        print(
            f"FAIL: sharded serve only "
            f"{report['gates']['measured_speedup_at_4_shards']:.2f}x serial "
            f"at {GATE_SHARDS} shards (gate {GATE_SPEEDUP}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
