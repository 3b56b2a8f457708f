"""End-to-end serve benchmark: one workload per run.

    python3 benchmarks/e2e/run.py --workload steady --seed 0 --seconds 24 --trace 0

runs one of the five workloads (``workloads.NAMES``) against the
program source in this checkout's ``src/``.  It generates the input
from ``--seed``, serves it through the public serving APIs, checks the
outputs, and prints a report followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured by a traced pass after an untraced one (their difference is
the tracing overhead).  ``--smoke`` shrinks every input to a
seconds-scale run of the same shape.  ``--out FILE`` also saves the
result, with the workload, seed and digest, for ``compare.py``.

Any failed check prints ``FAIL [workload] check: detail`` and exits 1
without a result; a checkout without the program source exits 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"
PINNED = HERE / "pinned.json"
#: Passes per run, at least, however long they take.
MIN_PASSES = 3
#: Fresh constructions before every pass: set-up takes milliseconds,
#: and only a median over many is steady.
SETUPS_PER_PASS = 8
#: Recoveries of every pass's final directory.
RECOVERIES_PER_PASS = 2


def load_program() -> None:
    """Put this checkout's program source first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pinned_digest(workload: str, seed: int, smoke: bool):
    if smoke or not PINNED.exists():
        return None
    return json.loads(PINNED.read_text())["digests"].get(workload, {}).get(str(seed))


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@contextmanager
def program_heap():
    """Run the body with only the program's own objects to collect.

    A full collection first, then every object alive is frozen out of
    the collector until the body ends.  The benchmark keeps results
    between its timed phases, a different amount before each; a
    full-heap collection inside a timed call would traverse them and
    cost tens of milliseconds more or less depending on that.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def at_reference_speed(timed) -> tuple:
    """``timed()`` returns ``(seconds, value)``; run it between five
    reference runs before and five after, and return its seconds
    divided by their slowness."""
    from reference import reference, slowness

    before = [reference() for _ in range(5)]
    seconds, value = timed()
    after = [reference() for _ in range(5)]
    return seconds / slowness(before + after), value


# ----------------------------------------------------------------------
def check_pass(name: str, result, pin, reference=None) -> None:
    from workloads import CheckFailed

    if reference is not None and result.digest != reference.digest:
        raise CheckFailed(
            "determinism", f"{name}: digest {result.digest[:16]} differs from "
            f"the first pass's {reference.digest[:16]}"
        )
    if pin is not None and result.digest != pin:
        raise CheckFailed(
            "digest", f"{name}: {result.digest} != pinned {pin}"
        )


def check_recovered(name: str, state, live) -> None:
    from workloads import CheckFailed

    if state != live:
        raise CheckFailed(
            "recovery", f"{name}: the recovered state differs from the live state"
        )


def end_to_end(wl, seconds: float, workdir: Path, pin, report) -> tuple:
    """Passes over the same input for ``seconds``, at least
    ``MIN_PASSES``, each after ``SETUPS_PER_PASS`` set-ups and followed
    by ``RECOVERIES_PER_PASS`` recoveries.

    Set-up and recovery are timed between the passes, so that all three
    sample the host across the whole run rather than at one moment.
    Every timing is divided by the host's slowness around it, from
    reference runs (``reference.py``): each stretch of a closed-loop
    pass by the runs between the calls near it (``ServeClock``), a
    set-up or recovery by the runs either side of it.  An open loop
    keeps to its schedule, so ``paced``'s rate and latencies are left
    as measured.  Each metric is the median of its repetitions; a
    median does not move with how many repetitions fit into
    ``seconds``, so a faster program gains nothing from getting more.
    """
    setup_s: list = []
    recover_s: list = []

    def set_up(count: int) -> None:
        # A set-up leaves little garbage: one collection serves them all.
        with program_heap():
            for _ in range(count):
                directory = workdir / f"setup-{len(setup_s)}"

                def build():
                    start = time.perf_counter()
                    built = wl.build(directory)
                    return time.perf_counter() - start, built

                elapsed, built = at_reference_speed(build)
                setup_s.append(elapsed)
                wl.close(built)
                shutil.rmtree(directory, ignore_errors=True)

    def recover(result) -> None:
        with program_heap():
            elapsed, state = at_reference_speed(lambda: wl.recover(result.root))
        check_recovered(wl.name, state, result.live)
        recover_s.append(elapsed)

    passes = []
    began = time.perf_counter()
    longest = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() + longest < began + seconds:
        started = time.perf_counter()
        set_up(SETUPS_PER_PASS)
        with program_heap():
            result = wl.serve(workdir / f"pass-{len(passes)}")
        check_pass(wl.name, result, pin, passes[0] if passes else None)
        for _ in range(RECOVERIES_PER_PASS):
            recover(result)
        if passes:
            shutil.rmtree(passes[-1].root.parent, ignore_errors=True)
            passes[-1].live = None
        passes.append(result)
        longest = max(longest, time.perf_counter() - started)
    last, first = passes[-1], passes[0]
    walls = [p.raw_wall_s for p in passes]
    slowness = [p.slowness for p in passes]
    report.append(
        f"{len(passes)} pass(es) in {time.perf_counter() - began:.2f} s, serve "
        f"phases {min(walls):.2f}-{max(walls):.2f} s each; {len(setup_s)} "
        f"set-ups, {len(recover_s)} recoveries"
    )
    report.append(
        f"{len(first.latencies_s)} latency samples (trips) per pass; digest "
        f"{first.digest[:16]} ({'pinned match' if pin else 'no pinned digest'})"
    )
    report.extend(first.notes)
    report.append(
        f"quality (exact for the seed): mean walk {first.walk_sum / first.answered:.1f} m, "
        f"{first.stations_open:g} station(s) open at the end"
    )
    if first.references:
        report.append(
            f"host: {first.references} reference runs a pass put it at "
            f"{min(slowness):.2f}-{max(slowness):.2f}x the reference speed; "
            f"unscaled, the median pass served "
            f"{statistics.median(p.raw_trips_per_s for p in passes):,.0f} trips/s"
        )
    # Every pass serves the same trips, so each trip has one latency per
    # pass: its median keeps a stall that hits the trip in most passes,
    # as the program's own do, and drops one that hit a single pass.
    latency_ms = np.median([p.latencies_s for p in passes], axis=0) * 1e3
    values = {
        "setup_s": statistics.median(setup_s),
        "trips_per_s": statistics.median(p.trips_per_s for p in passes),
        "latency_p50_ms": float(np.percentile(latency_ms, 50)),
        "latency_p99_ms": float(np.percentile(latency_ms, 99)),
        "recover_s": statistics.median(recover_s),
        "peak_rss_mb": peak_rss_mb(),
        "snapshot_mb": last.snapshot_bytes / 1e6,
        "served_frac": 1.0 - (first.deadlettered + first.refused) / first.offered,
        "planner_frac": 1.0 - first.fallback / first.offered,
    }
    return values, sum(p.offered for p in passes), first.digest


# ----------------------------------------------------------------------
#: Layers measured on every workload, with their per-quarter cost.
QUARTER_LAYERS = (
    "guard.runtime", "guard.validation", "guard.reorder", "core.tripblock",
    "resilience.service", "resilience.journal", "resilience.checkpoint",
    "core.streaming.state_dict", "resilience.snapshot", "core.streaming",
    "core.station_set", "energy.fleet", "core.esharing",
)
#: Layers only ``fleet`` drives.
FLEET_LAYERS = ("shard.router", "shard.runtime", "parallel.pool")


def snapshot_payloads(result) -> list:
    from repro.resilience.snapshot import decode_snapshot
    from workloads import newest_snapshot, zero_ks

    payloads = []
    for directory in result.final_dirs:
        payload = decode_snapshot(newest_snapshot(directory).read_bytes())
        zero_ks(payload["service"])
        payloads.append(payload)
    return payloads


def per_layer(wl, workdir: Path, pin, spans_path: Path, report) -> tuple:
    """Untraced and traced passes in turn, twice each: the tracing
    overhead compares their median trips/s at the reference speed.
    Per-layer numbers come from the first traced pass and one traced
    recovery."""
    from tracer import RECOVER, Tracer
    from workloads import CheckFailed

    served = []

    def serve(name: str, tracer=None):
        with program_heap():
            result = wl.serve(workdir / name, tracer)
        check_pass(wl.name, result, pin, served[0] if served else None)
        served.append(result)
        return result

    untraced = [serve("untraced-0")]
    with Tracer() as tracer:
        traced = [serve("traced-0", tracer)]
        with tracer.window(RECOVER):
            _, state = wl.recover(traced[0].root)
    check_recovered(wl.name, state, traced[0].live)
    untraced.append(serve("untraced-1"))
    with Tracer() as again:
        traced.append(serve("traced-1", again))
    expected = snapshot_payloads(untraced[0])
    for result in served[1:]:
        if snapshot_payloads(result) != expected:
            raise CheckFailed(
                "trace", f"{wl.name}: tracing changed a snapshot beyond ks_seconds"
            )
    tracer.write(spans_path)

    totals = tracer.layer_totals()
    quarters = tracer.us_per_trip_by_quarter()
    rate_untraced, rate_traced = (
        statistics.median(r.trips_per_s for r in results) for results in (untraced, traced)
    )
    overhead = 1.0 - rate_traced / rate_untraced
    coverage = tracer.coverage()
    handled = totals["core.streaming"]["handle_trip_calls"]
    values = {
        f"{layer}.self_s": totals[layer]["self_s"]
        for layer in QUARTER_LAYERS + ("guard.logs", "resilience.recover")
    }
    for layer in QUARTER_LAYERS:
        q = quarters.get(layer, [None] * 4)
        values[f"{layer}.us_per_trip.q1"] = q[0] or 0.0
        values[f"{layer}.us_per_trip.q4"] = q[3] or 0.0
    for layer in ("guard.validation", "core.tripblock", "core.station_set",
                  "resilience.checkpoint"):
        values[f"{layer}.calls"] = totals[layer]["calls"]
    for layer in FLEET_LAYERS:
        values[f"{layer}.calls"] = totals[layer]["calls"]
    values.update({
        "resilience.journal.commits": totals["resilience.journal"]["calls"],
        "resilience.journal.bytes": traced[0].journal_bytes,
        "resilience.checkpoint.max_ms": totals["resilience.checkpoint"]["max_s"] * 1e3,
        "resilience.snapshot.save_s": totals["resilience.snapshot"]["save_s"],
        "resilience.snapshot.load_s": totals["resilience.snapshot"]["load_latest_s"],
        "resilience.recover.replay_s": totals["resilience.recover"]["replay_s"],
        "energy.fleet.ride_s": totals["energy.fleet"]["ride_s"],
        "energy.fleet.pick_bike_per_trip":
            tracer.calls["energy.fleet.pick_bike"] / max(handled, 1),
        "energy.fleet.bikes_at_per_trip":
            tracer.calls["energy.fleet.bikes_at"] / max(handled, 1),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    })
    for counter in (
        "guard.validation.rejected", "guard.reorder.too_late",
        "guard.reorder.max_pending", "guard.overload.shed",
        "guard.overload.deferred", "guard.overload.max_depth",
        "resilience.service.duplicates", "resilience.snapshot.bytes_written",
        "resilience.recover.replayed", "core.esharing.ks_s",
    ):
        values[counter] = tracer.counters[counter]

    report.append(
        f"traced digest {served[0].digest[:16]} == untraced; span coverage "
        f"{coverage:.1%} of busy serve time; tracing overhead {overhead:+.1%} "
        f"trips/s ({rate_untraced:,.0f} untraced, {rate_traced:,.0f} traced)"
    )
    report.extend(layer_table(tracer, quarters, "serve-phase self time by layer"))
    report.append(f"spans written to {spans_path}")
    return values, sum(r.offered for r in served), served[0].digest


def layer_table(tracer, quarters, title) -> list:
    """Serve-phase self time per layer, largest first, as report lines."""
    busy = tracer.busy_s()
    rows = sorted(
        tracer.layer_totals(serve_only=True).items(), key=lambda kv: -kv[1]["self_s"]
    )
    lines = [
        f"{title} over {busy:.2f} s busy:",
        f"  {'layer':<28}{'self_s':>9}{'share':>8}{'calls':>9}"
        f"{'us/trip q1':>12}{'us/trip q4':>12}",
    ]
    for layer, row in rows:
        q = quarters.get(layer, [None] * 4)
        cells = "".join(
            f"{v:>12.1f}" if v is not None else f"{'-':>12}" for v in (q[0], q[3])
        )
        lines.append(
            f"  {layer:<28}{row['self_s']:>9.3f}{row['self_s'] / busy:>8.1%}"
            f"{int(row['calls']):>9}{cells}"
        )
    return lines


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One benchmark run; returns ``(result line, report lines, digest)``.

    Raises:
        workloads.CheckFailed: on any failed correctness check.
    """
    import workloads

    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    report = [f"workload {workload}, seed {seed}{' (smoke)' if smoke else ''}"]
    began = time.perf_counter()
    try:
        wl = workloads.make(workload, seed, smoke)
        report.append(f"input generated in {time.perf_counter() - began:.2f} s")
        wl.check_horizon()
        pin = pinned_digest(workload, seed, smoke)
        if trace:
            spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
            values, attempted, digest = per_layer(wl, workdir, pin, spans, report)
        else:
            values, attempted, digest = end_to_end(wl, seconds, workdir, pin, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.append(f"run took {time.perf_counter() - began:.2f} s")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"no value measured for {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        report.append(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    line = {"correct": True, "attempted": int(attempted), "failed": 0, "metrics": metrics}
    return line, report, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end serve benchmark (one workload per run)"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time (default BENCHMARK.json's run_seconds, or 0 "
        "with --smoke: the minimum passes)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="also save the result here")
    args = parser.parse_args(argv)
    try:
        load_program()
    except FileNotFoundError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    from workloads import NAMES, CheckFailed

    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(
            json.loads(SPEC.read_text())["run_seconds"]
        )

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(NAMES)})")
    try:
        line, report, digest = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except CheckFailed as exc:
        print(f"FAIL [{args.workload}] {exc}", file=sys.stderr)
        return 1
    print("\n".join(report))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke, "digest": digest,
            "result": line,
        }) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
