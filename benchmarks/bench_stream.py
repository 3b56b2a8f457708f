"""Columnar trip-stream hot path — throughput gates (``BENCH_stream.json``).

Times the struct-of-arrays pipeline against per-trip baselines (the
per-trip primitives of each stage; a block of one for ``serve``), stage
by stage and composed:

* **validator** — ``TripValidator.admit_block`` vs the per-trip
  reference ``admit`` loop on a chaos-mutated stream;
* **validator_teleport** — the same with the teleport rule on
  (``max_bike_speed_mps`` 1 m/s, so bikes' hops get rejected);
* **buffer** — ``WatermarkBuffer.push_block`` on an already-sorted
  stream, where the fast path releases a zero-copy block slice, vs the
  per-trip reference buffer's heap churn;
* **buffer_full** — a locally shuffled stream whose lateness keeps the
  buffer held just below ``max_pending``, so every block takes the
  general (disordered) route next to the capacity cap;
* **journal** — ``TripJournal.append_block`` group commit (one durable
  ``write+fsync`` per block) vs one fsync per trip;
* **wal_checksum** — the per-line WAL checksum in isolation: the
  batched ``checksum_hex_many`` the group commit stamps lines with vs
  the scalar per-line ``checksum_hex`` loop it replaced;
* **replay (the gate)** — the composed guarded hot path: validate →
  reorder → journal (durable) → plan, scalar per-trip vs blocked
  end to end.  The gate demands **>= 10x** trips/sec, and the two runs
  must agree bit for bit first — identical admit decisions, identical
  journal bytes, identical planner decisions — or the benchmark fails
  regardless of speed;
* **serve** — ``GuardedRuntime.serve`` at ``block_size=256`` vs a block
  of one (``block_size=1``, the same single serve path; recorded, not
  gated: the planner *apply* inside the checkpointing service is
  deliberately per-trip, so the end-to-end curve is bounded by it).

The per-trip validator and buffer are the independent oracles of
``tests/guard/reference.py`` (``TripValidator.admit`` and
``WatermarkBuffer.push`` are blocks of one, so timing them would
measure the blocked code twice), imported with the repository root on
``sys.path``.

Parity is asserted *inside* every section, as ``bench_parallel`` does.
``--smoke`` runs a seconds-scale subset for CI: full parity, a relaxed
>= 2x floor on the composed path, and — when a committed
``BENCH_stream.json`` is present — a check that its recorded gate
verdict is still ``pass``.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from repro.core.costs import constant_facility_cost
from repro.core.esharing import EsharingConfig, EsharingPlanner
from repro.core.tripblock import TripBlock
from repro.datasets.trips import TripRecord
from repro.geo.points import BoundingBox, Point
from repro.guard import (
    DeadLetterSink,
    GuardConfig,
    GuardedRuntime,
    TripValidator,
    ValidationConfig,
    WatermarkBuffer,
)
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.journal import TripJournal
from repro.resilience.service import CheckpointingService, constant_cost_spec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.guard.reference import ReferenceBuffer, ReferenceValidator  # noqa: E402

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"
GATE_SPEEDUP = 10.0  # composed guarded-replay hot path, blocked vs scalar
SMOKE_FLOOR = 2.0  # relaxed floor for the CI smoke run
BLOCK = 256
PLANE = 2000.0
COST_VALUE = 8000.0
T0 = datetime(2017, 5, 10)


def make_trips(n, seed=0):
    """A clean, in-order stream on the demo plane (the loader's output
    shape: time-sorted, all fields present)."""
    rng = np.random.default_rng(seed)
    return [
        TripRecord(
            order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
            start_time=T0 + timedelta(seconds=30 * i),
            start=Point(*rng.uniform(0.0, PLANE, 2)),
            end=Point(*rng.uniform(0.0, PLANE, 2)),
            battery=float(rng.uniform(0.1, 1.0)),
        )
        for i in range(n)
    ]


def make_hostile(n, seed=0):
    """The same stream chaos-mutated — garbage, skew, reorder, dupes —
    so the validator benchmark exercises its reject paths too."""
    return FaultInjector(ChaosConfig(
        seed=seed,
        p_duplicate=0.03, p_drop=0.03, p_swap=0.05,
        p_clock_skew=0.02, skew_max_s=900.0,
        p_garbage=0.03,
        p_late=0.02, late_max_positions=8,
    )).mutate_trips(make_trips(n, seed=seed))


def make_jittered(n, jitter=16.0, seed=0):
    """The clean stream locally shuffled: each trip moves up to
    ``jitter`` positions, so no block arrives sorted."""
    trips = make_trips(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    order = np.argsort(np.arange(n) + rng.uniform(0.0, jitter, n), kind="stable")
    return [trips[i] for i in order]


def make_blocks(trips, size):
    """Pre-cut columnar blocks (the loader emits these natively via
    ``load_mobike_csv(as_block=True)``; conversion is not what we
    measure here — the ``serve`` section includes it)."""
    return [
        TripBlock.from_trips(trips[lo : lo + size])
        for lo in range(0, len(trips), size)
    ]


def fresh_validator(cls=TripValidator, max_bike_speed_mps=0.0):
    return cls(
        ValidationConfig(
            bounds=BoundingBox(-100.0, -100.0, PLANE + 100.0, PLANE + 100.0),
            max_backwards_s=3600.0,
            max_bike_speed_mps=max_bike_speed_mps,
        ),
        sink=DeadLetterSink(),
    )


def build_planner(seed=0):
    anchors = [
        Point(float(x), float(y))
        for x in (0, 667, 1333, 2000)
        for y in (0, 667, 1333, 2000)
    ]
    historical = np.random.default_rng(seed).uniform(0.0, PLANE, size=(300, 2))
    # beta/history_window set the periodic-KS cadence and sample size —
    # a workload knob, applied identically to both sides of every
    # comparison (the check itself is the same code either way).
    return EsharingPlanner(
        anchors,
        constant_facility_cost(COST_VALUE),
        historical,
        np.random.default_rng(seed + 1),
        EsharingConfig(beta=8.0, history_window=100),
    )


def _rate_row(n, scalar_s, blocked_s):
    return {
        "trips": n,
        "scalar_seconds": scalar_s,
        "blocked_seconds": blocked_s,
        "scalar_trips_per_sec": n / scalar_s,
        "blocked_trips_per_sec": n / blocked_s,
        "speedup": scalar_s / blocked_s,
    }


# ----------------------------------------------------------------------
# Stage benchmarks.
# ----------------------------------------------------------------------

def run_validator(n=40_000, block=BLOCK, seed=3, max_bike_speed_mps=0.0):
    stream = make_hostile(n, seed=seed)
    blocks = make_blocks(stream, block)

    scalar = fresh_validator(ReferenceValidator, max_bike_speed_mps)
    start = time.perf_counter()
    want = [scalar.admit(t) for t in stream]
    scalar_s = time.perf_counter() - start

    blocked = fresh_validator(max_bike_speed_mps=max_bike_speed_mps)
    start = time.perf_counter()
    got = []
    for blk in blocks:
        got.extend(bool(b) for b in blocked.admit_block(blk))
    blocked_s = time.perf_counter() - start

    if got != want or blocked.counters != scalar.counters:
        raise AssertionError("blocked validator diverged from scalar")
    if blocked.sink.rows != scalar.sink.rows:
        raise AssertionError("blocked dead-letter rows diverged from scalar")
    report = _rate_row(len(stream), scalar_s, blocked_s)
    report["benchmark"] = "validator: admit_block vs per-trip admit"
    report["max_bike_speed_mps"] = max_bike_speed_mps
    report["rejected"] = scalar.rejected
    report["teleport_rejected"] = scalar.counters["teleport"]
    report["parity"] = "decisions, counters and dead-letter rows identical"
    return report


def run_buffer_sorted(n=40_000, block=BLOCK, seed=4):
    stream = make_trips(n, seed=seed)
    blocks = make_blocks(stream, block)
    key = lambda t: (t.order_id, t.start_time)  # noqa: E731

    scalar = ReferenceBuffer(lateness_s=600.0, max_pending=10_000)
    start = time.perf_counter()
    want = []
    for trip in stream:
        want.extend(scalar.push(trip))
    want.extend(scalar.flush())
    scalar_s = time.perf_counter() - start

    blocked = WatermarkBuffer(lateness_s=600.0, max_pending=10_000)
    start = time.perf_counter()
    released = []
    for blk in blocks:
        released.append(blocked.push_block(blk))
    tail = blocked.flush()
    blocked_s = time.perf_counter() - start
    # Parity conversion happens outside the timed region: downstream
    # consumers (replay, append_block) take the released blocks natively.
    got = [t for blk in released for t in blk.to_trips()]
    got.extend(tail)

    if [key(t) for t in got] != [key(t) for t in want]:
        raise AssertionError("blocked buffer release order diverged from scalar")
    # the identity-on-sorted-streams fast path must be zero-copy
    probe = WatermarkBuffer(lateness_s=0.0, max_pending=10_000)
    out = probe.push_block(blocks[0])
    if not np.shares_memory(out.start_us, blocks[0].start_us):
        raise AssertionError("sorted fast path copied instead of slicing")
    report = _rate_row(len(stream), scalar_s, blocked_s)
    report["benchmark"] = "reorder buffer: sorted-stream fast path vs heap churn"
    report["parity"] = "release order identical; fast path verified zero-copy"
    return report


def run_buffer_full(n=40_000, max_pending=10_000, block=BLOCK, seed=9):
    """A disordered stream held just below the capacity cap: at one trip
    per 30 s, ``lateness_s`` keeps about ``max_pending - 64`` pending."""
    stream = make_jittered(n, seed=seed)
    blocks = make_blocks(stream, block)
    lateness_s = 30.0 * (max_pending - 64)
    key = lambda t: (t.order_id, t.start_time)  # noqa: E731

    scalar = ReferenceBuffer(lateness_s=lateness_s, max_pending=max_pending)
    held = 0
    start = time.perf_counter()
    want = []
    for trip in stream:
        want.extend(scalar.push(trip))
        held = max(held, len(scalar))
    flush_start = time.perf_counter()
    want.extend(scalar.flush())
    scalar_s = time.perf_counter() - start
    scalar_flush_s = scalar_s - (flush_start - start)

    blocked = WatermarkBuffer(lateness_s=lateness_s, max_pending=max_pending)
    start = time.perf_counter()
    released = [blocked.push_block(blk) for blk in blocks]
    flush_start = time.perf_counter()
    tail = blocked.flush()
    blocked_s = time.perf_counter() - start
    blocked_flush_s = blocked_s - (flush_start - start)
    got = [t for blk in released for t in blk.to_trips()]
    got.extend(tail)

    if [key(t) for t in got] != [key(t) for t in want]:
        raise AssertionError("blocked buffer release order diverged from scalar")
    counts = lambda b: (b.admitted, b.emitted, b.too_late, b.shed)  # noqa: E731
    if counts(blocked) != counts(scalar) or blocked.sink.rows != scalar.sink.rows:
        raise AssertionError("blocked buffer accounting diverged from scalar")
    report = _rate_row(len(stream), scalar_s, blocked_s)
    report["benchmark"] = "reorder buffer: disordered stream held near max_pending"
    report["max_pending"] = max_pending
    report["max_held"] = held
    # flush is end-of-stream only; the blocked buffer builds its held
    # rows' records there, the per-trip one returns the offered objects
    report["scalar_flush_seconds"] = scalar_flush_s
    report["blocked_flush_seconds"] = blocked_flush_s
    report["too_late"] = scalar.too_late
    report["shed"] = scalar.shed
    report["parity"] = "release order, counters and dead-letter rows identical"
    return report


def run_journal(n=8_000, block=BLOCK, seed=5, workdir=None):
    stream = make_trips(n, seed=seed)
    blocks = make_blocks(stream, block)

    scalar_path = workdir / "scalar.jsonl"
    journal = TripJournal(scalar_path, durable=True)
    start = time.perf_counter()
    for trip in stream:
        journal.append(trip)
    journal.close()
    scalar_s = time.perf_counter() - start

    blocked_path = workdir / "blocked.jsonl"
    journal = TripJournal(blocked_path, durable=True)
    start = time.perf_counter()
    for blk in blocks:
        journal.append_block(blk)
    journal.close()
    blocked_s = time.perf_counter() - start

    if blocked_path.read_bytes() != scalar_path.read_bytes():
        raise AssertionError("group-commit journal bytes diverged from scalar")
    report = _rate_row(len(stream), scalar_s, blocked_s)
    report["benchmark"] = "journal: group-commit fsync per block vs per trip"
    report["fsyncs_scalar"] = len(stream)
    report["fsyncs_blocked"] = -(-len(stream) // block)
    report["parity"] = "journal bytes identical"
    return report


def run_checksum(n=40_000, seed=8):
    """WAL per-line checksum: the scalar ``checksum_hex(body)[:16]``
    loop ``append_block`` used to run vs the batched
    ``checksum_hex_many`` it runs now.  Same bodies, and the digests
    must match character for character."""
    from repro.ioutil import checksum_hex, checksum_hex_many
    from repro.resilience.journal import CHECKSUM_PREFIX_LEN, _encode_block_lines

    block = TripBlock.from_trips(make_trips(n, seed=seed))
    lines = _encode_block_lines(range(1, n + 1), block)
    blobs = [line.split(" ", 1)[1].rstrip("\n").encode("utf-8") for line in lines]

    start = time.perf_counter()
    want = [checksum_hex(b)[:CHECKSUM_PREFIX_LEN] for b in blobs]
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    got = checksum_hex_many(blobs, CHECKSUM_PREFIX_LEN)
    blocked_s = time.perf_counter() - start

    if got != want:
        raise AssertionError("batched WAL checksums diverged from scalar")
    report = _rate_row(n, scalar_s, blocked_s)
    report["benchmark"] = (
        "WAL line checksum: checksum_hex_many vs per-line checksum_hex"
    )
    report["checksum_prefix_len"] = CHECKSUM_PREFIX_LEN
    report["parity"] = "digests identical"
    return report


def run_replay_gate(n=20_000, block=BLOCK, seed=6, workdir=None):
    """THE GATE: the composed guarded hot path, scalar vs blocked.

    validate → reorder → durably journal → plan, over the same stream,
    from identically-seeded planners.  Decisions, journal bytes and
    planner state must match bit for bit; then the blocked path must be
    >= 10x the scalar trips/sec.
    """
    stream = make_trips(n, seed=seed)
    blocks = make_blocks(stream, block)

    v1 = fresh_validator(ReferenceValidator)
    b1 = ReferenceBuffer(lateness_s=600.0, max_pending=10_000)
    p1 = build_planner(seed)
    j1 = TripJournal(workdir / "replay-scalar.jsonl", durable=True)
    start = time.perf_counter()
    for trip in stream:
        if v1.admit(trip):
            for rel in b1.push(trip):
                j1.append(rel)
                p1.offer(rel.end)
    for rel in b1.flush():
        j1.append(rel)
        p1.offer(rel.end)
    j1.close()
    scalar_s = time.perf_counter() - start

    v2, b2 = fresh_validator(), WatermarkBuffer(lateness_s=600.0, max_pending=10_000)
    p2 = build_planner(seed)
    j2 = TripJournal(workdir / "replay-blocked.jsonl", durable=True)
    start = time.perf_counter()
    for blk in blocks:
        mask = v2.admit_block(blk)
        accepted = blk if bool(mask.all()) else blk.take(np.flatnonzero(mask))
        released = b2.push_block(accepted)
        if len(released):
            j2.append_block(released)  # block-native group commit
            p2.replay(released)
    tail = b2.flush()
    if tail:
        tail_block = TripBlock.from_trips(tail)
        j2.append_block(tail_block)
        p2.replay(tail_block)
    j2.close()
    blocked_s = time.perf_counter() - start

    if (workdir / "replay-blocked.jsonl").read_bytes() != (
        workdir / "replay-scalar.jsonl"
    ).read_bytes():
        raise AssertionError("composed path journal bytes diverged")
    if p2.decisions != p1.decisions:
        raise AssertionError("composed path planner decisions diverged")
    if (p2.walking, p2.space, p2.online_opened) != (
        p1.walking, p1.space, p1.online_opened
    ):
        raise AssertionError("composed path planner state diverged")
    report = _rate_row(len(stream), scalar_s, blocked_s)
    report["benchmark"] = (
        "guarded replay hot path: validate+reorder+journal(durable)+plan"
    )
    report["decisions"] = len(p1.decisions)
    report["stations_opened"] = len(p1.online_opened)
    report["parity"] = "journal bytes, planner decisions and state identical"
    return report


def run_runtime_serve(n=4_000, block=BLOCK, seed=7, workdir=None):
    """End-to-end ``GuardedRuntime.serve``, durable journal, both block
    sizes.  Recorded for the curve; the apply stage is per-trip by
    design (checkpoint cadence + breaker accounting), so this is not
    the 10x gate."""

    def scrub(state):
        state["planner"]["ks_seconds"] = 0.0
        return state

    def build(name):
        planner = build_planner(seed)
        from repro.energy.fleet import Fleet
        from repro.core.streaming import PlacementService

        fleet = Fleet(
            planner.stations, n_bikes=120, rng=np.random.default_rng(seed + 2)
        )
        inner = CheckpointingService(
            PlacementService(planner, fleet), workdir / name,
            checkpoint_every=500, durable=True,
            facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        config = GuardConfig(
            validation=ValidationConfig(
                bounds=BoundingBox(-100.0, -100.0, PLANE + 100.0, PLANE + 100.0),
                max_backwards_s=3600.0,
            ),
            lateness_s=600.0,
        )
        return GuardedRuntime(inner, config)

    stream = make_trips(n, seed=seed)
    one = build("serve-block-of-one")
    start = time.perf_counter()
    one.serve(stream, block_size=1)
    one_s = time.perf_counter() - start

    blocked = build("serve-blocked")
    start = time.perf_counter()
    blocked.serve(stream, block_size=block)
    blocked_s = time.perf_counter() - start

    if blocked.inner.service.responses != one.inner.service.responses:
        raise AssertionError("serve responses diverged across block sizes")
    if scrub(blocked.inner.service.state_dict()) != scrub(
        one.inner.service.state_dict()
    ):
        raise AssertionError("serve state diverged across block sizes")
    if (blocked.inner.directory / "journal.jsonl").read_bytes() != (
        one.inner.directory / "journal.jsonl"
    ).read_bytes():
        raise AssertionError("serve journal bytes diverged across block sizes")
    one.close()
    blocked.close()
    report = _rate_row(len(stream), one_s, blocked_s)
    report["benchmark"] = "GuardedRuntime.serve end to end (durable journal)"
    # The row's "scalar" leg is the same serve path at block_size=1.
    report["scalar_leg"] = "block of one"
    report["parity"] = "responses, state and journal bytes identical"
    return report


# ----------------------------------------------------------------------
# Harness.
# ----------------------------------------------------------------------

def run_full_report(block=BLOCK):
    workdir = Path(tempfile.mkdtemp(prefix="esharing-bench-stream-"))
    try:
        validator = run_validator(block=block)
        validator_teleport = run_validator(block=block, max_bike_speed_mps=1.0)
        buffer = run_buffer_sorted(block=block)
        buffer_full = run_buffer_full(block=block)
        journal = run_journal(block=block, workdir=workdir)
        wal_checksum = run_checksum()
        replay = run_replay_gate(block=block, workdir=workdir)
        serve = run_runtime_serve(block=block, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = replay["speedup"]
    return {
        "block_size": block,
        "validator": validator,
        "validator_teleport": validator_teleport,
        "buffer": buffer,
        "buffer_full": buffer_full,
        "journal": journal,
        "wal_checksum": wal_checksum,
        "replay": replay,
        "serve": serve,
        "gates": {
            "parity": "ok (asserted inside every section)",
            "required_replay_speedup": GATE_SPEEDUP,
            "measured_replay_speedup": measured,
            "verdict": "pass" if measured >= GATE_SPEEDUP else "fail",
        },
    }


def run_smoke(block=BLOCK):
    """Seconds-scale CI subset: full parity, relaxed composed-path floor,
    and the committed BENCH_stream.json verdict re-checked."""
    workdir = Path(tempfile.mkdtemp(prefix="esharing-bench-stream-"))
    try:
        validator = run_validator(n=4_000, block=block)
        validator_teleport = run_validator(
            n=4_000, block=block, max_bike_speed_mps=1.0
        )
        buffer = run_buffer_sorted(n=4_000, block=block)
        buffer_full = run_buffer_full(n=4_000, max_pending=1_000, block=block)
        journal = run_journal(n=1_500, block=block, workdir=workdir)
        wal_checksum = run_checksum(n=4_000)
        replay = run_replay_gate(n=4_000, block=block, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = []
    if replay["speedup"] < SMOKE_FLOOR:
        failures.append(
            f"composed replay path only {replay['speedup']:.2f}x scalar "
            f"(smoke floor {SMOKE_FLOOR}x)"
        )
    if BENCH_JSON.exists():
        recorded = json.loads(BENCH_JSON.read_text())
        if recorded["gates"]["verdict"] != "pass":
            failures.append(
                f"committed {BENCH_JSON.name} records a failing gate: "
                f"{recorded['gates']['measured_replay_speedup']:.2f}x "
                f"(required {recorded['gates']['required_replay_speedup']}x)"
            )
    return {
        "validator": validator,
        "validator_teleport": validator_teleport,
        "buffer": buffer,
        "buffer_full": buffer_full,
        "journal": journal,
        "wal_checksum": wal_checksum,
        "replay": replay,
    }, failures


def write_report(report, path=BENCH_JSON):
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def _print_report(
    report,
    sections=(
        "validator", "validator_teleport", "buffer", "buffer_full",
        "journal", "wal_checksum", "replay", "serve",
    ),
):
    print(f"{'section':<18} {'scalar/s':>12} {'blocked/s':>12} {'speedup':>8}")
    for name in sections:
        if name not in report:
            continue
        row = report[name]
        print(
            f"{name:<18} {row['scalar_trips_per_sec']:>12,.0f} "
            f"{row['blocked_trips_per_sec']:>12,.0f} {row['speedup']:>7.2f}x"
        )


# ----------------------------------------------------------------------
# pytest entry point (pytest benchmarks/) — parity-gated, modest sizes.
def test_stream_parity_smoke():
    """Every columnar stage matches its scalar oracle bit for bit."""
    workdir = Path(tempfile.mkdtemp(prefix="esharing-bench-stream-"))
    try:
        run_validator(n=1_200, block=64)
        run_validator(n=1_200, block=64, max_bike_speed_mps=1.0)
        run_buffer_sorted(n=1_200, block=64)
        run_buffer_full(n=1_200, max_pending=300, block=64)
        run_journal(n=400, block=64, workdir=workdir)
        run_checksum(n=1_200)
        run_replay_gate(n=1_200, block=64, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale CI subset: parity everywhere, relaxed "
        f">= {SMOKE_FLOOR}x floor on the composed path, committed "
        "BENCH_stream.json verdict re-checked",
    )
    parser.add_argument(
        "--block-size", type=int, default=BLOCK, help="trips per block"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report, failures = run_smoke(block=args.block_size)
        _print_report(report)
        for line in failures:
            print(f"FAIL: {line}")
        if failures:
            return 1
        print("parity OK (all columnar stages bit-identical to scalar)")
        return 0
    report = run_full_report(block=args.block_size)
    path = write_report(report)
    _print_report(report)
    gates = report["gates"]
    print(
        f"gate: >= {gates['required_replay_speedup']}x composed replay "
        f"-> {gates['verdict']} "
        f"({gates['measured_replay_speedup']:.2f}x measured)"
    )
    print(f"wrote {path}")
    return 0 if gates["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
