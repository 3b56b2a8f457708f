"""Tests of the end-to-end serve benchmark, at smoke sizes.

Run with ``pytest benchmarks/e2e``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as bench  # noqa: E402

bench.load_program()

import workloads  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from repro.core.costs import constant_facility_cost  # noqa: E402
from repro.core.esharing import EsharingConfig, EsharingPlanner  # noqa: E402
from repro.geo.points import Point  # noqa: E402
from repro.resilience.snapshot import encode_snapshot  # noqa: E402

SPEC = json.loads(bench.SPEC.read_text())
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """Per workload: two untraced runs and one traced run, same seed."""
    return {
        name: [bench.run(name, SEED, 0.0, trace, True) for trace in (False, False, True)]
        for name in workloads.NAMES
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_printed_with_unit(runs, name):
    for (line, report, _), kind in zip(runs[name][1:], ("end_to_end", "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
        text = "\n".join(report)
        for metric, unit in wanted.items():
            row = rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$"
            assert re.search(row, text, re.M), metric


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_digest(runs, name):
    first, second, _ = runs[name]
    assert first[2] == second[2]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_changes_no_output(runs, name):
    # The traced run also compares its snapshots with the untraced
    # pass's, ks_seconds aside, and fails if they differ.
    assert runs[name][2][2] == runs[name][0][2]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_spans_cover_serve_time(runs, name):
    assert runs[name][2][0]["metrics"]["trace.coverage"]["value"] >= 0.95


def test_cli_prints_result_last():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paced", "--seed",
         str(SEED), "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert [m["name"] for m in SPEC["end_to_end"]] == list(line["metrics"])


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            bench.ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_keeps_its_schema_and_pins_the_rest():
    # BENCHMARK.json may hold only these keys; seeds, digests and the
    # baseline are pinned in pinned.json instead.
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.NAMES)
    pinned = json.loads(bench.PINNED.read_text())
    seeds = {str(pinned["seeds"]["default"]), str(pinned["seeds"]["held_out"])}
    assert {w: set(d) for w, d in pinned["digests"].items()} == {w: seeds for w in names}
    metrics = [m["name"] for m in SPEC["end_to_end"]]
    assert {
        w: list(m) for w, m in pinned["baseline"]["workloads"].items()
    } == {w: metrics for w in names}


def test_od_streams_keep_their_arrivals_and_move_their_places():
    first, second = (workloads.od_trips("festival", 0.25, seed) for seed in (1, 2))
    assert [t.start_time for t in first] == [t.start_time for t in second]
    assert [t.user_id for t in first] == [t.user_id for t in second]
    # A trip moved into a corner of the plane lands there for both seeds.
    moved = sum(a.start != b.start and a.end != b.end for a, b in zip(first, second))
    assert moved > 0.95 * len(first)
    for trip in first + second:
        for point in (trip.start, trip.end):
            assert 0.0 <= point.x <= workloads.PLANE and 0.0 <= point.y <= workloads.PLANE


def test_serve_clock_scales_each_stretch_by_the_runs_around_it(monkeypatch):
    # A host twice as slow in the second half: every reference run there
    # takes twice as long, and so does the program.
    speed = iter([1.0] * 16 + [2.0] * 16)
    monkeypatch.setattr(workloads, "reference", lambda: next(speed) * REFERENCE_S)
    clock = workloads.ServeClock(workloads.PassResult(), None, references=True)
    clock.NEAREST = 1
    knots = iter(range(33))
    clock.now = lambda: float(next(knots))
    for _ in range(32):
        clock.reference()
    scaled = clock.scaler(32.0)
    assert scaled(15.0) == pytest.approx(15.0)
    assert scaled(32.0) - scaled(16.0) == pytest.approx(8.0, rel=0.07)


def test_horizon_guard_fails_fast():
    with pytest.raises(workloads.CheckFailed, match="horizon"):
        workloads.check_horizon("long", 1000 * 8 * 16, beta=8.0, k=16)
    workloads.check_horizon("short", 999 * 8 * 16, beta=8.0, k=16)


@pytest.mark.xfail(
    raises=ValueError, strict=True,
    reason="EsharingPlanner doubles cost_scale every beta*k arrivals; past "
    "~1024 doublings it is inf and the snapshot encoder refuses it",
)
def test_cost_scale_survives_a_checkpoint_after_1024_doublings():
    rng = np.random.default_rng(0)
    planner = EsharingPlanner(
        [Point(0.0, 0.0), Point(2000.0, 0.0)],
        constant_facility_cost(1000.0),
        rng.uniform(0.0, 2000.0, size=(300, 2)),
        np.random.default_rng(1),
        EsharingConfig(beta=2.0, history_window=100),
    )
    for x, y in rng.uniform(0.0, 2000.0, size=(4096, 2)):
        planner.offer(Point(float(x), float(y)))
    encode_snapshot(planner.state_dict(include_history=False))


def _record(seed, value, digest="d"):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"workload": "steady", "seed": seed, "trace": 0, "digest": digest,
            "result": {"metrics": metrics}}


def test_compare_verdicts(tmp_path, capsys):
    def write(side, values):
        paths = []
        for seed, value in enumerate(values):
            path = tmp_path / f"{side}-{seed}.json"
            path.write_text(json.dumps(_record(seed, value)))
            paths.append(str(path))
        return paths

    base = write("a", [100.0 + s % 3 for s in range(10)])
    assert compare.main(base + ["--"] + base) == 0
    assert "same" in capsys.readouterr().out
    worse = write("b", [50.0 + s % 3 for s in range(10)])
    assert compare.main(base + ["--"] + worse) == 1
    text = capsys.readouterr().out
    assert "worse" in text and "better" in text  # lower-is-better metrics improved
