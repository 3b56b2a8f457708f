"""The micro-benchmark's speed gates and latency limits are pinned here,
not only in a benchmark run: loosening, dropping or adding one fails
tier-1."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_micro.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_micro", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_table_is_pinned():
    bench = _bench()
    assert {(g.leg, g.bound, g.min_cores) for g in bench.GATES} == {
        ("stream.replay", 10.0, 0),
        ("placement.offline", 5.0, 0),
        ("placement.replay", 3.0, 0),
        ("placement.ks_slide", 1.2, 0),
        ("throughput.nn_backend", 3.0, 0),
        ("parallel.placement", 1.6, 4),
        ("loadgen.apply", 5.0, 4),
    }
    assert len(bench.GATES) == 7
    assert bench.SMOKE_FLOORS == {"stream.replay": 2.0}
    assert bench.GATE_WORKERS == 4
    assert bench.OFFER_RATE_FLOOR == 1_000.0
    assert bench.KS_CHECK_LIMIT_S == 0.5
    assert all(g.leg in bench.LEGS for g in bench.GATES)


def test_gated_sizes_are_pinned():
    # Each bound is stated at a size; the full sizes carry it.
    legs = _bench().LEGS
    assert legs["stream.replay"][1] == {"n": 20_000}
    assert legs["placement.offline"][1]["sizes"][-1] == 2_000
    assert legs["placement.replay"][1]["sizes"][-1] == 100_000
    assert legs["placement.ks_slide"][1] == {
        "n_hist": 200, "window": 200, "period": 32, "checks": 400,
    }
    assert legs["throughput.nn_backend"][1]["counts"][-1] == 10_000
    assert 4 in legs["parallel.placement"][1]["workers"]


def test_verdict_rule():
    bench = _bench()
    gate = bench.Gate("x", 2.0, min_cores=4)
    assert bench.judge(gate, 3.0, cores=4)["verdict"] == "pass"
    assert bench.judge(gate, 1.0, cores=8)["verdict"] == "fail"
    assert bench.judge(gate, None, cores=8)["verdict"] == "fail"
    skipped = bench.judge(gate, 1.0, cores=2)
    assert not skipped["enforced"]
    assert skipped["verdict"].startswith("skipped: host exposes 2 usable core(s)")
    assert skipped["usable_cores"] == 2
