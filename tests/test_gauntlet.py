"""The gauntlet: every row at its table size, canaries for the shared
checks, and the surge-engagement seeds that are known not to engage."""

import copy

import pytest

from repro import gauntlet
from repro.gauntlet import ROWS, Checks, main
from repro.gauntlet.city import accounting, fleet_image, oracle_identity
from repro.gauntlet.rows import overload

SURGE_MISS = (
    "surge never engaged the overload machinery at this seed (1,800 s, 2 "
    "shards); unverified whether the scenarios' short-duration scaling or "
    "the 1.6x / 180 s admission sizing is the cause (ROADMAP open item)"
)


def _fails(capsys):
    lines = capsys.readouterr().out.splitlines()
    return [line for line in lines if line.startswith("FAIL:")]


@pytest.mark.parametrize("row", list(ROWS))
def test_row_passes_at_table_size(row, capsys):
    assert main([row]) == 0
    assert _fails(capsys) == []


def test_unknown_row_exits_2_and_lists_rows(capsys):
    assert main(["nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    for row in ROWS:
        assert row in err


def test_rows_take_other_seeds(tmp_path, capsys):
    check = Checks()
    ROWS["overload"](check, tmp_path / "overload", seed=1)
    ROWS["recovery"](check, tmp_path / "recovery", seed=1)
    assert check.failures == 0
    assert _fails(capsys) == []


@pytest.mark.parametrize(
    "scenario,seed",
    [
        pytest.param(
            scenario, seed,
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=SURGE_MISS
            ),
        )
        for scenario, seed in [("festival", 0), ("stadium", 1), ("stadium", 3)]
    ],
)
def test_short_surge_engages_overload(scenario, seed, tmp_path, capsys):
    check = Checks()
    overload(check, tmp_path, seed, [scenario], 1800.0, n_shards=2)
    assert _fails(capsys) == []


# ----------------------------------------------------------------------
# Canaries: a shared check handed a known defect must print a FAIL line
# and make ``main`` return 1.
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    city = gauntlet.fleet(2, tmp_path_factory.mktemp("canary") / "fleet")
    outcome = city.serve(gauntlet.trips(120))
    return city, fleet_image(city), outcome


def _canary(monkeypatch, row):
    monkeypatch.setitem(ROWS, "canary", row)
    return main(["canary"])


def _identity_row(city, oracle):
    def row(check, workdir, seed):
        oracle_identity(check, "canary", city, oracle)

    return row


def test_untouched_oracle_passes(served, monkeypatch, capsys):
    city, oracle, _ = served
    assert sorted(oracle[0]) == sorted(oracle[1]) == [0, 1]
    assert _canary(monkeypatch, _identity_row(city, oracle)) == 0
    assert _fails(capsys) == []


def test_flipped_journal_byte_fails(served, monkeypatch, capsys):
    city, (journals, states), _ = served
    flipped = bytearray(journals[0])
    flipped[len(flipped) // 2] ^= 0x01
    oracle = ({**journals, 0: bytes(flipped)}, states)
    assert _canary(monkeypatch, _identity_row(city, oracle)) == 1
    assert _fails(capsys) == ["FAIL: canary: journal bytes diverged on shard(s) [0]"]


def test_changed_state_field_fails(served, monkeypatch, capsys):
    city, (journals, states), _ = served
    changed = copy.deepcopy(states)
    changed[1]["planner"]["cost_scale"] *= 2.0
    assert _canary(monkeypatch, _identity_row(city, (journals, changed))) == 1
    assert _fails(capsys) == ["FAIL: canary: recovered state diverged on shard(s) [1]"]


def test_missing_shard_fails(served, monkeypatch, capsys):
    city, (journals, states), _ = served
    oracle = ({0: journals[0]}, {0: states[0]})
    assert _canary(monkeypatch, _identity_row(city, oracle)) == 1
    assert _fails(capsys) == [
        "FAIL: canary: journal bytes diverged on shard(s) [1]",
        "FAIL: canary: recovered state diverged on shard(s) [1]",
    ]


def test_orphan_tmp_fails(served, monkeypatch, capsys):
    city, oracle, _ = served
    orphan = city.directory / "shard-000" / "snapshot-0000000001.json.tmp-canary"
    orphan.write_text("half a snapshot")
    try:
        assert _canary(monkeypatch, _identity_row(city, oracle)) == 1
    finally:
        orphan.unlink()
    fails = _fails(capsys)
    assert len(fails) == 1 and "orphan tmp file(s) left behind" in fails[0]


def test_accounting_off_by_one_fails(served, monkeypatch, capsys):
    report = served[2].reports[0]
    offered = report.offered
    parts = report.served + report.degraded + report.duplicates + report.deadlettered
    assert offered == parts

    def row(check, workdir, seed):
        accounting(check, "canary shard 0", offered, parts - 1)

    assert _canary(monkeypatch, row) == 1
    assert _fails(capsys) == [
        f"FAIL: canary shard 0 accounting drift: {offered} offered vs "
        f"{parts - 1} accounted"
    ]
