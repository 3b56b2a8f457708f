"""Regenerate the committed ``scrub-fleet`` fixture.

Builds a small two-shard fleet layout out of real checkpoint
directories, then plants one instance of each damage class the scrubber
repairs:

* ``shard-000``: the newest snapshot gets a single flipped bit
  (``snapshot_corrupt`` -> demoted; recovery falls back to the previous
  good snapshot, the response ledger up to it and the journal tail),
* ``shard-001``: a torn trailing journal line
  (``journal_torn_tail`` -> repaired),
* ``shard-001``: an orphan tmp file from an interrupted atomic write
  (``orphan_tmp`` -> removed).

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/make_scrub_fixture.py

Everything is seeded, so the regenerated tree is bit-identical except
for the one wall-clock field inside the snapshots; CI never compares
fixture bytes, only scrub behaviour (``--check`` exits 4, repair then
``--check`` exits 0).
"""

import shutil
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
    PlacementService,
    constant_facility_cost,
)
from repro.datasets import TripRecord
from repro.energy import Fleet
from repro.geo import Point
from repro.resilience import CheckpointingService, FaultFS, constant_cost_spec

COST_VALUE = 8000.0
ROOT = Path(__file__).parent / "scrub-fleet"


def _make_trips(n, seed):
    rng = np.random.default_rng(seed)
    t0 = datetime(2017, 5, 10)
    return [
        TripRecord(
            order_id=i, user_id=i % 40, bike_id=i % 60, bike_type=1,
            start_time=t0 + timedelta(seconds=30 * i),
            start=Point(*rng.uniform(0.0, 2000.0, 2)),
            end=Point(*rng.uniform(0.0, 2000.0, 2)),
        )
        for i in range(n)
    ]


def _build_service(seed):
    rng = np.random.default_rng(seed + 100)
    anchors = [
        Point(float(x), float(y)) for x in (0, 1000, 2000) for y in (0, 1000, 2000)
    ]
    historical = rng.uniform(0.0, 2000.0, size=(300, 2))
    planner = EsharingPlanner(
        anchors,
        constant_facility_cost(COST_VALUE),
        historical,
        np.random.default_rng(seed + 1),
        EsharingConfig(),
    )
    fleet = Fleet(planner.stations, n_bikes=80, rng=np.random.default_rng(seed + 2))
    return PlacementService(planner, fleet)


def _checkpoint_shard(directory, seed):
    service = CheckpointingService(
        _build_service(seed), directory,
        checkpoint_every=15, durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )
    for trip in _make_trips(40, seed=seed):
        service.handle_trip(trip)
    service.checkpoint()
    service.close()


def main() -> int:
    if ROOT.exists():
        shutil.rmtree(ROOT)
    ROOT.mkdir(parents=True)
    (ROOT / "shardplan.json").write_text(
        '{"fixture": "scrub-fleet", "shards": 2}\n'
    )
    for sid in range(2):
        _checkpoint_shard(ROOT / f"shard-{sid:03d}", seed=sid)

    # Damage 1: bit-rot the newest shard-000 snapshot.
    snapshots = sorted((ROOT / "shard-000").glob("snapshot-*.json"))
    assert len(snapshots) >= 2, "need an older snapshot to fall back to"
    FaultFS.bitrot(snapshots[-1], seed=3)

    # Damage 2: torn trailing journal line on shard-001.
    with open(ROOT / "shard-001" / "journal.jsonl", "ab") as f:
        f.write(b"deadbeefdeadbeef {torn mid-append")

    # Damage 3: orphan tmp file from an interrupted atomic write.
    (ROOT / "shard-001" / "snapshot-0000000099.json.tmp-orphan").write_text(
        "half written"
    )

    print(f"wrote {ROOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
