"""One table-driven gauntlet for the serving contracts.

``python -m repro.gauntlet [row ...]`` runs the named rows of
:data:`ROWS` (every row when none is named) at seed 0. It prints one
``FAIL:`` line per violated check, and one with a traceback for a row
that raised. It exits 0 when every row passed, 1 when any check failed
and 2 for an unknown row name. Tests call the same row functions with
other seeds.

Every row serves the demo city of :mod:`repro.gauntlet.city`: a
2 km x 2 km plane, 4x4 offline anchors and a clean 30 s-spaced trip
stream. The row functions live in :mod:`repro.gauntlet.rows`.

Rows
----

====================  ==================================================
row                   what it runs
====================  ==================================================
``chaos``             2,000 trips through one :class:`GuardedRuntime`:
                      zero-fault bit-identity with the unguarded service,
                      then every stream and subsystem fault at once.
``chaos-block1``      the same at 1,000 trips in blocks of one trip.
``chaos-sharded``     1,500 trips on 2 shards: every shard identical to
                      its standalone oracle, and the hostile stream fully
                      accounted across the fleet over three epochs, each
                      shard's dead-letter log holding every epoch's rows.
``supervision``       600 trips on 3 supervised shards: fault-free
                      parity, the torn-write, ENOSPC and fsync schedules,
                      torn response-ledger appends, poison quarantine
                      and the scrub round-trip.
``overload``          all five loadgen scenarios for 5,400 s on 2 shards,
                      plus zero-overload byte-identity.
``overload-stadium``  stadium for 1,800 s on 2 shards, plus parity.
``recovery``          400 trips, crash at 150: bit-identical recovery,
                      torn-snapshot fallback and a simulator crash under
                      unreliable delivery.
``parallel``          2 workers: placement cells and CSV ingest
                      bit-identical to serial, and a dead worker raising.
====================  ==================================================

Assertion map
-------------

This harness replaced five gauntlet programs: the ``__main__.py`` of
``repro.guard``, ``repro.shard``, ``repro.loadgen``,
``repro.resilience`` and ``repro.parallel``, and
``repro.resilience.chaos._smoke``. They held 69 ``FAIL`` sites. Each
one is listed below as ``file:line`` of its old program, with the row
and the check that now carries it. Every comparison uses the same
oracle, the same bytes, the same state, the same sizes and the same
seeds as before. Where a shared check compares more than the old site
did, the entry says so.

The exit contract, "exit 1 with a FAIL line per violation", was stated
in three docstrings (``guard:27``, ``shard:30``, ``loadgen:27``). It
is now :class:`Checks` plus :func:`main`, for every row.

``guard/__main__.py``, rows ``chaos`` and ``chaos-block1``:

* ``:125`` clean stream triggered guards (dead letters or incidents).
* ``:130`` zero-fault guarded responses diverged from unguarded.
* ``:136`` zero-fault guarded state diverged from unguarded, compared
  with :func:`logical_state`.
* ``:155`` fault accounting drift of the injector: ``mutate``.
* ``:178`` the guarded runtime raised on the hostile stream:
  :func:`main` reports ``<row> raised`` for an exception anywhere in
  the row.
* ``:183`` the runtime halted.
* ``:187`` events offered != events the validator saw.
* ``:197`` dead-letter sink total != recorded rejections.
* ``:206`` KS or incentive fault injection never fired.
* ``:211`` garbage coordinates never reached the validator.
* ``:218`` dead-letter JSONL does not match the sink.

``guard/__main__.py``, row ``chaos-sharded``:

* ``:274`` clean stream triggered guards.
* ``:289`` a shard's outcomes diverged from its standalone oracle.
* ``:301`` a shard's journal bytes diverged from its standalone
  oracle: :func:`oracle_identity`, which now also compares the
  recovered state and looks for orphan tmp files.
* ``:321`` the sharded runtime raised on the hostile stream:
  :func:`main` reports ``chaos-sharded raised``, as for ``:178``.
* ``:325`` the fleet halted (the line lists every shard's health).
* ``:336`` hostile events offered != what the validators saw.
* ``:347`` per-shard accounting drift: :func:`accounting`.
* ``:352`` garbage fields never reached a shard validator.
* The injector's drift check (``mutate``) now runs here too.

``shard/__main__.py``, row ``supervision``:

* ``:126``, ``:134``, ``:138`` journal bytes, recovered state and
  orphan tmps against the durable fault-free oracle:
  :func:`oracle_identity`, for ``torn-writes``, ``enospc`` and
  ``fsync-failure`` (``worker-crash`` went with pool epochs).
* ``:157`` clean supervised epoch not healthy, restarted or
  quarantined.
* ``:164`` clean supervised epoch logged fleet incidents.
* ``:169`` post-epoch scrub of a clean fleet found damage.
* ``:175`` shard missing from the supervised epoch.
* ``:179`` supervised outcomes diverged from the plain fleet.
* ``:186``, ``:191`` clean supervised journal bytes and state against
  the plain fleet: :func:`oracle_identity` (now with the orphan check).
* ``:226`` a disk-fault schedule injected no faults.
* ``:229`` the fleet halted under a bounded fault budget.
* ``:232`` faults fired but no shard restarted.
* ``:242`` the targeted schedule disturbed every shard.
* ``:265`` poison marker never fired.
* ``:270`` victim shard not quarantined, or with no quarantined block.
* ``:279`` victim trip not in the quarantine ledger.
* ``:290`` journaled trips != bucket minus quarantined.
* ``:295`` ledger's journaled count != quarantined trips in the journal.
* ``:302`` quarantine ledger not persisted.
* ``:309`` unaffected shards restarted.
* ``:334``, ``:337`` the dead-pool scenario: deleted with pool epochs,
  since the fleet no longer fans shards out over a process pool.
* ``:374`` scrub missed an expected (kind, action) finding, for each
  of the three planted damages.
* ``:377`` corrupt snapshot not demoted to ``.corrupt``.
* ``:384`` epoch 2 halted after repair.
* ``:393``, ``:396`` epoch-2 journal bytes and recovered state against
  the undamaged reference: :func:`oracle_identity` (now with the
  orphan check).

``loadgen/__main__.py``, rows ``overload`` and ``overload-stadium``:

* ``:164`` the fleet raised under load.
* ``:187`` per-shard accounting drift: :func:`accounting`.
* ``:192`` a shard halted.
* ``:196`` a shard ended above rung 0: the ladder never recovered.
* ``:219`` overload control engaged on the baseline stream.
* ``:225`` a surge never engaged the overload machinery.
* ``:267`` the zero-overload run shed, deferred or dead-lettered.
* ``:274`` a shard's responses diverged under zero-overload control.
* ``:285``, ``:296`` journal bytes and checkpoint state under
  zero-overload control: :func:`oracle_identity` (now with the orphan
  check).

``parallel/__main__.py``, row ``parallel``:

* ``:45`` placement digests diverged between serial and pooled runs.
* ``:83`` sharded ingest diverged from serial.
* ``:100`` a dead worker did not raise :class:`WorkerCrashError`.

``resilience/chaos.py`` (``_smoke``), row ``recovery``:

* ``:462`` recovered response stream diverged from the reference.
* ``:468`` recovered state diverged from the reference.
* ``:479`` torn-snapshot fallback diverged from the reference.
* ``:491`` fault accounting drift of the injector: ``mutate``.
* ``:496`` the injector reported zero faults at non-zero rates.
* ``:508`` the recovered simulator lost trips.
"""

from .city import (
    BOUNDS,
    COST_VALUE,
    PLANE,
    Checks,
    fleet,
    fleet_image,
    guard_config,
    logical_state,
    oracle_identity,
    service,
    trips,
)
from .rows import ROWS, main

__all__ = [
    "BOUNDS",
    "COST_VALUE",
    "PLANE",
    "ROWS",
    "Checks",
    "fleet",
    "fleet_image",
    "guard_config",
    "logical_state",
    "main",
    "oracle_identity",
    "service",
    "trips",
]
