"""Deterministic multicore execution layer.

The paper's evaluation is an embarrassingly parallel grid of
(seed × scenario × penalty type × algorithm) cells, and a production
ingest chews through millions of CSV rows — yet correctness work in this
repo is defined by *bit-identical outputs*.  This package makes the two
compatible: process-pool fan-out whose fan-in is guaranteed to equal the
serial run, for any worker count.

* :class:`ParallelRunner` / :class:`TaskSpec` — pool lifecycle plus the
  canonical-order reducer; per-task RNG derives from
  ``SeedSequence.spawn`` in task order (:func:`spawn_seeds`).
* :mod:`repro.parallel.cells` — self-contained sweep cells (offline
  solves, online replays, full pipeline runs, registered experiments).
* :func:`chunk_byte_ranges` — line-aligned byte-range sharding backing
  ``load_mobike_csv(workers=N)``.
* :class:`SharedNDArray` — pickle-free read-only NumPy arrays via
  ``multiprocessing.shared_memory`` for inputs every cell shares.

``python -m repro.gauntlet parallel`` runs the serial-vs-parallel
parity smoke at 2 workers; the ``parallel.*`` legs of
``benchmarks/bench_micro.py`` record the scaling curves to
``BENCH_micro.json``.  See DESIGN.md §9.
"""

from ..errors import WorkerCrashError
from .ingest import chunk_byte_ranges
from .pool import ParallelRunner, TaskSpec, spawn_seeds, usable_cores
from .shared import SharedArrayHandle, SharedNDArray, attach_readonly

__all__ = [
    "ParallelRunner",
    "TaskSpec",
    "spawn_seeds",
    "usable_cores",
    "chunk_byte_ranges",
    "SharedArrayHandle",
    "SharedNDArray",
    "attach_readonly",
    "WorkerCrashError",
]
