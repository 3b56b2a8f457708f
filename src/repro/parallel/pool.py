"""Deterministic process-pool fan-out/fan-in.

The execution contract every fast path in this repo honours is
*bit-identical outputs*: the lazy offline solver matches the reference
rescan, the cached replay matches the per-call loop, recovery matches
the uncrashed run.  :class:`ParallelRunner` extends that contract to
multicore execution: a sweep fanned across ``N`` worker processes
returns **exactly** the results of running the same tasks serially, for
every ``N``.

Three rules make that hold:

1. **Self-contained tasks.**  A :class:`TaskSpec` carries a module-level
   callable plus its arguments; a task never reads mutable state shared
   with its siblings.  Per-task randomness is derived *in the parent* in
   canonical task order via :func:`spawn_seeds`
   (``numpy.random.SeedSequence.spawn``), so the seed a task receives
   does not depend on which worker runs it or when.
2. **Canonical-order reduction.**  Results are collected in *task*
   order, never completion order.  Workers may finish in any
   interleaving; the reduce step cannot observe it.
3. **Serial short-circuit.**  ``workers <= 1`` runs the tasks in-process
   with no pool, no pickling and no forking — the baseline every
   parallel run is compared against.

Failures stay typed: an exception raised *inside* a task is re-raised
in the parent (the earliest failing task in canonical order wins, again
independent of scheduling); a worker that dies without returning — or a
task that exceeds ``task_timeout`` — surfaces as
:class:`~repro.errors.WorkerCrashError` instead of hanging the pool.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkerCrashError

__all__ = ["TaskSpec", "ParallelRunner", "spawn_seeds", "usable_cores"]


def usable_cores() -> int:
    """CPU cores this process may actually run on.

    Respects the scheduler affinity mask when the platform exposes one
    (cgroup-limited containers routinely show fewer usable cores than
    ``os.cpu_count()``), so worker defaults and benchmark gates reflect
    the hardware the job really has.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def spawn_seeds(root_seed: int, n: int) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent child seeds from one root seed.

    Thin wrapper over ``numpy.random.SeedSequence.spawn`` — the
    parent spawns all children up front, in canonical task order, so
    task ``i`` receives the same entropy no matter how many workers the
    sweep later runs on.  Feed each child to
    ``numpy.random.default_rng`` inside the task.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} seeds")
    return np.random.SeedSequence(root_seed).spawn(n)


@dataclass(frozen=True)
class TaskSpec:
    """One unit of a deterministic fan-out.

    Attributes:
        fn: a **module-level** callable (workers import it by qualified
            name; lambdas and closures cannot cross the process
            boundary).
        args: positional arguments, pickled to the worker.
        kwargs: keyword arguments, pickled to the worker.
        label: optional human-readable tag for logs and error messages.
    """

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def run(self) -> Any:
        """Execute the task in the current process."""
        return self.fn(*self.args, **self.kwargs)


def _run_task(task: TaskSpec) -> Any:
    """Module-level trampoline so TaskSpecs pickle through the pool."""
    return task.run()


class ParallelRunner:
    """Fan tasks across worker processes; merge results in task order.

    Args:
        workers: worker-process count.  ``<= 1`` executes in-process
            (the serial reference path); ``None`` uses
            :func:`usable_cores`.
        start_method: multiprocessing start method; defaults to
            ``"fork"`` where available (cheap on Linux; worker callables
            in script-local modules resolve without re-import) and the
            platform default elsewhere.
        task_timeout: optional per-task wall-clock limit in seconds;
            exceeding it raises :class:`~repro.errors.WorkerCrashError`
            rather than waiting forever on a wedged worker.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        start_method: Optional[str] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        if workers is None:
            workers = usable_cores()
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.workers = workers
        self.start_method = start_method
        self.task_timeout = task_timeout

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TaskSpec]) -> List[Any]:
        """Execute every task; return their results in task order.

        The returned list is position-aligned with ``tasks`` regardless
        of completion order or worker count — the deterministic-reduce
        half of the bit-identical contract.

        Raises:
            WorkerCrashError: a worker process died or a task timed out.
            Exception: the first (in task order) exception a task raised.
        """
        for t in tasks:
            if not isinstance(t, TaskSpec):
                raise TypeError(f"expected TaskSpec, got {type(t).__name__}")
        if self.workers <= 1:
            return [t.run() for t in tasks]
        ctx = mp.get_context(self.start_method)
        n_workers = min(self.workers, max(len(tasks), 1))
        out: List[Any] = []
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            futures = [pool.submit(_run_task, t) for t in tasks]
            for task, fut in zip(tasks, futures):
                try:
                    out.append(fut.result(timeout=self.task_timeout))
                except BrokenExecutor as exc:
                    for f in futures:
                        f.cancel()
                    raise WorkerCrashError(
                        f"worker died running task {task.label or task.fn.__name__!r}"
                        f" ({type(exc).__name__}: {exc})"
                    ) from exc
                except FutureTimeoutError as exc:
                    for f in futures:
                        f.cancel()
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise WorkerCrashError(
                        f"task {task.label or task.fn.__name__!r} exceeded "
                        f"{self.task_timeout}s; treating the worker as hung"
                    ) from exc
        return out

    def map(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[Tuple],
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Run ``fn(*args)`` for each tuple; results in input order.

        Convenience wrapper building one :class:`TaskSpec` per tuple.
        """
        if labels is not None and len(labels) != len(arg_tuples):
            raise ValueError(
                f"{len(labels)} labels for {len(arg_tuples)} tasks"
            )
        tasks = [
            TaskSpec(fn=fn, args=tuple(args), label=labels[i] if labels else "")
            for i, args in enumerate(arg_tuples)
        ]
        return self.run(tasks)
