"""Outside-in layer tracing for the end-to-end serve benchmark.

:class:`Tracer` wraps public functions of each layer at class level,
from benchmark code, so the program under test is unchanged.  Inside a
:meth:`Tracer.window` every wrapped call records a span (key, start,
end, self time, parent) in memory; a layer's self time is its span's
duration minus the time its child spans cover.  ``Fleet.pick_bike`` and
``Fleet.bikes_at`` run about a dozen times per trip, so they are only
counted: spanning them triples the tracing overhead on ``steady``.

Hooks read counters the layers already keep (``rejected``,
``too_late``, ``ks_seconds`` ...) as the difference across each call,
so a counter is attributed to the layer call that moved it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, module, class or None for a module function, functions)``.
SPANNED = (
    ("guard.runtime", "repro.guard.runtime", "GuardedRuntime",
     ("ingest_block", "ingest", "finish")),
    ("guard.validation", "repro.guard.validation", "TripValidator",
     ("admit_block", "admit")),
    ("guard.overload", "repro.guard.overload", "OverloadController",
     ("offer", "drain")),
    ("guard.reorder", "repro.guard.reorder", "WatermarkBuffer",
     ("push_block", "push", "flush")),
    ("guard.logs", "repro.guard.runtime", "GuardedRuntime", ("flush_logs",)),
    ("core.tripblock", "repro.core.tripblock", "TripBlock",
     ("from_trips", "to_trips")),
    ("resilience.service", "repro.resilience.service", "CheckpointingService",
     ("handle_block", "handle_trip")),
    ("resilience.journal", "repro.resilience.journal", "TripJournal",
     ("append_block", "append")),
    ("resilience.checkpoint", "repro.resilience.service", "CheckpointingService",
     ("checkpoint",)),
    ("core.streaming.state_dict", "repro.core.streaming", "PlacementService",
     ("state_dict",)),
    ("resilience.snapshot", "repro.resilience.snapshot", "SnapshotStore",
     ("save", "load_latest")),
    ("resilience.recover", "repro.resilience.service", "CheckpointingService",
     ("recover",)),
    ("resilience.recover", "repro.resilience.journal", "TripJournal", ("replay",)),
    ("core.streaming", "repro.core.streaming", "PlacementService",
     ("handle_trip", "degraded_assign")),
    ("core.station_set", "repro.core.station_set", "StationSet", ("nearest_where",)),
    ("energy.fleet", "repro.energy.fleet", "Fleet", ("ride",)),
    ("core.esharing", "repro.core.esharing", "EsharingPlanner", ("offer",)),
    ("shard.router", "repro.shard.router", "ShardRouter", ("split_trips",)),
    ("shard.runtime", "repro.shard.runtime", "ShardedRuntime", ("serve",)),
    # The epoch task is the body each pool worker runs (serve, referrals,
    # checkpoint); wrapped so that in-process it is not pool time.
    ("shard.runtime", "repro.shard.runtime", None,
     ("build_shard_runtime", "_run_epoch_task")),
    ("parallel.pool", "repro.parallel.pool", "ParallelRunner", ("run",)),
)

#: Counted, not spanned: ``(layer, module, class, functions)``.
COUNTED = (("energy.fleet", "repro.energy.fleet", "Fleet", ("pick_bike", "bikes_at")),)

#: Counters read around a wrapped call.  ``delta``: attribute difference
#: across the call; ``max``: largest value after a call; ``sum``: summed
#: over calls' results.  ``(kind, counter, class, functions, reader)``.
HOOKS = (
    ("delta", "guard.validation.rejected", "TripValidator", ("admit_block", "admit"),
     lambda obj: obj.rejected),
    ("delta", "guard.reorder.too_late", "WatermarkBuffer", ("push_block", "push", "flush"),
     lambda obj: obj.too_late),
    ("max", "guard.reorder.max_pending", "WatermarkBuffer", ("push_block", "push"),
     lambda obj, result: len(obj)),
    ("delta", "guard.overload.shed", "OverloadController", ("offer", "drain"),
     lambda obj: obj.shed),
    ("delta", "guard.overload.deferred", "OverloadController", ("offer", "drain"),
     lambda obj: obj.deferred),
    ("max", "guard.overload.max_depth", "OverloadController", ("offer",),
     lambda obj, result: obj.depth),
    ("delta", "resilience.service.duplicates", "GuardedRuntime",
     ("ingest_block", "ingest", "finish"), lambda obj: obj.duplicates),
    ("sum", "resilience.snapshot.bytes_written", "SnapshotStore", ("save",),
     lambda result: result.stat().st_size),
    ("sum", "resilience.recover.replayed", "TripJournal", ("replay",), len),
    ("delta", "core.esharing.ks_s", "EsharingPlanner", ("offer",),
     lambda obj: obj.ks_seconds),
)

SERVE, RECOVER = "serve", "recover"


class Tracer:
    """In-memory span recorder; a context manager that installs and
    removes the class-level wrappers."""

    def __init__(self) -> None:
        self.keys: List[Tuple[str, str]] = []  # (layer, function)
        #: ``(span id, parent id or -1, key index, start, end, self)``.
        self.spans: List[Tuple[int, int, int, float, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.marks: List[Tuple[float, int]] = []
        self.windows: List[Tuple[str, float, float]] = []
        self.idle_s = 0.0
        self._stack: List[list] = []
        self._open_deltas: set = set()
        self._next_id = 0
        self._active = False
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        hooks = defaultdict(list)
        for kind, counter, owner, functions, reader in HOOKS:
            for function in functions:
                hooks[(owner, function)].append((kind, counter, reader))
        for layer, module_name, owner, functions in SPANNED:
            target = _target(module_name, owner)
            for function in functions:
                self.keys.append((layer, function))
                self._patch(
                    target, function,
                    lambda fn, key=len(self.keys) - 1, hk=hooks[(owner, function)]:
                    self._spanned(key, fn, hk),
                )
        for layer, module_name, owner, functions in COUNTED:
            target = _target(module_name, owner)
            for function in functions:
                self._patch(
                    target, function,
                    lambda fn, name=f"{layer}.{function}": self._counted(name, fn),
                )
        return self

    def __exit__(self, *exc) -> None:
        for target, function, original in reversed(self._restore):
            setattr(target, function, original)
        self._restore.clear()

    def _patch(self, target, function: str, make: Callable) -> None:
        original = vars(target)[function]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._restore.append((target, function, original))
        setattr(target, function, wrapped)

    def _spanned(self, key: int, fn: Callable, hooks) -> Callable:
        clock = time.perf_counter
        stack, spans, counters = self._stack, self.spans, self.counters
        deltas = [(counter, read) for kind, counter, read in hooks if kind == "delta"]
        after = [(kind, counter, read) for kind, counter, read in hooks if kind != "delta"]
        tracer = self
        open_deltas = self._open_deltas

        # functools.wraps keeps the qualified name, so a wrapped task
        # still pickles by reference into a forked pool worker.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            obj = args[0] if args else None
            # A scalar fallback inside a blocked call (push_block -> push)
            # moves the same counter: only the outermost call reads it.
            mine = [
                (counter, read, read(obj)) for counter, read in deltas
                if (id(obj), counter) not in open_deltas
            ]
            for counter, _, _ in mine:
                open_deltas.add((id(obj), counter))
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((
                    frame[0], -1 if parent is None else parent[0], key,
                    start, end, duration - frame[1],
                ))
                for counter, _, _ in mine:
                    open_deltas.discard((id(obj), counter))
            for counter, read, value in mine:
                counters[counter] += read(obj) - value
            for kind, counter, read in after:
                if kind == "max":
                    counters[counter] = max(counters[counter], read(obj, result))
                else:
                    counters[counter] += read(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    @contextmanager
    def window(self, kind: str = SERVE):
        """Record spans only inside windows; ``serve`` windows are the
        ones coverage and the per-quarter split are measured over."""
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.windows.append((kind, start, time.perf_counter()))
            self._active = False

    @contextmanager
    def idle(self):
        """Time the client spends waiting inside a serve window (an open
        loop ahead of schedule): not work, so not wall to cover."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.idle_s += time.perf_counter() - start

    def busy_s(self) -> float:
        """Serve-window wall time the client was not idle."""
        wall = sum(e - s for kind, s, e in self.windows if kind == SERVE)
        return wall - self.idle_s

    def mark(self, trips_sent: int) -> None:
        """Note that ``trips_sent`` trips had been offered by now."""
        self.marks.append((time.perf_counter(), trips_sent))

    # ------------------------------------------------------------------
    def _serve_spans(self):
        windows = [(s, e) for kind, s, e in self.windows if kind == SERVE]
        for span in self.spans:
            if any(s <= span[3] and span[4] <= e for s, e in windows):
                yield span

    def coverage(self) -> float:
        """Share of busy serve-window time inside a top-level span."""
        covered = sum(sp[4] - sp[3] for sp in self._serve_spans() if sp[1] == -1)
        busy = self.busy_s()
        return covered / busy if busy else 0.0

    def layer_totals(self, serve_only: bool = False) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s``, ``max_s``, and per function
        ``<function>_calls`` and ``<function>_s`` (self time)."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self._serve_spans() if serve_only else self.spans:
            layer, function = self.keys[span[2]]
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += span[5]
            row[f"{function}_calls"] += 1
            row[f"{function}_s"] += span[5]
            row["max_s"] = max(row["max_s"], span[4] - span[3])
        return out

    def us_per_trip_by_quarter(self) -> Dict[str, List[Optional[float]]]:
        """Per layer, serve-phase self time per trip over each quarter
        of the offered stream (``None`` where a quarter saw no trip)."""
        if not self.marks:
            return {}
        total = self.marks[-1][1]
        edges = []
        for q in range(4):
            target = q * total / 4
            edges.append(next(m for m in self.marks if m[1] >= target))
        edges.append((float("inf"), total))
        sums: Dict[str, List[float]] = defaultdict(lambda: [0.0] * 4)
        for span in self._serve_spans():
            for q in range(4):
                if edges[q][0] <= span[3] < edges[q + 1][0]:
                    sums[self.keys[span[2]][0]][q] += span[5]
                    break
        trips = [edges[q + 1][1] - edges[q][1] for q in range(4)]
        return {
            layer: [v / n * 1e6 if n else None for v, n in zip(row, trips)]
            for layer, row in sums.items()
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, parent, layer, function, start, end, self."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, key, start, end, own in self.spans:
                layer, function = self.keys[key]
                f.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "function": function, "start": start, "end": end, "self": own,
                }) + "\n")


def _target(module_name: str, owner: Optional[str]):
    module = importlib.import_module(module_name)
    return module if owner is None else getattr(module, owner)
