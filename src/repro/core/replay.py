"""Shared machinery for the cached loops of the online planners.

Every online planner (Algorithm 2, Meyerson, online k-means) spends its
per-arrival budget on the same two things: a nearest-station query and a
handful of scalar cost/probability operations.  The whole-stream entry
points (``EsharingPlanner.replay``, ``meyerson_placement``,
``online_kmeans_placement``) answer the query from a
:class:`NearestCache` — the nearest active station of every *future*
arrival, computed once with blocked NumPy broadcasting and patched
incrementally when a station opens (only strictly-closer entries
change, and a new station can never steal a tie because its id is the
highest).  The baselines' per-arrival ``StationSet.nearest`` loops are
kept only as the parity oracle in ``tests/core/placement_oracle.py``.

Bit-identity contract (see DESIGN.md "Performance"):

* The cache is only used to *select* the winning station.  The decision
  distance is then recomputed per arrival with the same scalar
  ``Point.distance_to`` (``math.hypot``) the per-call path uses, because
  vectorized distance math (``np.hypot``, or the squared distances the
  cache ranks by) is not bitwise interchangeable with ``math.hypot``.  A
  selection flip would need two true distances within ~1 ulp of each
  other that are *not* bitwise-equal under both formulas; exact ties
  (duplicate points) produce identical bits under both and resolve to the
  lowest id either way.
* RNG draws happen one per arrival in arrival order.  They are fetched
  in blocks via ``rng.uniform(size=m)``, which NumPy guarantees consumes
  the stream exactly like ``m`` scalar ``rng.uniform()`` calls.  A caller
  that may stop short of its block (``replay`` on a raise; the serve path
  refuses a trip when no station holds a bike, and draws nothing for it)
  settles the stream: the generator is rewound to where the draws
  actually used leave it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..geo.points import Point
from .offline import DEFAULT_BLOCK_ELEMS

__all__ = ["NearestCache", "DrawStream"]


class NearestCache:
    """Nearest active station per future arrival, patched on openings.

    The cache ranks stations by *squared* distance — monotone in the
    true distance, cheaper by a 15M-element sqrt on big blocks, and
    exact ties (duplicate coordinates) are still bitwise-equal, so the
    lowest-id tie-break is preserved.

    Args:
        arrivals: the remaining request destinations, in arrival order —
            either a sequence of :class:`Point` or an ``(xs, ys)`` tuple
            of 1-D coordinate arrays (the columnar fast path: no
            per-point Python objects are materialised).
        station_ids: stable ids of the currently active stations,
            ascending (the tie-break order).
        station_points: locations matching ``station_ids``.
        block_elems: cap on the ``arrivals x stations`` broadcast block.

    Attributes:
        best_id: per-arrival id of the nearest station (-1 when no
            station is active yet).
        best_d2: per-arrival squared distance to it (``inf`` when none).
    """

    def __init__(
        self,
        arrivals,
        station_ids: Sequence[int],
        station_points: Sequence[Point],
        block_elems: int = DEFAULT_BLOCK_ELEMS,
    ) -> None:
        if isinstance(arrivals, tuple):
            xs, ys = arrivals
            self._x = np.asarray(xs, dtype=float)
            self._y = np.asarray(ys, dtype=float)
            n = int(self._x.size)
        else:
            n = len(arrivals)
            self._x = np.asarray([p.x for p in arrivals], dtype=float)
            self._y = np.asarray([p.y for p in arrivals], dtype=float)
        self.best_id = np.full(n, -1, dtype=np.int64)
        self.best_d2 = np.full(n, np.inf, dtype=float)
        k = len(station_points)
        if n == 0 or k == 0:
            return
        ids = np.asarray(station_ids, dtype=np.int64)
        sx = np.asarray([p.x for p in station_points], dtype=float)
        sy = np.asarray([p.y for p in station_points], dtype=float)
        chunk = max(1, min(k, block_elems // max(n, 1)))
        rows = np.arange(n)
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            d2 = self._x[:, None] - sx[None, lo:hi]
            d2 *= d2
            dy = self._y[:, None] - sy[None, lo:hi]
            dy *= dy
            d2 += dy
            col = d2.argmin(axis=1)  # first occurrence -> lowest id in chunk
            dmin = d2[rows, col]
            # Strict < keeps earlier (lower-id) chunks on ties.
            better = dmin < self.best_d2
            self.best_d2[better] = dmin[better]
            self.best_id[better] = ids[lo:hi][col[better]]

    def open(self, t: int, point: Point, station_id: int) -> None:
        """A station opened at arrival ``t``; update later arrivals.

        Only strictly-closer entries switch: the new id is the highest
        ever assigned, so distance ties must keep the incumbent.
        """
        tail_d2 = self.best_d2[t + 1 :]
        if tail_d2.size == 0:
            return
        d2 = self._x[t + 1 :] - point.x
        d2 *= d2
        dy = self._y[t + 1 :] - point.y
        dy *= dy
        d2 += dy
        closer = d2 < tail_d2
        tail_d2[closer] = d2[closer]
        self.best_id[t + 1 :][closer] = station_id


class DrawStream:
    """Block-buffered draws of one distribution, one per use in order.

    ``rng.<kind>(size=m)`` consumes the bit stream exactly like ``m``
    scalar calls (for ``"uniform"`` and ``"standard_normal"`` alike), so
    fetching in blocks keeps the caller on the same RNG trajectory as the
    per-call API while skipping per-call overhead.  Blocks are fetched
    on first use: a stream that is never read draws nothing.

    Args:
        rng: the generator to draw from.
        total: most draws the caller may take.
        kind: the generator method, called with ``size=``.
        block: most draws fetched at once.  A block of 1 draws each
            value when it is read, as a scalar call would.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        total: int,
        kind: str = "uniform",
        block: int = 8192,
    ) -> None:
        self._rng = rng
        self._draw = getattr(rng, kind)
        self._block = max(1, block)
        self._left = total
        self._buf: List[float] = []
        self._pos = 0
        self._state = None

    def next(self) -> float:
        """The next draw, refilling the block buffer as needed.

        Raises:
            RuntimeError: when more than ``total`` draws are requested.
        """
        if self._pos >= len(self._buf):
            if self._left <= 0:
                raise RuntimeError("draw stream exhausted")
            take = min(self._block, self._left)
            # Only a block of two or more can be left partly used.
            self._state = self._rng.bit_generator.state if take > 1 else None
            self._buf = self._draw(size=take).tolist()
            self._left -= take
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def settle(self) -> None:
        """End the stream, leaving the generator exactly where one
        scalar draw per :meth:`next` call would have: an unused tail of
        the last block is undrawn by restoring the state saved before
        it and redrawing only the used head."""
        used = self._pos
        if used < len(self._buf):
            self._rng.bit_generator.state = self._state
            if used:
                self._draw(size=used)
        self._buf = []
        self._pos = 0
        self._left = 0

