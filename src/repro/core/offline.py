"""Offline 1.61-factor parking placement (Algorithm 1).

The PLP is the uncapacitated facility location problem; the paper adopts
the greedy of Jain, Mahdian, Markakis, Saberi and Vazirani [23], whose
dual-fitting analysis gives a 1.61 approximation factor — close to the
1.46 inapproximability bound [24].

Each iteration selects the most cost-effective "star": a candidate
location ``i`` together with a set ``B_i`` of still-unconnected grids,
where already-connected grids may defect to ``i`` when that lowers their
cost, and those savings subsidise the opening (Eq. 5):

    i* = argmin_i [ sum_{j in B_i} c_ij + f_i - sum_{j in B'_i} (c_i'j - c_ij) ] / |B_i|

Opening an already-open facility costs nothing (``f_i`` counts once), so
late arrivals can join existing stations at pure connection cost.

Two solve strategies produce bit-identical placements:

* ``"reference"`` — the historical implementation: every round rescans
  every candidate's best star.  O(rounds * n_c * n_d log n_d), kept as
  the parity oracle.
* ``"lazy"`` (default) — lazy greedy with a priority queue of cached
  star ratios.  Between openings a candidate's best ratio can only get
  worse (the unconnected pool shrinks faster than the defection savings
  grow for any star the greedy would actually pick), so cached ratios
  act as lower bounds: each round pops heap entries, revalidates them
  against the current state, and stops as soon as every remaining cached
  bound exceeds the best revalidated ratio.  Near-ties inside the
  reference's ``1e-12`` acceptance window trigger a full-rescan fallback
  for that round, so tie-breaking (and therefore output) is exactly the
  reference's.  Verified by randomized parity tests
  (``tests/core/test_offline_parity.py``) and the ``placement.offline``
  leg of ``benchmarks/bench_micro.py`` (-> ``BENCH_micro.json``).

Connection costs are served through a memory-blocked accessor: below
``block_elems`` the dense ``(n_c, n_d)`` matrix is built once (the
historical behaviour); above it rows are computed on demand into a
bounded cache, so memory stays O(block_elems) at any instance size.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.points import Point
from .costs import DemandPoint, FacilityCostFn
from .result import PlacementResult

__all__ = ["offline_placement", "OFFLINE_STRATEGIES", "DEFAULT_BLOCK_ELEMS"]

_UNCONNECTED = -1
_TOL = 1e-12

OFFLINE_STRATEGIES = ("lazy", "reference")
"""Recognised solver strategies (bit-identical outputs)."""

DEFAULT_BLOCK_ELEMS = 4_000_000
"""Connection-cost entries kept in memory at once (~32 MB of float64)."""


class _ConnCost:
    """Connection-cost rows ``c_ij = a_j * d(i, j)``, lazily materialized.

    Row values are bit-identical between the dense and the blocked path:
    the same elementwise subtract/square/sum/sqrt/scale pipeline runs
    either way, only the batching differs.
    """

    def __init__(
        self,
        c_xy: np.ndarray,
        d_xy: np.ndarray,
        weights: np.ndarray,
        block_elems: int,
    ) -> None:
        self._c_xy = c_xy
        self._d_xy = d_xy
        self._weights = weights
        n_c, n_d = c_xy.shape[0], d_xy.shape[0]
        self.row_cap = max(1, block_elems // max(n_d, 1))
        self._full: Optional[np.ndarray] = None
        self._cache: Dict[int, np.ndarray] = {}
        if n_c * n_d <= block_elems:
            diff = c_xy[:, None, :] - d_xy[None, :, :]
            self._full = np.sqrt((diff**2).sum(axis=-1)) * weights[None, :]

    def row(self, i: int) -> np.ndarray:
        """The ``(n_d,)`` connection-cost row of candidate ``i``."""
        if self._full is not None:
            return self._full[i]
        row = self._cache.get(i)
        if row is None:
            diff = self._c_xy[i][None, :] - self._d_xy
            row = np.sqrt((diff**2).sum(axis=-1)) * self._weights
            if len(self._cache) >= self.row_cap:
                self._cache.pop(next(iter(self._cache)))
            self._cache[i] = row
        return row

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo..hi`` as a ``(hi - lo, n_d)`` block."""
        if self._full is not None:
            return self._full[lo:hi]
        diff = self._c_xy[lo:hi, None, :] - self._d_xy[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1)) * self._weights[None, :]


class _Instance:
    """Mutable greedy state shared by both strategies."""

    def __init__(
        self,
        demands: Sequence[DemandPoint],
        cand_points: Sequence[Point],
        facility_cost: FacilityCostFn,
        block_elems: int,
    ) -> None:
        self.n_c = len(cand_points)
        self.n_d = len(demands)
        self.weights = np.asarray([d.weight for d in demands], dtype=float)
        self.d_xy = np.asarray([(d.location.x, d.location.y) for d in demands], dtype=float)
        self.c_xy = np.asarray([(p.x, p.y) for p in cand_points], dtype=float)
        self.conn = _ConnCost(self.c_xy, self.d_xy, self.weights, block_elems)
        self.open_cost = np.asarray([facility_cost(p) for p in cand_points], dtype=float)
        self.assigned = np.full(self.n_d, _UNCONNECTED, dtype=int)
        self.current_cost = np.full(self.n_d, np.inf)
        self.is_open = np.zeros(self.n_c, dtype=bool)

    # ------------------------------------------------------------------
    def star(self, i: int, connected: np.ndarray, unconnected: np.ndarray) -> Tuple[float, np.ndarray]:
        """Best star of candidate ``i``: ``(ratio, demands to connect)``.

        Bit-for-bit the computation of the historical per-round scan.
        """
        f_eff = 0.0 if self.is_open[i] else float(self.open_cost[i])
        row = self.conn.row(i)
        savings = 0.0
        if connected.size:
            gain = self.current_cost[connected] - row[connected]
            savings = float(gain[gain > 0].sum())
        costs_u = row[unconnected]
        order = np.argsort(costs_u, kind="stable")
        prefix = np.cumsum(costs_u[order])
        ks = np.arange(1, unconnected.size + 1, dtype=float)
        ratios = (f_eff - savings + prefix) / ks
        k_best = int(np.argmin(ratios))
        return float(ratios[k_best]), unconnected[order[: k_best + 1]]

    def open_star(self, best_i: int, best_connect: np.ndarray, connected: np.ndarray) -> None:
        """Open ``best_i``, connect its star, apply defections."""
        row = self.conn.row(best_i)
        self.is_open[best_i] = True
        self.assigned[best_connect] = best_i
        self.current_cost[best_connect] = row[best_connect]
        if connected.size:
            gain = self.current_cost[connected] - row[connected]
            movers = connected[gain > 0]
            self.assigned[movers] = best_i
            self.current_cost[movers] = row[movers]

    def result(self, demands: List[DemandPoint], cand_points: List[Point]) -> PlacementResult:
        open_idx = sorted(set(self.assigned.tolist()))
        stations = [cand_points[i] for i in open_idx]
        remap = {ci: si for si, ci in enumerate(open_idx)}
        assignment = [remap[int(a)] for a in self.assigned]
        walking = float(self.current_cost.sum())
        space = float(sum(self.open_cost[i] for i in open_idx))
        return PlacementResult(
            stations=stations,
            assignment=assignment,
            walking=walking,
            space=space,
            demands=demands,
        )


def _no_star_error() -> RuntimeError:
    return RuntimeError(
        "no candidate offers a finite-ratio star for the remaining demand "
        "(every opening cost is infinite or NaN); the instance is infeasible"
    )


# ----------------------------------------------------------------------
# reference strategy: full candidate rescan per round (the parity oracle)
def _solve_reference(inst: _Instance) -> None:
    while np.any(inst.assigned == _UNCONNECTED):
        unconnected = np.flatnonzero(inst.assigned == _UNCONNECTED)
        connected = np.flatnonzero(inst.assigned != _UNCONNECTED)
        best_ratio = np.inf
        best_i = -1
        best_connect: np.ndarray = np.empty(0, dtype=int)
        for i in range(inst.n_c):
            ratio, connect = inst.star(i, connected, unconnected)
            if ratio < best_ratio - _TOL:
                best_ratio = ratio
                best_i = i
                best_connect = connect
        if best_i < 0:
            raise _no_star_error()
        inst.open_star(best_i, best_connect, connected)


# ----------------------------------------------------------------------
# lazy strategy: priority queue of cached ratios with stale revalidation
def _refresh_all_first_round(inst: _Instance) -> Dict[int, Tuple[float, np.ndarray]]:
    """Vectorized first-round scan: every demand unconnected, no savings.

    Per-candidate results are bit-identical to :meth:`_Instance.star`
    (stable row-wise argsort, same cumsum/ratio/argmin pipeline), just
    computed a block of candidates at a time.
    """
    fresh: Dict[int, Tuple[float, np.ndarray]] = {}
    unconnected = np.arange(inst.n_d)
    ks = np.arange(1, inst.n_d + 1, dtype=float)
    chunk = max(1, min(inst.n_c, inst.conn.row_cap))
    for lo in range(0, inst.n_c, chunk):
        hi = min(lo + chunk, inst.n_c)
        costs = inst.conn.block(lo, hi)
        order = np.argsort(costs, axis=1, kind="stable")
        prefix = np.cumsum(np.take_along_axis(costs, order, axis=1), axis=1)
        f_eff = inst.open_cost[lo:hi]
        ratios = (f_eff[:, None] + prefix) / ks[None, :]
        k_best = np.argmin(ratios, axis=1)
        for b, i in enumerate(range(lo, hi)):
            kb = int(k_best[b])
            fresh[i] = (float(ratios[b, kb]), unconnected[order[b, : kb + 1]])
    return fresh


def _chain_select(fresh: Dict[int, Tuple[float, np.ndarray]], n_c: int) -> int:
    """The reference's sequential acceptance chain over all candidates."""
    best_ratio = np.inf
    best_i = -1
    for i in range(n_c):
        ratio = fresh[i][0]
        if ratio < best_ratio - _TOL:
            best_ratio = ratio
            best_i = i
    return best_i


def _solve_lazy(inst: _Instance) -> None:
    heap: List[Tuple[float, int]] = []
    first_round = True
    while np.any(inst.assigned == _UNCONNECTED):
        unconnected = np.flatnonzero(inst.assigned == _UNCONNECTED)
        connected = np.flatnonzero(inst.assigned != _UNCONNECTED)
        fresh: Dict[int, Tuple[float, np.ndarray]] = {}
        if first_round:
            fresh = _refresh_all_first_round(inst)
            heap = []
            first_round = False
            min_fresh = min(r for r, _ in fresh.values()) if fresh else np.inf
        else:
            min_fresh = np.inf
            while heap and (not fresh or heap[0][0] <= min_fresh + _TOL):
                _, i = heapq.heappop(heap)
                ratio, connect = inst.star(i, connected, unconnected)
                fresh[i] = (ratio, connect)
                if ratio < min_fresh:
                    min_fresh = ratio
        if not math.isfinite(min_fresh):
            raise _no_star_error()
        near = [(r, i) for i, (r, _) in fresh.items() if r <= min_fresh + _TOL]
        if all(r == min_fresh for r, _ in near):
            # No fractional near-tie: the reference chain lands on the
            # lowest-index exact minimum.
            best_i = min(i for r, i in near if r == min_fresh)
        else:
            # Ratios within the acceptance window but not exactly equal:
            # the reference's sequential chain may pick a non-minimum.
            # Revalidate everything and replay the chain verbatim.
            while heap:
                _, i = heapq.heappop(heap)
                fresh[i] = inst.star(i, connected, unconnected)
            best_i = _chain_select(fresh, inst.n_c)
            if best_i < 0:
                raise _no_star_error()
        best_connect = fresh[best_i][1]
        inst.open_star(best_i, best_connect, connected)
        for i, (ratio, _) in fresh.items():
            if i != best_i:
                heapq.heappush(heap, (ratio, i))
        # The winner's effective opening cost just dropped to zero, which
        # breaks the lower-bound invariant for its cached ratio: force a
        # revalidation whenever it reaches the top.
        heapq.heappush(heap, (-np.inf, best_i))


_SOLVERS = {"lazy": _solve_lazy, "reference": _solve_reference}


def offline_placement(
    demands: Sequence[DemandPoint],
    facility_cost: FacilityCostFn,
    candidates: Optional[Sequence[Point]] = None,
    *,
    strategy: str = "lazy",
    block_elems: int = DEFAULT_BLOCK_ELEMS,
) -> PlacementResult:
    """Solve one PLP instance with the 1.61-factor greedy.

    Args:
        demands: weighted grid-centroid arrivals (the set ``N`` with
            weights ``a_j``).
        facility_cost: opening cost ``f_i`` per candidate location.
        candidates: locations where parking may be established; defaults
            to the demand locations themselves (``P ⊂ N``).
        strategy: ``"lazy"`` (default, lazy-greedy priority queue) or
            ``"reference"`` (full per-round rescan).  Outputs are
            bit-identical; see the module docstring.
        block_elems: connection-cost entries materialized at once; above
            this the ``(n_c, n_d)`` matrix is never fully built.

    Returns:
        :class:`PlacementResult` with the final assignment after all
        defections.

    Raises:
        ValueError: if demand exists but the candidate set is empty, or
            on an unknown strategy / non-positive block size.
        RuntimeError: if a round finds no finite-ratio star (every
            remaining opening cost infinite or NaN) — previously this
            silently corrupted the run through a ``-1`` index.
    """
    if strategy not in _SOLVERS:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {OFFLINE_STRATEGIES}"
        )
    if block_elems <= 0:
        raise ValueError(f"block_elems must be positive, got {block_elems}")
    demands = list(demands)
    if not demands:
        return PlacementResult(stations=[], assignment=[], walking=0.0, space=0.0)
    cand_points = list(candidates) if candidates is not None else [d.location for d in demands]
    if not cand_points:
        raise ValueError("no candidate locations")

    inst = _Instance(demands, cand_points, facility_cost, block_elems)
    _SOLVERS[strategy](inst)
    return inst.result(demands, cand_points)
