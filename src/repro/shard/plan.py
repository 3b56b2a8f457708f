"""Geohash-prefix partition of the plane into shard territories.

A :class:`ShardPlan` carves the city plane into geohash cells (the
Morton / Z-order curve of ``repro.geo.geohash``) and assigns each cell
to one shard.  Cells are taken in Morton order — lexicographic geohash
order — so every shard owns a contiguous run of the space-filling
curve, which keeps territories spatially coherent without ever storing
polygon geometry: membership is one integer table lookup.

Routing is columnar end to end: planar trip coordinates unproject to
(lat, lon) with :meth:`~repro.geo.distance.LocalProjection.to_geo_vec`,
drop into integer cell indices with
:func:`~repro.geo.geohash.cell_indices_many`, and gather their shard
ids from a dense ``(n_lat, n_lon)`` table.  The scalar
:meth:`ShardPlan.shard_of` runs the identical kernel on a length-1
array, so per-trip and per-block routing can never disagree.  The
edge tests read one more table built with the plan, ``touch[row, col,
shard]`` (the cell is another shard's but borders ``shard``), so a
caller that keeps its points' cells never repeats the geohash work.

Garbage coordinates never raise here: non-finite values land in cell
``(0, 0)`` and out-of-range values clamp to the edge cells, so a
router dispatches *every* trip deterministically and the per-shard
validator — the component that owns rejection — dead-letters the junk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.distance import LocalProjection
from ..geo.geohash import cell_code, cell_indices_many, cell_shape, _interleave
from ..geo.points import BoundingBox, Point

__all__ = ["ShardPlan", "DEFAULT_REFERENCE"]

DEFAULT_REFERENCE = (39.9042, 116.4074)
"""Default projection reference (Beijing, the paper's study city)."""

_MAX_PLAN_CELLS = 1 << 16
"""Upper bound on covering-rectangle cells — keeps the dense shard
table and the Morton sort trivially cheap."""


@dataclass(frozen=True)
class ShardPlan:
    """An immutable cell-to-shard assignment over a covering rectangle.

    Attributes:
        ref_lat: latitude of the plane's projection reference.
        ref_lon: longitude of the plane's projection reference.
        precision: geohash characters per cell.
        origin: global ``(lat_idx, lon_idx)`` of the rectangle's
            south-west cell.
        shape: ``(n_lat, n_lon)`` cells covered.
        cell_shards: dense ``shape`` table of shard ids (int64).
        n_shards: number of shards (``cell_shards`` values are
            ``0 .. n_shards-1``, every shard non-empty).
    """

    ref_lat: float
    ref_lon: float
    precision: int
    origin: Tuple[int, int]
    shape: Tuple[int, int]
    cell_shards: np.ndarray
    n_shards: int

    def __post_init__(self) -> None:
        table = np.asarray(self.cell_shards, dtype=np.int64)
        if table.shape != tuple(self.shape):
            raise ValueError(
                f"cell_shards shape {table.shape} != declared {self.shape}"
            )
        if self.n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {self.n_shards}")
        present = np.unique(table)
        if present[0] < 0 or present[-1] >= self.n_shards:
            raise ValueError("cell_shards holds ids outside [0, n_shards)")
        if len(present) != self.n_shards:
            missing = sorted(set(range(self.n_shards)) - set(present.tolist()))
            raise ValueError(f"shards without territory: {missing}")
        object.__setattr__(self, "cell_shards", table)
        object.__setattr__(
            self, "_projection", LocalProjection(self.ref_lat, self.ref_lon)
        )
        touch = _touch_table(table, self.n_shards)
        object.__setattr__(self, "_touch", touch)
        # A boundary cell is one that touches some other shard.
        object.__setattr__(self, "_boundary", touch.any(axis=2))

    # ------------------------------------------------------------------
    # construction
    @classmethod
    def from_bounds(
        cls,
        bounds: BoundingBox,
        n_shards: int,
        precision: Optional[int] = None,
        reference: Tuple[float, float] = DEFAULT_REFERENCE,
        demand: Optional[np.ndarray] = None,
    ) -> "ShardPlan":
        """Partition a planar bounding box into ``n_shards`` territories.

        Cells of the covering rectangle are walked in Morton order and
        split into contiguous runs of (near-)equal weight, so shards
        stay spatially coherent and balanced.

        Args:
            bounds: city plane extent in metres (the workload's box).
            n_shards: shard count (>= 1).
            precision: geohash characters per cell; ``None`` picks the
                coarsest precision giving at least ``8 * n_shards``
                cells, so the split has room to balance.
            reference: projection reference ``(lat, lon)``.
            demand: optional ``(n, 2)`` planar sample of historical
                destinations; when given, cell weights are
                ``1 + arrivals`` instead of uniform, so shard
                boundaries land where the demand actually is.

        Raises:
            ValueError: on a non-positive shard count, a rectangle with
                fewer cells than shards, or a cell count beyond the
                dense-table bound.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        projection = LocalProjection(*reference)
        xs = np.array([bounds.min_x, bounds.max_x], dtype=float)
        ys = np.array([bounds.min_y, bounds.max_y], dtype=float)
        lats, lons = projection.to_geo_vec(xs, ys)
        if precision is None:
            precision = 1
            while precision < 12:
                lat_idx, lon_idx = cell_indices_many(lats, lons, precision)
                n_cells = (int(lat_idx[1] - lat_idx[0]) + 1) * (
                    int(lon_idx[1] - lon_idx[0]) + 1
                )
                if n_cells >= max(8 * n_shards, 16):
                    break
                precision += 1
        lat_idx, lon_idx = cell_indices_many(lats, lons, precision)
        origin = (int(lat_idx[0]), int(lon_idx[0]))
        shape = (int(lat_idx[1] - lat_idx[0]) + 1, int(lon_idx[1] - lon_idx[0]) + 1)
        n_cells = shape[0] * shape[1]
        if n_cells < n_shards:
            raise ValueError(
                f"{n_cells} cells at precision {precision} cannot host "
                f"{n_shards} shards — lower the precision or the shard count"
            )
        if n_cells > _MAX_PLAN_CELLS:
            raise ValueError(
                f"{n_cells} cells exceed the plan bound {_MAX_PLAN_CELLS}; "
                "use a coarser precision"
            )

        rows, cols = np.divmod(np.arange(n_cells, dtype=np.int64), shape[1])
        codes = _interleave(rows + origin[0], cols + origin[1], precision)
        order = np.argsort(codes, kind="stable")

        weights = np.ones(n_cells, dtype=np.int64)
        if demand is not None:
            demand = np.asarray(demand, dtype=float)
            d_lats, d_lons = projection.to_geo_vec(demand[:, 0], demand[:, 1])
            d_lat, d_lon = cell_indices_many(d_lats, d_lons, precision)
            r = np.clip(d_lat - origin[0], 0, shape[0] - 1)
            c = np.clip(d_lon - origin[1], 0, shape[1] - 1)
            np.add.at(weights, r * shape[1] + c, 1)

        table_flat = np.empty(n_cells, dtype=np.int64)
        ordered_weights = weights[order]
        total = int(ordered_weights.sum())
        cum = 0
        shard = 0
        for pos in range(n_cells):
            remaining_cells = n_cells - pos
            remaining_shards = n_shards - shard
            # Never let the tail run out of cells for the shards left.
            if remaining_cells == remaining_shards and shard < n_shards - 1:
                table_flat[order[pos]] = shard
                shard += 1
                continue
            table_flat[order[pos]] = min(shard, n_shards - 1)
            cum += int(ordered_weights[pos])
            if shard < n_shards - 1 and cum * n_shards >= (shard + 1) * total:
                shard += 1
        return cls(
            ref_lat=float(reference[0]),
            ref_lon=float(reference[1]),
            precision=precision,
            origin=origin,
            shape=shape,
            cell_shards=table_flat.reshape(shape),
            n_shards=n_shards,
        )

    # ------------------------------------------------------------------
    # routing kernels
    def cell_index_of_many(self, xs, ys) -> Tuple[np.ndarray, np.ndarray]:
        """Rectangle-local ``(row, col)`` cell indices of planar points.

        Points outside the rectangle clamp to its edge cells; non-finite
        coordinates land in the south-west cell.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        lats, lons = self._projection.to_geo_vec(xs, ys)
        lat_idx, lon_idx = cell_indices_many(lats, lons, self.precision)
        rows = np.clip(lat_idx - self.origin[0], 0, self.shape[0] - 1)
        cols = np.clip(lon_idx - self.origin[1], 0, self.shape[1] - 1)
        return rows, cols

    def shard_of_many(self, xs, ys) -> np.ndarray:
        """Vectorized shard ids for planar coordinate columns."""
        rows, cols = self.cell_index_of_many(xs, ys)
        return self.cell_shards[rows, cols]

    def shard_of(self, point: Point) -> int:
        """Shard id of one planar point — the length-1 vectorized kernel,
        so scalar and columnar routing are the same arithmetic."""
        return int(self.shard_of_many(np.array([point.x]), np.array([point.y]))[0])

    def boundary_of_many(self, xs, ys) -> np.ndarray:
        """Boolean mask: does each point fall in a boundary cell (one
        whose 8-neighbourhood crosses into another shard)?"""
        rows, cols = self.cell_index_of_many(xs, ys)
        return self._boundary[rows, cols]

    def touches_shard(self, xs, ys, shard: int) -> np.ndarray:
        """Boolean mask: is each point's cell adjacent to (or inside a
        cell bordering) ``shard``'s territory while belonging to another
        shard?  Used to pick which foreign stations enter a halo."""
        rows, cols = self.cell_index_of_many(xs, ys)
        return self.cells_touch_shard(rows, cols, shard)

    def cells_touch_shard(self, rows, cols, shard: int) -> np.ndarray:
        """:meth:`touches_shard` for cells already located by
        :meth:`cell_index_of_many`: one lookup in the plan's touch table,
        no geohash work.

        Raises:
            ValueError: for a shard id outside ``[0, n_shards)``.
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard out of range: {shard}")
        return self._touch[rows, cols, shard]

    # ------------------------------------------------------------------
    # inspection
    def cells_of_shard(self, shard: int) -> List[str]:
        """Geohash strings of every cell a shard owns, in Morton order."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard out of range: {shard}")
        rows, cols = np.nonzero(self.cell_shards == shard)
        codes = _interleave(
            rows.astype(np.int64) + self.origin[0],
            cols.astype(np.int64) + self.origin[1],
            self.precision,
        )
        order = np.argsort(codes, kind="stable")
        return [
            cell_code(int(rows[i]) + self.origin[0], int(cols[i]) + self.origin[1], self.precision)
            for i in order
        ]

    def counts(self) -> List[int]:
        """Cells per shard, by shard id."""
        return np.bincount(
            self.cell_shards.ravel(), minlength=self.n_shards
        ).tolist()

    # ------------------------------------------------------------------
    # persistence
    def state_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description (see :meth:`from_state`)."""
        return {
            "ref_lat": self.ref_lat,
            "ref_lon": self.ref_lon,
            "precision": self.precision,
            "origin": list(self.origin),
            "shape": list(self.shape),
            "cell_shards": self.cell_shards.ravel().tolist(),
            "n_shards": self.n_shards,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "ShardPlan":
        """Rebuild a plan from :meth:`state_dict` output."""
        shape = tuple(int(v) for v in state["shape"])
        table = np.asarray(state["cell_shards"], dtype=np.int64).reshape(shape)
        return cls(
            ref_lat=float(state["ref_lat"]),
            ref_lon=float(state["ref_lon"]),
            precision=int(state["precision"]),
            origin=tuple(int(v) for v in state["origin"]),
            shape=shape,
            cell_shards=table,
            n_shards=int(state["n_shards"]),
        )


def _touch_table(table: np.ndarray, n_shards: int) -> np.ndarray:
    """``touch[row, col, shard]``: the cell is not ``shard``'s, but its
    8-neighbourhood (clamped at the rectangle edge) holds a cell that is."""
    n_lat, n_lon = table.shape
    rows = np.arange(n_lat)[:, None]
    cols = np.arange(n_lon)[None, :]
    touch = np.zeros((n_lat, n_lon, n_shards), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r = np.clip(rows + dr, 0, n_lat - 1)
            c = np.clip(cols + dc, 0, n_lon - 1)
            touch[rows, cols, table[r, c]] = True
    touch[rows, cols, table] = False
    return touch
