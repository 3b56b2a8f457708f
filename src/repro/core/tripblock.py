"""Columnar trip storage: the struct-of-arrays hot path of the stream tier.

A :class:`~repro.datasets.trips.TripRecord` is the right unit for
correctness reasoning, but pushing millions of per-trip Python objects
through validator → watermark buffer → WAL → planner spends nearly all
of its budget on attribute access and allocation.  :class:`TripBlock`
holds the same trips as contiguous NumPy columns — ``float64`` for
coordinates and telemetry, ``int64`` for ids and timestamps — so the
guarded stream layers can evaluate whole blocks with vectorized masks
and slices instead of one interpreter round per trip.

Bit-identity ground rules (the blocked paths are parity oracles against
the scalar ones, so every representation choice must round-trip
exactly):

* **Timestamps** are naive datetimes stored as *microseconds since the
  epoch* (``int64``).  Python datetimes have exactly microsecond
  resolution, so ``datetime ↔ int64 µs`` is a bijection and every
  comparison or subtraction performed on the integer column equals the
  ``datetime`` arithmetic bit for bit (``timedelta.total_seconds()`` is
  ``µs / 1e6`` with the same rounding as ``int64 → float64`` division
  for any plausible magnitude).  Timezone-aware datetimes are refused:
  the ingest tier normalises to naive UTC (see
  :func:`repro.datasets.mobike.load_mobike_csv`), and silently mixing
  aware/naive values here would corrupt the ordering contract.
* **Optional fields** (``geodesic_m``, ``battery``) carry a presence
  mask next to the value column, because ``None`` and ``NaN`` are
  semantically different to the validator: an absent battery passes, a
  NaN battery is rejected.
* **Slicing** with a ``slice`` returns zero-copy column views;
  :meth:`take` (fancy indexing) copies.  Both preserve order.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Iterator, List, Sequence, Union

import numpy as np

from ..datasets.trips import TripRecord
from ..geo.points import Point

__all__ = ["TripBlock", "datetime_to_us", "us_to_datetime", "EPOCH"]

EPOCH = datetime(1970, 1, 1)
"""Origin of the integer-microsecond timeline (naive, UTC by convention)."""

_US = timedelta(microseconds=1)


def datetime_to_us(moment: datetime) -> int:
    """Exact ``int64``-safe microseconds since :data:`EPOCH`.

    Raises:
        ValueError: on a timezone-aware datetime — the stream tier works
            on one naive UTC timeline (the CSV loader normalises).
        TypeError: on a value that is not a datetime.
    """
    if getattr(moment, "tzinfo", None) is not None:
        raise ValueError(
            f"timezone-aware datetime {moment.isoformat()} cannot enter a "
            "TripBlock; normalise to naive UTC first"
        )
    return (moment - EPOCH) // _US


def us_to_datetime(us: int) -> datetime:
    """Inverse of :func:`datetime_to_us` (exact round trip)."""
    return EPOCH + timedelta(microseconds=int(us))


def _int_column(values: list, name: str) -> np.ndarray:
    """``values`` as ``int64``; refuses any non-integral column."""
    col = np.array(values)
    if col.dtype.kind not in "bi":
        raise TypeError(f"{name} is not an int64 column (got dtype {col.dtype})")
    return col.astype(np.int64, copy=False)


def _float_column(values: list, name: str) -> np.ndarray:
    """``values`` as ``float64``; refuses any non-numeric column."""
    col = np.array(values)
    if col.dtype.kind not in "biuf":
        raise TypeError(f"{name} is not a numeric column (got dtype {col.dtype})")
    return col.astype(np.float64, copy=False)


class TripBlock:
    """A batch of trips in struct-of-arrays (columnar) layout.

    Columns (all length ``n``):

    * ``order_id, user_id, bike_id, bike_type`` — ``int64``;
    * ``start_us`` — ``int64`` microseconds since :data:`EPOCH`;
    * ``start_x, start_y, end_x, end_y`` — ``float64`` planar metres;
    * ``geodesic_m`` (``float64``) with ``has_geodesic`` (``bool``);
    * ``battery`` (``float64``) with ``has_battery`` (``bool``).

    Raises:
        ValueError: when the columns disagree on length.
    """

    __slots__ = (
        "order_id", "user_id", "bike_id", "bike_type", "start_us",
        "start_x", "start_y", "end_x", "end_y",
        "geodesic_m", "has_geodesic", "battery", "has_battery",
    )

    def __init__(
        self,
        order_id: np.ndarray,
        user_id: np.ndarray,
        bike_id: np.ndarray,
        bike_type: np.ndarray,
        start_us: np.ndarray,
        start_x: np.ndarray,
        start_y: np.ndarray,
        end_x: np.ndarray,
        end_y: np.ndarray,
        geodesic_m: np.ndarray = None,
        has_geodesic: np.ndarray = None,
        battery: np.ndarray = None,
        has_battery: np.ndarray = None,
    ) -> None:
        self.order_id = np.asarray(order_id, dtype=np.int64)
        self.user_id = np.asarray(user_id, dtype=np.int64)
        self.bike_id = np.asarray(bike_id, dtype=np.int64)
        self.bike_type = np.asarray(bike_type, dtype=np.int64)
        self.start_us = np.asarray(start_us, dtype=np.int64)
        self.start_x = np.asarray(start_x, dtype=np.float64)
        self.start_y = np.asarray(start_y, dtype=np.float64)
        self.end_x = np.asarray(end_x, dtype=np.float64)
        self.end_y = np.asarray(end_y, dtype=np.float64)
        n = self.order_id.shape[0]
        if geodesic_m is None:
            geodesic_m = np.full(n, np.nan)
        if has_geodesic is None:
            has_geodesic = np.zeros(n, dtype=bool)
        if battery is None:
            battery = np.full(n, np.nan)
        if has_battery is None:
            has_battery = np.zeros(n, dtype=bool)
        self.geodesic_m = np.asarray(geodesic_m, dtype=np.float64)
        self.has_geodesic = np.asarray(has_geodesic, dtype=bool)
        self.battery = np.asarray(battery, dtype=np.float64)
        self.has_battery = np.asarray(has_battery, dtype=bool)
        for name in self.__slots__:
            col = getattr(self, name)
            if col.ndim != 1 or col.shape[0] != n:
                raise ValueError(
                    f"column {name} has shape {col.shape}, expected ({n},)"
                )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.order_id.shape[0]

    def __iter__(self) -> Iterator[TripRecord]:
        return iter(self.to_trips())

    def __getitem__(self, key: Union[int, slice]) -> Union["TripRecord", "TripBlock"]:
        """``block[i]`` materialises one trip; ``block[a:b]`` is a
        zero-copy columnar view (NumPy basic slicing)."""
        if isinstance(key, slice):
            return TripBlock(*(getattr(self, name)[key] for name in self.__slots__))
        return self.trip(int(key))

    def take(self, indices) -> "TripBlock":
        """Rows at ``indices`` (in that order) as a new block (copies)."""
        idx = np.asarray(indices, dtype=np.intp)
        return TripBlock(*(getattr(self, name)[idx] for name in self.__slots__))

    def sorted_by_time(self) -> "TripBlock":
        """Rows stably sorted by ``start_us`` — the same permutation a
        stable sort of the records by ``start_time`` produces."""
        return self.take(np.argsort(self.start_us, kind="stable"))

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TripBlock":
        """A zero-length block."""
        z_i = np.empty(0, dtype=np.int64)
        z_f = np.empty(0, dtype=np.float64)
        return cls(z_i, z_i, z_i, z_i, z_i, z_f, z_f, z_f, z_f)

    @classmethod
    def from_trips(cls, trips: Sequence[TripRecord]) -> "TripBlock":
        """Columnarise a record sequence (the scalar→block boundary shim).

        Each field is gathered into a list and converted in one NumPy
        call, and the resulting dtype is checked once per column: an id
        field must come out integral (a float id such as ``3.7`` or an
        id beyond ``int64`` is refused, never truncated or wrapped), a
        numeric field must come out numeric (a string or ``None`` in a
        coordinate is refused).

        Raises:
            ValueError: on a timezone-aware ``start_time`` (see
                :func:`datetime_to_us`).
            TypeError: on a field whose values do not form an integral
                (ids) or numeric (coordinates, telemetry) column, or a
                ``start_time`` that is not a datetime.
        """
        if len(trips) == 0:
            return cls.empty()
        geodesic = [t.geodesic_m for t in trips]
        battery = [t.battery for t in trips]
        return cls(
            _int_column([t.order_id for t in trips], "order_id"),
            _int_column([t.user_id for t in trips], "user_id"),
            _int_column([t.bike_id for t in trips], "bike_id"),
            _int_column([t.bike_type for t in trips], "bike_type"),
            np.array([datetime_to_us(t.start_time) for t in trips], dtype=np.int64),
            _float_column([t.start.x for t in trips], "start.x"),
            _float_column([t.start.y for t in trips], "start.y"),
            _float_column([t.end.x for t in trips], "end.x"),
            _float_column([t.end.y for t in trips], "end.y"),
            geodesic_m=_float_column(
                [np.nan if g is None else g for g in geodesic], "geodesic_m"
            ),
            has_geodesic=np.array([g is not None for g in geodesic], dtype=bool),
            battery=_float_column(
                [np.nan if b is None else b for b in battery], "battery"
            ),
            has_battery=np.array([b is not None for b in battery], dtype=bool),
        )

    @classmethod
    def concat(cls, blocks: Sequence["TripBlock"]) -> "TripBlock":
        """Concatenate blocks in order."""
        blocks = [b for b in blocks if len(b) > 0]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        return cls(*(
            np.concatenate([getattr(b, name) for b in blocks])
            for name in cls.__slots__
        ))

    # ------------------------------------------------------------------
    def trip(self, i: int) -> TripRecord:
        """Materialise row ``i`` as a :class:`TripRecord` (exact)."""
        return TripRecord(
            order_id=int(self.order_id[i]),
            user_id=int(self.user_id[i]),
            bike_id=int(self.bike_id[i]),
            bike_type=int(self.bike_type[i]),
            start_time=us_to_datetime(self.start_us[i]),
            start=Point(float(self.start_x[i]), float(self.start_y[i])),
            end=Point(float(self.end_x[i]), float(self.end_y[i])),
            geodesic_m=float(self.geodesic_m[i]) if self.has_geodesic[i] else None,
            battery=float(self.battery[i]) if self.has_battery[i] else None,
        )

    def to_trips(self) -> List[TripRecord]:
        """Materialise every row (the block→scalar boundary shim).

        ``tolist()`` converts each column once (native Python ints and
        floats), so the per-trip cost is object construction only.
        """
        n = len(self)
        if n == 0:
            return []
        order = self.order_id.tolist()
        user = self.user_id.tolist()
        bike = self.bike_id.tolist()
        btype = self.bike_type.tolist()
        s_us = self.start_us.tolist()
        sx = self.start_x.tolist()
        sy = self.start_y.tolist()
        ex = self.end_x.tolist()
        ey = self.end_y.tolist()
        geo = self.geodesic_m.tolist()
        hgeo = self.has_geodesic.tolist()
        bat = self.battery.tolist()
        hbat = self.has_battery.tolist()
        return [
            TripRecord(
                order_id=order[i], user_id=user[i], bike_id=bike[i],
                bike_type=btype[i],
                start_time=EPOCH + timedelta(microseconds=s_us[i]),
                start=Point(sx[i], sy[i]),
                end=Point(ex[i], ey[i]),
                geodesic_m=geo[i] if hgeo[i] else None,
                battery=bat[i] if hbat[i] else None,
            )
            for i in range(n)
        ]
