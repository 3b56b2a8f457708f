"""Peacock's two-dimensional Kolmogorov–Smirnov test.

Algorithm 2 periodically compares the live destination distribution with
the historical one: ``D = sup_{x,y} |H(x,y) - G(x,y)|`` (Eq. 9).  Peacock's
construction makes the 2-D statistic distribution-free by evaluating all
four quadrant orientations ``(x<X, y<Y), (x<X, y>Y), (x>X, y<Y),
(x>X, y>Y)`` at every data point and taking the largest discrepancy.  The
paper reports ``O(n^3)`` time for the exact enumeration over the
``O(n^2)`` candidate quadrant corners; :func:`ks2d_peacock` implements that
exact version (vectorised), and :func:`ks2d_fast` the common
Fasano–Franceschini restriction to the ``O(n)`` observed points.

The similarity percentage of Table IV is ``100 * (1 - D)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "KSResult",
    "ks2d_peacock",
    "ks2d_fast",
    "similarity_percent",
    "CachedKS2D",
    "LiveWindow",
]


@dataclass(frozen=True)
class KSResult:
    """Outcome of a 2-D KS comparison.

    Attributes:
        statistic: the supremum distance ``D`` in [0, 1].
        n1: first sample size.
        n2: second sample size.
        p_value: approximate significance from Peacock's asymptotic formula.
    """

    statistic: float
    n1: int
    n2: int
    p_value: float

    @property
    def similarity(self) -> float:
        """Similarity percentage ``100 * (1 - D)`` as in Table IV."""
        return 100.0 * (1.0 - self.statistic)


def _as_xy(sample: Sequence) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) sample, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("empty sample")
    return arr


def _max_quadrant_gap(a: np.ndarray, b: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    """Max over candidate corners of the max quadrant-probability gap.

    For each corner we compare, per quadrant, the empirical probabilities
    of the two samples; vectorised over all corners at once.
    """
    # Broadcast: corners (m,), points (n,) -> (m, n) boolean tables.
    ax_lt = a[:, 0][None, :] < xs[:, None]
    ay_lt = a[:, 1][None, :] < ys[:, None]
    bx_lt = b[:, 0][None, :] < xs[:, None]
    by_lt = b[:, 1][None, :] < ys[:, None]
    na, nb = a.shape[0], b.shape[0]
    best = 0.0
    for qx, qy in ((True, True), (True, False), (False, True), (False, False)):
        fa = np.count_nonzero((ax_lt == qx) & (ay_lt == qy), axis=1) / na
        fb = np.count_nonzero((bx_lt == qx) & (by_lt == qy), axis=1) / nb
        gap = float(np.max(np.abs(fa - fb)))
        best = max(best, gap)
    return best


def _peacock_pvalue(d: float, n1: int, n2: int) -> float:
    """Asymptotic significance of ``d`` (Peacock 1983, Eq. 14-style).

    Uses the 1-D Kolmogorov distribution with the Peacock small-sample
    correction; adequate for the "similar vs dissimilar" thresholds the
    online algorithm needs (it never uses p to machine precision).
    """
    n_eff = n1 * n2 / (n1 + n2)
    if d <= 0:
        return 1.0
    # Peacock suggests Z with a dimensional correction factor.
    z = d * math.sqrt(n_eff)
    zc = z / (1.0 + math.sqrt(1.0 - 0.53 * n_eff**-0.9)) * 2.0
    # One-dimensional Kolmogorov Q-function on the corrected statistic.
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * zc * zc / 4.0)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(1.0, max(0.0, total)))


def ks2d_peacock(sample1: Sequence, sample2: Sequence, max_grid: int = 64) -> KSResult:
    """Exact-style Peacock 2-D two-sample KS test.

    Candidate quadrant corners are the Cartesian product of the pooled
    x-coordinates and pooled y-coordinates, exactly as Peacock prescribes.
    To bound the cubic cost on large samples, each coordinate axis is
    subsampled to at most ``max_grid`` quantile levels — with ``max_grid``
    >= sqrt(n) this is exact for small samples and a tight lower bound
    otherwise.

    Args:
        sample1: ``(n1, 2)`` array-like of (x, y) points.
        sample2: ``(n2, 2)`` array-like.
        max_grid: per-axis cap on corner candidates.

    Returns:
        :class:`KSResult` with statistic ``D`` in [0, 1].
    """
    a = _as_xy(sample1)
    b = _as_xy(sample2)
    pooled = np.vstack([a, b])
    xs = np.unique(pooled[:, 0])
    ys = np.unique(pooled[:, 1])
    if xs.size > max_grid:
        xs = np.quantile(xs, np.linspace(0.0, 1.0, max_grid))
    if ys.size > max_grid:
        ys = np.quantile(ys, np.linspace(0.0, 1.0, max_grid))
    # Evaluate every (x, y) corner combination in manageable row blocks.
    best = 0.0
    grid_x, grid_y = np.meshgrid(xs, ys)
    corners_x = grid_x.ravel()
    corners_y = grid_y.ravel()
    block = 2048
    for start in range(0, corners_x.size, block):
        cx = corners_x[start : start + block]
        cy = corners_y[start : start + block]
        best = max(best, _max_quadrant_gap(a, b, cx, cy))
    return KSResult(best, a.shape[0], b.shape[0], _peacock_pvalue(best, a.shape[0], b.shape[0]))


def ks2d_fast(sample1: Sequence, sample2: Sequence) -> KSResult:
    """Fasano–Franceschini variant: corners restricted to observed points.

    An ``O(n^2)`` approximation of Peacock's statistic that is standard
    practice and never underestimates badly; used by the online algorithm
    when called at high frequency.
    """
    a = _as_xy(sample1)
    b = _as_xy(sample2)
    best = 0.0
    for data in (a, b):
        best = max(best, _max_quadrant_gap(a, b, data[:, 0], data[:, 1]))
    return KSResult(best, a.shape[0], b.shape[0], _peacock_pvalue(best, a.shape[0], b.shape[0]))


def similarity_percent(sample1: Sequence, sample2: Sequence, exact: bool = False) -> float:
    """Similarity ``100(1 - D)`` between two 2-D samples (Table IV)."""
    result = ks2d_peacock(sample1, sample2) if exact else ks2d_fast(sample1, sample2)
    return result.similarity


#: Rows map a corner's ``(x<X and y<Y, x<X, y<Y)`` counts to its four
#: quadrant counts in :func:`ks2d_fast`'s order; the sample size is added
#: to the last row.
_QUADRANTS = np.array(
    [[1, 0, 0], [-1, 1, 0], [-1, 0, 1], [1, -1, -1]], dtype=float
)


def _corner_counts(points: np.ndarray, corners: np.ndarray, cut: int) -> np.ndarray:
    """Dominance counts of two groups of points at each corner.

    ``points`` is a ``(2, n)`` array (x row, y row) and ``corners`` a
    ``(2, m)`` one.  Returns a ``(2, 3, m)`` array: for the points
    ``[:, :cut]`` and then ``[:, cut:]``, the number at each corner
    ``(X, Y)`` with ``x < X and y < Y``, with ``x < X`` and with
    ``y < Y``.  They are the integers :func:`ks2d_fast`'s boolean tables
    count, held exactly in float64.
    """
    n, m = points.shape[1], corners.shape[1]
    # The (3, n, m) table is laid out with the longer of n and m along
    # its contiguous axis.
    if n <= m:
        table = np.empty((3, n, m), dtype=bool)
        np.less(points[:, :, None], corners[:, None, :], out=table[1:])
    else:
        table = np.empty((3, m, n), dtype=bool)
        np.greater(corners[:, :, None], points[:, None, :], out=table[1:])
        table = table.transpose(0, 2, 1)
    np.logical_and(table[1], table[2], out=table[0])
    table = table.view(np.uint8)
    # Unsigned and wide enough for a count of n (every point in a group).
    acc = np.min_scalar_type(n)
    counts = np.empty((2, 3, m))
    counts[0] = table[:, :cut].sum(axis=1, dtype=acc)
    counts[1] = table[:, cut:].sum(axis=1, dtype=acc)
    return counts


def _max_gap(counts: np.ndarray, na: int, nb: int) -> float:
    """The statistic from both samples' ``(2, 3, m)`` corner counts.

    All four quadrants of both samples are formed in one stacked
    operation; each fraction is ``count / n`` per element, then the
    largest absolute difference is taken, as in :func:`ks2d_fast`.
    """
    sizes = np.array([na, nb], dtype=float)[:, None, None]
    quadrants = _QUADRANTS @ counts
    quadrants[:, 3] += sizes[:, 0]
    fractions = quadrants / sizes
    return float(np.max(np.abs(fractions[0] - fractions[1])))


class CachedKS2D:
    """:func:`ks2d_fast` against a fixed reference sample, carried
    between calls.

    Algorithm 2 re-tests the live destination window against the same
    historical sample every ``beta * k`` arrivals, and between two tests
    the window only slides.  The statistic needs, at every corner (each
    historical point, then each live point), how many points of each
    sample lie below-left of it, left of it and below it.  The
    historical sample's counts at its own corners are computed once, at
    construction.  :meth:`test` keeps the live sample and both samples'
    counts from its last successful call.  When the new sample is the
    old one with ``d`` points dropped from the front and ``P`` appended —
    checked by value: the new sample's prefix must equal the old one's
    suffix — only those ``d + P`` points are counted, at
    O((d + P) * (n_hist + n_live)) cost.  Any other sample (the first
    call, a slide of the whole window, a sample that shares no such
    overlap with the last one) is counted from scratch at
    O(n_live * (n_hist + n_live)), as a slide from the empty sample.

    The result is bit-identical to ``ks2d_fast(historical, live)``: the
    counts are integers and each fraction is ``count / n`` per element.
    A raise leaves the carried state as the last successful call left
    it.
    """

    def __init__(self, historical: Sequence) -> None:
        self._a = _as_xy(historical)
        self._a_cols = np.ascontiguousarray(self._a.T)
        na = self._a.shape[0]
        # The empty live sample every count from scratch slides from: no
        # live points, so zero live counts at the historical corners.
        empty_counts = np.zeros((2, 3, na))
        empty_counts[0] = _corner_counts(self._a_cols, self._a_cols, na)[0]
        self._empty = (np.empty((0, 2)), empty_counts)
        self._live, self._counts = self._empty

    @property
    def historical(self) -> np.ndarray:
        """The cached reference sample (read-only view)."""
        return self._a

    def test(self, live: Sequence) -> KSResult:
        """KS comparison of ``live`` against the cached reference."""
        b = np.array(_as_xy(live))
        na, nb = self._a.shape[0], b.shape[0]
        cols = np.concatenate([self._a_cols, b.T], axis=1)
        old, prev = self._live, self._counts
        dropped = self._slide(old, b)
        if dropped is None:
            # Count from scratch: every live point arrives in an empty sample.
            (old, prev), dropped = self._empty, 0
        counts = self._advance(old, prev, cols, dropped)
        best = _max_gap(counts, na, nb)
        result = KSResult(best, na, nb, _peacock_pvalue(best, na, nb))
        self._live, self._counts = b, counts
        return result

    @staticmethod
    def _slide(old: np.ndarray, b: np.ndarray) -> Optional[int]:
        """The fewest points ``old`` can drop from its front to leave a
        non-empty prefix of ``b``, or ``None`` when no drop does."""
        starts = (old[:, 0] == b[0, 0]) & (old[:, 1] == b[0, 1])
        for dropped in np.flatnonzero(starts).tolist():
            keep = old.shape[0] - dropped
            if keep <= b.shape[0] and (old[dropped:] == b[:keep]).all():
                return dropped
        return None

    def _advance(
        self, old: np.ndarray, prev: np.ndarray, cols: np.ndarray, dropped: int
    ) -> np.ndarray:
        """The counts ``prev`` of live sample ``old`` moved to the live
        sample in ``cols[:, na:]``: the first ``dropped`` points of
        ``old`` leave, and the points after the kept ones arrive."""
        na, nb = self._a.shape[0], cols.shape[1] - self._a.shape[0]
        kept = na + old.shape[0] - dropped  # corners carried over
        counts = np.empty((2, 3, na + nb))
        counts[:, :, :na] = prev[:, :, :na]
        counts[:, :, na:kept] = prev[:, :, na + dropped:]
        moved = np.concatenate([cols[:, kept:], old[:dropped].T], axis=1)
        arrived, left = _corner_counts(moved, cols[:, :kept], na + nb - kept)
        counts[1, :, :kept] += arrived - left
        counts[:, :, kept:] = _corner_counts(cols, cols[:, kept:], na)
        return counts


class LiveWindow:
    """Reservoir-capped buffer of the last ``cap`` 2-D observations.

    The online algorithm's live window previously lived in a Python list
    with an O(window) ``pop(0)`` per arrival once full; this ring buffer
    makes every push O(1) and hands the KS test its ``(n, 2)`` array
    without rebuilding it from Python objects.  Pushes are buffered and
    written in one bulk copy when the window is next read (or the buffer
    reaches ``cap``), so a push costs one list append.

    Raises:
        ValueError: if the cap is not positive.
    """

    def __init__(self, cap: int) -> None:
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        self._cap = cap
        self._buf = np.empty((cap, 2), dtype=float)
        self._n = 0
        self._head = 0
        self._pending: list = []

    def __len__(self) -> int:
        self._flush()
        return self._n

    @property
    def cap(self) -> int:
        return self._cap

    def push(self, x: float, y: float) -> None:
        """Append one observation, evicting the oldest when full."""
        pending = self._pending
        pending.append((x, y))
        if len(pending) >= self._cap:
            self._flush()

    def _flush(self) -> None:
        """Write the buffered pushes into the ring, in order."""
        if self._pending:
            pts, self._pending = self._pending, []
            self._write(np.array(pts, dtype=float))

    def extend(self, points: np.ndarray) -> None:
        """Append ``(m, 2)`` observations in order (bulk, still O(m))."""
        self._flush()
        self._write(np.asarray(points, dtype=float).reshape(-1, 2))

    def _write(self, pts: np.ndarray) -> None:
        if pts.shape[0] >= self._cap:
            # Only the trailing cap observations survive.
            self._buf[:] = pts[-self._cap :]
            self._head = 0
            self._n = self._cap
            return
        first = min(pts.shape[0], self._cap - self._head)
        self._buf[self._head : self._head + first] = pts[:first]
        rest = pts.shape[0] - first
        if rest:
            self._buf[:rest] = pts[first:]
        self._head = (self._head + pts.shape[0]) % self._cap
        self._n = min(self._n + pts.shape[0], self._cap)

    def array(self) -> np.ndarray:
        """The current window, oldest first, as an ``(n, 2)`` copy."""
        self._flush()
        if self._n < self._cap:
            return self._buf[: self._n].copy()
        return np.concatenate([self._buf[self._head :], self._buf[: self._head]])

    def state_dict(self) -> dict:
        """Checkpointable state: the cap and the logical window contents.

        The ring offset is *not* part of the logical state — a window
        rebuilt by pushing :meth:`array` back in observes and evicts in
        exactly the same order as the original.
        """
        return {"cap": self._cap, "data": self.array().tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "LiveWindow":
        """Rebuild a window from :meth:`state_dict` output.

        Raises:
            ValueError: on a non-positive cap or malformed contents.
        """
        window = cls(int(state["cap"]))
        data = np.asarray(state["data"], dtype=float)
        if data.size:
            window.extend(data)
        return window
