"""E-Sharing's online placement with deviation penalty (Algorithm 2).

The paper's Tier-1 contribution: an online algorithm anchored to the
offline near-optimal solution.  Per streaming request with destination
``i``:

1. measure the walking cost ``c_ij`` to the nearest existing parking ``j``;
2. open a new parking at ``i`` with probability
   ``min(g(i, j) * c_ij / f_i, 1)``, otherwise assign to ``j``;
3. every ``beta * k`` arrivals the opening cost doubles (so openings grow
   exponentially harder) and a Peacock 2-D KS test compares the live
   destination distribution against the historical one, switching the
   penalty function per the Section V-C thresholds.

Initialisation follows Algorithm 2 exactly: ``w* = min pairwise distance
in P / 2`` and the opening cost is scaled to ``f_i * w* / k`` — small at
first so early dynamics can be absorbed, prohibitive later.  The space
cost *charged* for an opened parking is the unscaled ``f_i``: the scaled
value only controls the opening probability.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.points import Point
from ..serialize import rng_from_state, rng_to_state
from ..stats.ks2d import CachedKS2D, LiveWindow, ks2d_peacock
from .costs import DemandPoint, FacilityCostFn
from .penalty import (
    PENALTY_REGISTRY,
    SIMILAR_THRESHOLD,
    PenaltyFunction,
    TypeIIPenalty,
    select_penalty,
)
from .replay import DrawStream, NearestCache
from .result import PlacementResult
from .station_set import BACKENDS, StationSet
from .tripblock import TripBlock

__all__ = ["EsharingConfig", "EsharingDecision", "esharing_placement", "EsharingPlanner"]


@dataclass(frozen=True)
class EsharingConfig:
    """Knobs of Algorithm 2.

    Attributes:
        beta: opening-budget ratio; every ``beta * k`` arrivals the
            opening cost doubles and the KS test re-runs (``beta >= 1``).
        tolerance_m: penalty tolerance level ``L`` (paper uses 200 m).
        adaptive_tolerance: widen ``L`` when the live distribution
            diverges from history (Section III-D: "the system could
            increase L and fit such shift"), scale back when it returns.
        exact_ks: use the exact Peacock enumeration instead of the fast
            variant for the periodic test.
        history_window: cap on the samples (both the historical reference
            and the live window) used in the KS comparison; larger is
            more accurate but the test is quadratic in the sample size.
        initial_open_cost_m: the probability-control opening cost (metres)
            a *typical* location starts at.  ``None`` uses ``w*`` (half
            the minimum anchor spacing); see the calibration note in the
            class docstring.
        reset_on_shift: when the periodic KS test detects a *less
            similar* regime (below the Section V-C 80% threshold), reset
            the opening cost to its initial value so the system can
            re-adapt.  Without this, the exponential doubling eventually
            makes openings impossible and a late demand surge (the
            concert case of Section III-C) could never be absorbed.
        fixed_penalty: pin the penalty function to one type (a name from
            :data:`repro.core.penalty.PENALTY_REGISTRY`) instead of
            switching by KS similarity — the ablation of Section V-B.
        nn_backend: nearest-neighbour backend of the underlying
            :class:`~repro.core.station_set.StationSet` — ``"linear"``
            (reference O(k) scan) or ``"grid"`` (bucketed index,
            sub-linear per request at production station counts).
            Placement output is bit-identical across backends.
        nn_cell_size: grid-bucket side (metres) for the ``"grid"``
            backend; ``None`` uses the StationSet default.
    """

    beta: float = 1.5
    tolerance_m: float = 200.0
    adaptive_tolerance: bool = False
    exact_ks: bool = False
    history_window: int = 800
    initial_open_cost_m: Optional[float] = None
    reset_on_shift: bool = True
    fixed_penalty: Optional[str] = None
    nn_backend: str = "linear"
    nn_cell_size: Optional[float] = None

    def __post_init__(self) -> None:
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.tolerance_m <= 0:
            raise ValueError(f"tolerance_m must be positive, got {self.tolerance_m}")
        if self.history_window <= 0:
            raise ValueError(f"history_window must be positive, got {self.history_window}")
        if self.initial_open_cost_m is not None and self.initial_open_cost_m <= 0:
            raise ValueError(
                f"initial_open_cost_m must be positive, got {self.initial_open_cost_m}"
            )
        if self.fixed_penalty is not None:
            if self.fixed_penalty not in PENALTY_REGISTRY:
                raise ValueError(
                    f"unknown penalty {self.fixed_penalty!r}; "
                    f"choose from {sorted(PENALTY_REGISTRY)}"
                )
        if self.nn_backend not in BACKENDS:
            raise ValueError(
                f"unknown nn_backend {self.nn_backend!r}; choose from {BACKENDS}"
            )
        if self.nn_cell_size is not None and self.nn_cell_size <= 0:
            raise ValueError(
                f"nn_cell_size must be positive, got {self.nn_cell_size}"
            )


@dataclass(frozen=True)
class EsharingDecision:
    """Trace entry for one request, recorded by
    :meth:`EsharingPlanner.offer` and :meth:`EsharingPlanner.replay`
    (the serve path's per-arrival step records none).

    ``station_index`` is the *stable id* of the assigned (or newly
    opened) station in the planner's :class:`StationSet`: it survives
    later removals, and equals the position in ``planner.stations``
    whenever no station has been removed.  ``penalty_name`` is the
    penalty in force after the request, and so after the periodic check
    it may have triggered.
    """

    destination: Point
    station_index: int
    opened: bool
    walking_cost: float
    open_probability: float
    penalty_name: str


class EsharingPlanner:
    """Stateful Algorithm 2 — feed requests one at a time.

    Args:
        offline_stations: the anchor set ``P`` from Algorithm 1.
        facility_cost: unscaled opening cost ``f_i``.
        historical: ``(n, 2)`` destination sample the offline solution was
            computed from (the KS reference ``H``).
        rng: randomness for opening coin flips.
        config: algorithm parameters.

    Attributes:
        decisions: one :class:`EsharingDecision` per request fed through
            :meth:`offer` or :meth:`replay`, in order.  The per-arrival
            step :meth:`arrive` records nothing, so a planner that only
            serves (``PlacementService``) keeps this empty and holds no
            per-arrival object.
        similarity_history: one KS similarity per periodic check.

    Raises:
        ValueError: if the anchor set is empty.
    """

    def __init__(
        self,
        offline_stations: Sequence[Point],
        facility_cost: FacilityCostFn,
        historical: np.ndarray,
        rng: np.random.Generator,
        config: Optional[EsharingConfig] = None,
    ) -> None:
        offline_stations = list(offline_stations)
        if not offline_stations:
            raise ValueError("Algorithm 2 needs a non-empty offline anchor set")
        self.config = config or EsharingConfig()
        self.station_set = StationSet(
            offline_stations,
            backend=self.config.nn_backend,
            cell_size=self.config.nn_cell_size,
        )
        self.k = len(offline_stations)
        self._facility_cost = facility_cost
        self._historical = np.asarray(historical, dtype=float)
        if self._historical.ndim != 2 or self._historical.shape[1] != 2:
            raise ValueError("historical sample must be an (n, 2) array")
        window = self.config.history_window
        if self._historical.shape[0] > window:
            # Deterministic thinning keeps the KS test near-quadratic in
            # the window, not in the full history.
            idx = np.linspace(0, self._historical.shape[0] - 1, window).astype(int)
            self._historical = self._historical[idx]
        # The historical side of every periodic KS test is fixed for the
        # planner's lifetime, and the live window only slides between
        # tests: the cache counts the first once and carries the second.
        self._ks_cache = CachedKS2D(self._historical)
        self._rng = rng
        # Line 3: w* = min pairwise distance / 2 (0 for a single anchor).
        # The StationSet maintains the minimum spacing incrementally as
        # anchors are loaded, replacing the O(k^2) matrix rebuild.
        if self.k >= 2:
            w_star = self.station_set.min_spacing() / 2.0
        else:
            w_star = self.config.tolerance_m
        # Line 4 rescales the opening cost so that it starts *small*
        # ("initially, the opening cost is small so the system is
        # encouraged to open new parking"), then doubles every beta*k
        # arrivals.  Calibration note: read literally, f_i * w*/k makes
        # the opening probability c/f astronomically small (f_i is ~10 km
        # while walking costs are ~10^2 m), which contradicts the quoted
        # design intent and never opens anything.  We therefore map the
        # *typical* unscaled f_i onto the anchor half-spacing w* —
        # preserving relative cost differences between locations — which
        # reproduces the Table V behaviour (E-Sharing opens ~1.5x the
        # offline count, fewer than Meyerson).  Override with
        # config.initial_open_cost_m for ablations.
        typical_f = float(np.mean([facility_cost(s) for s in self.stations]))
        initial = self.config.initial_open_cost_m
        if initial is None:
            initial = max(w_star, 1e-9)
        self._cost_scale = initial / max(typical_f, 1e-9)
        self._initial_cost_scale = self._cost_scale
        self._shift_absorbed = False
        self._removals = 0
        self._arrivals_since_check = 0
        # beta and k never change, so the checkpoint period is a constant.
        self._check_period = self.config.beta * self.k
        if self.config.fixed_penalty is not None:
            self.penalty: PenaltyFunction = PENALTY_REGISTRY[self.config.fixed_penalty](
                self.config.tolerance_m
            )
        else:
            self.penalty = TypeIIPenalty(tolerance=self.config.tolerance_m)
        self._live = LiveWindow(window)
        self.decisions: List[EsharingDecision] = []
        self.walking = 0.0
        self.space = float(sum(facility_cost(s) for s in self.stations))
        self.online_opened: List[int] = []
        self.similarity_history: List[float] = []
        self.ks_seconds = 0.0

    @property
    def stations(self) -> List[Point]:
        """Locations of the active stations, in ascending-id order."""
        return self.station_set.locations()

    @property
    def rng(self) -> np.random.Generator:
        """The coin-flip generator (one uniform draw per request)."""
        return self._rng

    # ------------------------------------------------------------------
    def offer(self, destination: Point) -> EsharingDecision:
        """Process one request (lines 5-11 of Algorithm 2) and record
        its decision in :attr:`decisions`."""
        idx, c_ij = self.station_set.nearest(destination)
        return self._record(
            destination, self.arrive(destination, idx, c_ij, self._rng.uniform)
        )

    def arrive(
        self,
        destination: Point,
        nearest_id: int,
        c_ij: float,
        draw: Callable[[], float],
    ) -> Tuple[int, bool, float, float]:
        """Process one request whose nearest active station is already
        known (lines 6-11 of Algorithm 2): the per-arrival step.

        ``nearest_id`` at ``c_ij`` is the nearest active station, and
        ``draw()`` returns the request's coin flip, a uniform draw from
        :attr:`rng` (callers may pass draws fetched in one block).  The
        scaled cost, the penalty and the probability are computed, then
        the coin is flipped — exactly one draw per request, after every
        computation that may raise.  An opening adds the station and
        pays its unscaled cost; otherwise the walk is paid.  The
        destination then joins the KS live window, and every ``beta * k``
        arrivals the opening cost doubles and the penalty is re-selected.
        :meth:`offer`, :meth:`replay` and the serve path's block step
        all run here, so every path agrees bit for bit.

        Nothing is recorded: the serve path keeps no per-arrival trace.
        :meth:`offer` and :meth:`replay` record the decision.

        Returns:
            ``(station_id, opened, walking_cost, open_probability)``:
            the stable id of the assigned (or newly opened) station, and
            the fields of the same name in :class:`EsharingDecision`.
        """
        scaled_f = self._facility_cost(destination) * self._cost_scale
        g = self.penalty.value(c_ij)
        prob = 1.0 if scaled_f <= 0 else min(g * c_ij / scaled_f, 1.0)
        opened = draw() < prob and c_ij > 0
        if opened:
            nearest_id = self.station_set.add(destination)
            self.online_opened.append(nearest_id)
            self.space += self._facility_cost(destination)
            c_ij = 0.0
        else:
            self.walking += c_ij
        self._arrivals_since_check += 1
        self._live.push(destination.x, destination.y)
        if self._arrivals_since_check >= self._check_period:
            self._periodic_check()
        return nearest_id, opened, c_ij, prob

    def _record(
        self, destination: Point, decided: Tuple[int, bool, float, float]
    ) -> EsharingDecision:
        """Append :meth:`arrive`'s outcome to :attr:`decisions`, under
        the penalty in force after the arrival (and any periodic check
        it ran)."""
        decision = EsharingDecision(destination, *decided, self.penalty.name)
        self.decisions.append(decision)
        return decision

    def replay(self, stream: Sequence[Point]) -> List[EsharingDecision]:
        """Process a whole request stream: :meth:`offer` per element,
        with the nearest-station scan answered from a cache.

        Every arrival runs through :meth:`arrive` and is recorded in
        :attr:`decisions` as :meth:`offer` records it, so the checkpoint
        counter, the live window and the decision trace move exactly as
        in the per-call loop, and replays interleave freely with offers.
        What is saved is the per-arrival ``StationSet.nearest`` scan: a
        :class:`NearestCache` (vectorized up front, patched per opening)
        selects the station, and the decision distance is recomputed
        with the scalar ``Point.distance_to`` so every probability and
        walking sum matches the per-call path bit for bit (see
        ``core/replay.py``).  Coin flips are fetched in blocks, and the
        generator is settled after every return and raise, so a raise at
        arrival ``t`` leaves the planner as the per-call loop leaves it.

        ``stream`` may also be a :class:`~repro.core.tripblock.TripBlock`
        — its trip *end* coordinates are the request destinations, and
        the cache is seeded straight from the columnar arrays.

        Raises:
            ValueError: when no station is active, as :meth:`offer` does.
        """
        store = self.station_set
        if isinstance(stream, TripBlock):
            arrivals = (stream.end_x, stream.end_y)
            destinations = [
                Point(x, y)
                for x, y in zip(stream.end_x.tolist(), stream.end_y.tolist())
            ]
        else:
            destinations = list(stream)
            arrivals = destinations
        if not destinations:
            return []
        cache = NearestCache(arrivals, store.ids(), store.locations())
        uniforms = DrawStream(self._rng, len(destinations))
        arrive, record = self.arrive, self._record
        draw, location = uniforms.next, store.location
        out: List[EsharingDecision] = []
        try:
            for t, dest in enumerate(destinations):
                sid = int(cache.best_id[t])
                if sid < 0:
                    raise ValueError("nearest() on an empty StationSet")
                decided = arrive(dest, sid, dest.distance_to(location(sid)), draw)
                if decided[1]:
                    cache.open(t, dest, decided[0])
                out.append(record(dest, decided))
        finally:
            uniforms.settle()
        return out

    def remove_station(self, station_index: int) -> None:
        """Footnote 2: a station emptied of E-bikes leaves ``P``.

        ``station_index`` is the station's stable id.  The location may
        be re-opened by a later request (under a fresh id).  Space cost
        already paid is not refunded.

        Raises:
            IndexError: on an unknown or already-removed id.
        """
        if station_index not in self.station_set:
            raise IndexError(f"no active station with id {station_index}")
        self.station_set.remove(station_index)
        # Ids are stable, so surviving entries need no re-numbering.
        self.online_opened = [i for i in self.online_opened if i != station_index]
        self._removals += 1

    # ------------------------------------------------------------------
    def _periodic_check(self) -> None:
        """Lines 7-10: double the opening cost, re-test, switch penalty."""
        start = time.perf_counter()
        try:
            self._check()
        finally:
            self.ks_seconds += time.perf_counter() - start

    def _check(self) -> None:
        self._arrivals_since_check = 0
        self._cost_scale *= 2.0
        if len(self._live) < 5:
            return
        live = self._live.array()
        if self.config.exact_ks:
            result = ks2d_peacock(self._historical, live)
        else:
            result = self._ks_cache.test(live)
        similarity = result.similarity
        self.similarity_history.append(similarity)
        tolerance = self.config.tolerance_m
        if self.config.adaptive_tolerance:
            # Widen L proportionally to the measured divergence D.
            tolerance = self.config.tolerance_m * (1.0 + 2.0 * result.statistic)
        if self.config.fixed_penalty is None:
            self.penalty = select_penalty(similarity, tolerance=tolerance)
        elif tolerance != self.penalty.tolerance:
            self.penalty = self.penalty.with_tolerance(tolerance)
        if similarity >= SIMILAR_THRESHOLD:
            # Back in a known regime: re-arm the shift latch.
            self._shift_absorbed = False
        elif (
            self.config.reset_on_shift
            and not self._shift_absorbed
            and result.p_value < 0.05
        ):
            # A statistically significant regime shift re-opens the
            # budget once: without this the exponential doubling would
            # forbid stations at a surge arriving late in the stream.
            # The latch keeps the budget bounded during a sustained
            # shift (normal doubling resumes until similarity recovers),
            # and the significance gate filters the noisy similarity
            # readings that small live windows produce.
            self._cost_scale = self._initial_cost_scale
            self._shift_absorbed = True

    # ------------------------------------------------------------------
    def state_dict(self, include_history: bool = True) -> dict:
        """Checkpointable state for bit-identical crash recovery.

        Captures everything :meth:`offer` reads or writes — the station
        store, cost scale and doubling counter, penalty type and
        tolerance, KS live window, shift latch, and the RNG bit stream —
        so a planner rebuilt by :meth:`from_state` continues the run with
        the exact coin flips and checkpoint schedule the original would
        have used.  The opening-cost *function* is not serialisable (it
        is an arbitrary callable) and must be passed to
        :meth:`from_state` again.

        Args:
            include_history: also capture the traces (the decision
                trace and the per-check KS similarity history).  Neither
                feeds a later decision.  Without them the snapshot is
                O(state) instead of O(arrivals), at the price that
                :meth:`result` and :attr:`similarity_history` report only
                post-restore entries.
        """
        state = {
            "config": asdict(self.config),
            "k": self.k,
            "station_set": self.station_set.state_dict(),
            "historical": self._historical.tolist(),
            "cost_scale": self._cost_scale,
            "initial_cost_scale": self._initial_cost_scale,
            "shift_absorbed": self._shift_absorbed,
            "removals": self._removals,
            "arrivals_since_check": self._arrivals_since_check,
            "penalty": {"name": self.penalty.name, "tolerance": self.penalty.tolerance},
            "live": self._live.state_dict(),
            "rng": rng_to_state(self._rng),
            "walking": self.walking,
            "space": self.space,
            "online_opened": list(self.online_opened),
            "similarity_history": None,
            "decisions": None,
        }
        if include_history:
            state["similarity_history"] = list(self.similarity_history)
            state["decisions"] = [
                {
                    "destination": [d.destination.x, d.destination.y],
                    "station_index": d.station_index,
                    "opened": d.opened,
                    "walking_cost": d.walking_cost,
                    "open_probability": d.open_probability,
                    "penalty_name": d.penalty_name,
                }
                for d in self.decisions
            ]
        return state

    @classmethod
    def from_state(
        cls, state: dict, facility_cost: FacilityCostFn
    ) -> "EsharingPlanner":
        """Rebuild a planner from :meth:`state_dict` output.

        ``facility_cost`` must be the same *deterministic* function the
        original planner ran with — memoised random costs (e.g.
        :func:`~repro.core.costs.uniform_facility_cost` with a fresh RNG)
        would break bit identity for locations not yet drawn.

        Raises:
            KeyError: on a missing field or unknown penalty name.
            ValueError: on malformed nested state.
        """
        planner = cls.__new__(cls)
        planner.config = EsharingConfig(**state["config"])
        planner.station_set = StationSet.from_state(state["station_set"])
        planner.k = int(state["k"])
        planner._facility_cost = facility_cost
        planner._historical = np.asarray(state["historical"], dtype=float).reshape(-1, 2)
        planner._ks_cache = CachedKS2D(planner._historical)
        planner._rng = rng_from_state(state["rng"])
        planner._cost_scale = float(state["cost_scale"])
        planner._initial_cost_scale = float(state["initial_cost_scale"])
        planner._shift_absorbed = bool(state["shift_absorbed"])
        planner._removals = int(state["removals"])
        planner._arrivals_since_check = int(state["arrivals_since_check"])
        planner._check_period = planner.config.beta * planner.k
        penalty = state["penalty"]
        planner.penalty = PENALTY_REGISTRY[penalty["name"]](penalty["tolerance"])
        planner._live = LiveWindow.from_state(state["live"])
        planner.decisions = [
            EsharingDecision(
                destination=Point(float(d["destination"][0]), float(d["destination"][1])),
                station_index=int(d["station_index"]),
                opened=bool(d["opened"]),
                walking_cost=float(d["walking_cost"]),
                open_probability=float(d["open_probability"]),
                penalty_name=d["penalty_name"],
            )
            for d in (state["decisions"] or [])
        ]
        planner.walking = float(state["walking"])
        planner.space = float(state["space"])
        planner.online_opened = [int(i) for i in state["online_opened"]]
        planner.similarity_history = [
            float(s) for s in (state["similarity_history"] or [])
        ]
        # Wall-clock KS time is not state: snapshots written before it
        # left the state dict still carry it, and it is ignored.
        planner.ks_seconds = 0.0
        return planner

    # ------------------------------------------------------------------
    def result(self) -> PlacementResult:
        """Snapshot of the run as a :class:`PlacementResult`.

        The assignment and demands come from :attr:`decisions`, so this
        describes the requests fed through :meth:`offer` and
        :meth:`replay` only: a serving planner's block step records none.

        Raises:
            RuntimeError: if stations were removed during the run — the
                dense station list of a :class:`PlacementResult` cannot
                express retired ids.  Use
                :class:`~repro.core.streaming.PlacementService`, which
                reports through the stable ids directly.
        """
        if self._removals:
            raise RuntimeError(
                f"{self._removals} station(s) were removed; decision indices "
                "are stale — use PlacementService for id-stable accounting"
            )
        return PlacementResult(
            stations=self.stations,
            assignment=[d.station_index for d in self.decisions],
            walking=self.walking,
            space=self.space,
            demands=[DemandPoint(d.destination) for d in self.decisions],
            online_opened=list(self.online_opened),
        )


def esharing_placement(
    stream: Sequence[Point],
    offline_stations: Sequence[Point],
    facility_cost: FacilityCostFn,
    historical: np.ndarray,
    rng: np.random.Generator,
    config: Optional[EsharingConfig] = None,
) -> PlacementResult:
    """Run Algorithm 2 over a full request stream: one
    :meth:`EsharingPlanner.replay` of a fresh planner."""
    planner = EsharingPlanner(offline_stations, facility_cost, historical, rng, config)
    planner.replay(stream)
    return planner.result()
