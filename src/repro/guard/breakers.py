"""Circuit breakers with deterministic, replay-safe backoff.

The online tier leans on subsystems that can wedge or throw
independently of the placement math: the periodic Peacock KS-2D test
and the Tier-2 incentive mechanism.  A breaker isolates each one
behind the classic three-state machine —

* **closed**: calls pass through; ``failure_threshold`` *consecutive*
  failures trip it open;
* **open**: calls are refused for a cooldown measured in *events*
  (breaker calls), not wall-clock seconds, so a replay of the same
  stream trips, backs off, and recovers at exactly the same positions;
* **half-open**: after the cooldown one probe call is let through — a
  success closes the breaker, a failure re-opens it with the cooldown
  doubled (capped), plus a small *seeded* jitter so co-located breakers
  do not retry in lockstep.  The jitter RNG is seeded per breaker and
  only consumed on failures, which keeps fault-free runs bit-identical
  to unguarded ones.

Refused or failed calls return the configured fallback; the per-subsystem
fallbacks implement the paper-side degradations: the KS wrapper repeats
the last accepted test result (so the planner keeps its last accepted
penalty type) and the incentive wrapper answers "no offer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..errors import BreakerOpenError
from ..incentives.mechanism import IncentiveMechanism, OfferOutcome
from ..stats.ks2d import CachedKS2D, KSResult

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "GuardedKS2D",
    "GuardedIncentives",
]

#: Breaker states (plain strings so they serialise and print cleanly).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery policy of a :class:`CircuitBreaker`.

    Attributes:
        failure_threshold: consecutive failures that trip the breaker.
        cooldown_events: refused calls before the first half-open probe.
        max_cooldown_events: cap on the doubled cooldown.
        jitter_events: upper bound (inclusive) on the seeded random
            extra cooldown added each time the breaker opens.
        seed: jitter RNG seed — identical configs back off identically.

    Raises:
        ValueError: on non-positive thresholds/cooldowns or a negative
            jitter.
    """

    failure_threshold: int = 3
    cooldown_events: int = 8
    max_cooldown_events: int = 64
    jitter_events: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {self.failure_threshold}"
            )
        if self.cooldown_events <= 0 or self.max_cooldown_events < self.cooldown_events:
            raise ValueError(
                f"need 0 < cooldown_events <= max_cooldown_events, got "
                f"{self.cooldown_events}/{self.max_cooldown_events}"
            )
        if self.jitter_events < 0:
            raise ValueError(f"jitter_events must be >= 0, got {self.jitter_events}")


class CircuitBreaker:
    """Three-state breaker whose clock is the call counter.

    Args:
        name: label used in incidents and transition history.
        config: trip/backoff policy.
        on_transition: optional observer called with
            ``(name, old_state, new_state, call_index)`` — the guarded
            runtime hangs its incident log here.
    """

    def __init__(
        self,
        name: str,
        config: Optional[BreakerConfig] = None,
        on_transition: Optional[Callable[[str, str, str, int], None]] = None,
    ) -> None:
        self.name = name
        self.config = config or BreakerConfig()
        self.on_transition = on_transition
        self.state = CLOSED
        self.suspended = False  # ladder rung >= 1: refuse without tripping
        self.calls = 0
        self.failures = 0  # consecutive, resets on success
        self.total_failures = 0
        self.refused = 0
        self.fallbacks = 0
        self._cooldown = self.config.cooldown_events
        self._reopen_at = 0  # call index at which half-open probing starts
        self._rng = np.random.default_rng(self.config.seed)
        self.transitions: List[tuple] = []

    # ------------------------------------------------------------------
    def _move(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old, self.state = self.state, new_state
        self.transitions.append((old, new_state, self.calls))
        if self.on_transition is not None:
            self.on_transition(self.name, old, new_state, self.calls)

    def _trip_open(self) -> None:
        jitter = 0
        if self.config.jitter_events:
            jitter = int(self._rng.integers(0, self.config.jitter_events + 1))
        self._reopen_at = self.calls + self._cooldown + jitter
        self._cooldown = min(self._cooldown * 2, self.config.max_cooldown_events)
        self._move(OPEN)

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """True while the breaker lets real calls through."""
        return self.state != OPEN and not self.suspended

    def suspend(self) -> None:
        """Administratively refuse calls without touching the state
        machine — the degradation ladder's "defer this subsystem".

        Refused calls take the configured fallback exactly as an open
        breaker's would, but the state stays wherever it was and the
        event clock keeps counting, so resuming continues the breaker's
        own history unperturbed.
        """
        self.suspended = True

    def resume(self) -> None:
        """Lift an administrative suspension."""
        self.suspended = False

    def admit(self) -> bool:
        """Count one call and decide whether the subsystem may be hit.

        ``False`` means refused: the breaker is suspended (ladder), or
        open and its cooldown has not elapsed.  ``True`` either passes
        a closed breaker or grants the single half-open probe — the
        caller must then report back via :meth:`success` or
        :meth:`failure`.
        """
        self.calls += 1
        if self.suspended:
            self.refused += 1
            return False
        if self.state == OPEN:
            if self.calls >= self._reopen_at:
                self._move(HALF_OPEN)
                return True
            self.refused += 1
            return False
        return True

    def failure(self) -> None:
        """Report that an admitted call failed."""
        self.failures += 1
        self.total_failures += 1
        if self.state == HALF_OPEN or self.failures >= self.config.failure_threshold:
            self._trip_open()

    def success(self) -> None:
        """Report that an admitted call succeeded."""
        self.failures = 0
        if self.state in (HALF_OPEN, OPEN):
            self._cooldown = self.config.cooldown_events
        self._move(CLOSED)

    def call(self, fn: Callable[..., Any], *args: Any, fallback: Any = ...) -> Any:
        """Route one call through the breaker.

        While open (and before the cooldown elapses) ``fn`` is not
        invoked at all; the fallback is returned instead.  A failure of
        ``fn`` is absorbed the same way.  ``fallback`` may be a value or
        a zero-argument callable (evaluated lazily).

        Raises:
            BreakerOpenError: a refused/failed call with no fallback
                configured.
        """
        if not self.admit():
            return self._fall_back(fallback, refused=True)
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 — the point of a breaker
            self.failure()
            return self._fall_back(fallback, cause=exc)
        self.success()
        return result

    def _fall_back(
        self, fallback: Any, refused: bool = False, cause: Optional[Exception] = None
    ) -> Any:
        if fallback is ...:
            detail = "refused while open" if refused else f"call failed: {cause}"
            raise BreakerOpenError(f"breaker {self.name!r}: {detail}") from cause
        self.fallbacks += 1
        return fallback() if callable(fallback) else fallback


# ----------------------------------------------------------------------
class GuardedKS2D:
    """Breaker-guarded drop-in for the planner's :class:`CachedKS2D`.

    Degradation: while the KS subsystem is broken the *last accepted*
    result is repeated, so :meth:`EsharingPlanner._check` re-selects the
    penalty type it already runs — exactly "fall back to the last
    accepted penalty type".  Before any test has succeeded, the fallback
    is a perfect-similarity result (statistic 0), i.e. "assume the live
    stream still matches history".
    """

    def __init__(self, inner: CachedKS2D, breaker: CircuitBreaker) -> None:
        self.inner = inner
        self.breaker = breaker
        self.last_good: Optional[KSResult] = None

    @property
    def historical(self) -> np.ndarray:
        """The fixed historical sample (delegated)."""
        return self.inner.historical

    def _fallback(self, n_live: int) -> KSResult:
        if self.last_good is not None:
            return self.last_good
        return KSResult(
            statistic=0.0, n1=self.inner.historical.shape[0],
            n2=n_live, p_value=1.0,
        )

    def test(self, live: Sequence) -> KSResult:
        """Guarded KS test; never raises, always returns a result."""
        n_live = int(np.asarray(live).shape[0])
        result = self.breaker.call(
            self.inner.test, live, fallback=lambda: self._fallback(n_live)
        )
        if self.breaker.state == CLOSED and self.breaker.failures == 0:
            self.last_good = result
        return result


class GuardedIncentives:
    """Breaker-guarded wrapper over an :class:`IncentiveMechanism`.

    Degradation: "no offer" — riders simply are not asked to relocate
    low-battery bikes while the Tier-2 mechanism is broken, which is
    safe (the fleet mutates only on an accepted offer).
    """

    NO_OFFER = OfferOutcome.no_offer("breaker open")

    def __init__(self, inner: IncentiveMechanism, breaker: CircuitBreaker) -> None:
        self.inner = inner
        self.breaker = breaker

    def offer_ride(self, origin: int, destination: int, final_destination) -> OfferOutcome:
        """Guarded offer; never raises, degrades to no-offer."""
        return self.breaker.call(
            self.inner.offer_ride, origin, destination, final_destination,
            fallback=self.NO_OFFER,
        )

