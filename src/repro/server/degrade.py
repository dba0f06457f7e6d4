"""Graceful degradation: hysteretic read-only mode under sustained load.

The server tracks an EWMA of *overload sheds* (queue-full,
deadline-unmeetable, expired-in-queue — not the sheds degradation
itself causes).  When the EWMA crosses ``enter_threshold`` the server
enters **degraded mode**: read-only stock checks keep flowing, writes
are shed with a ``degraded-writes`` retry hint.  Recovery is
hysteretic: the mode is held for at least ``min_dwell`` seconds and
only exits once the EWMA falls below the (lower) ``exit_threshold``,
so the server cannot flap at the boundary.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["DegradeConfig", "DegradationController"]


@dataclass(frozen=True)
class DegradeConfig:
    """Tuning knobs for :class:`DegradationController`."""

    #: EWMA smoothing factor per observation.
    alpha: float = 0.05
    #: Shed-ratio EWMA above which the server degrades.
    enter_threshold: float = 0.5
    #: Shed-ratio EWMA below which a dwelled-out server recovers.
    exit_threshold: float = 0.1
    #: Minimum seconds to stay degraded before recovery is considered.
    min_dwell: float = 0.5

    def validate(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 < self.exit_threshold < self.enter_threshold <= 1:
            raise ValueError(
                "need 0 < exit_threshold < enter_threshold <= 1, got "
                f"exit={self.exit_threshold} enter={self.enter_threshold}"
            )
        if self.min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {self.min_dwell}")


class DegradationController:
    """EWMA overload tracker with hysteretic enter/exit transitions."""

    def __init__(
        self,
        config: Optional[DegradeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or DegradeConfig()
        self.config.validate()
        self._clock = clock
        self._lock = threading.Lock()
        self._ewma = 0.0
        self._degraded = False
        self._entered_at = 0.0
        self.entered_count = 0
        self.exited_count = 0
        # Peak of the EWMA since the last metrics reset (the gauge's hwm).
        self._ewma_peak = 0.0
        self._degraded_gauge = None
        self._entered_counter = None
        self._exited_counter = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """``degrade.shed_ewma`` is kept under this controller's lock and
        collected at snapshot; the mode gauge and the transition
        counters are pushed when a transition happens."""
        self._degraded_gauge = registry.gauge("server.degraded")
        self._entered_counter = registry.counter("degrade.entered")
        self._exited_counter = registry.counter("degrade.exited")
        registry.add_collector(self._collect, self._restart_peak)

    def _collect(self) -> dict:
        with self._lock:
            return {"degrade.shed_ewma": (self._ewma, self._ewma_peak)}

    def _restart_peak(self) -> None:
        with self._lock:
            self._ewma_peak = self._ewma

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    @property
    def shed_ewma(self) -> float:
        with self._lock:
            return self._ewma

    def observe(self, overloaded: bool) -> Optional[bool]:
        """Fold one admission outcome into the EWMA; maybe transition.

        *overloaded* is True for an overload shed, False for an admit.
        Returns the new mode when a transition happened (True =
        degraded, False = recovered), else None.
        """
        with self._lock:
            alpha = self.config.alpha
            self._ewma = (1 - alpha) * self._ewma + alpha * (1.0 if overloaded else 0.0)
            if self._ewma > self._ewma_peak:
                self._ewma_peak = self._ewma
            if not self._degraded:
                if self._ewma >= self.config.enter_threshold:
                    self._degraded = True
                    self._entered_at = self._clock()
                    self.entered_count += 1
                    if self._entered_counter is not None:
                        self._entered_counter.inc()
                    if self._degraded_gauge is not None:
                        self._degraded_gauge.set(1)
                    return True
                return None
            dwelled = self._clock() - self._entered_at >= self.config.min_dwell
            if dwelled and self._ewma <= self.config.exit_threshold:
                self._degraded = False
                self.exited_count += 1
                if self._exited_counter is not None:
                    self._exited_counter.inc()
                if self._degraded_gauge is not None:
                    self._degraded_gauge.set(0)
                return False
            return None

    def force(self, degraded: bool) -> None:
        """Pin the mode (tests, operator override); resets the dwell clock."""
        with self._lock:
            if degraded and not self._degraded:
                self.entered_count += 1
                if self._entered_counter is not None:
                    self._entered_counter.inc()
            elif not degraded and self._degraded:
                self.exited_count += 1
                if self._exited_counter is not None:
                    self._exited_counter.inc()
            self._degraded = degraded
            self._entered_at = self._clock()
            if self._degraded_gauge is not None:
                self._degraded_gauge.set(1 if degraded else 0)
