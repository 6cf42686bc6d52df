"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from itertools import count
from typing import Any, Generator, Optional

from .events import AllOf, Event, Timeout
from .process import Process
from .timeline import Timeline

__all__ = ["Environment", "StopSimulation"]

#: Scheduling priorities: URGENT events (process bootstraps, interrupts)
#: run before NORMAL events scheduled for the same instant.
URGENT = 0
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at a target event."""


class Environment:
    """Coordinates simulated time and event execution.

    Time is a float; the unit is defined by convention (this project uses
    **seconds** everywhere).  Typical use::

        env = Environment()
        env.process(some_generator())
        env.run(until=3600)
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._timeline = Timeline()
        #: Bound push method; the event classes enqueue through this to
        #: skip two attribute hops on the hottest call in the kernel.
        self._push = self._timeline.push
        self._eid = count()

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    # -- event constructors -------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                then: float = 0.0) -> Timeout:
        """An event that fires ``delay`` seconds from now, plus ``then``.

        ``timeout(a, then=b)`` fires at ``(now + a) + b``, bit for bit
        the instant ``timeout(a)`` followed by ``timeout(b)`` reaches.
        """
        return Timeout(self, delay, value, then)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, list(events))

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        self._push((self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._timeline.peek_time()

    # -- run loop -------------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is empty;
        * a number — run until simulated time reaches it exactly;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                stop_time = float(until)
                if stop_time < self._now:
                    raise ValueError(
                        f"until ({stop_time}) must not be before current "
                        f"time ({self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                # NORMAL priority so that all URGENT work at `until` runs.
                self.schedule(stop_event, delay=stop_time - self._now)
            stop_event.callbacks.append(_stop_callback)

        # One inlined loop, no per-event method: the per-event work is
        # tiny (often one callback), so a method call and attribute
        # lookups per event would dominate.  The timeline's pop is bound
        # to a local and signals exhaustion with None, which is cheaper to
        # test per event than catching IndexError.
        pop = self._timeline.pop
        try:
            while True:
                entry = pop()
                if entry is None:
                    break
                self._now, _, _, event = entry

                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if callbacks:
                    for callback in callbacks:
                        callback(event)

                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc if isinstance(exc, BaseException) else RuntimeError(exc)
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None

        # The schedule ran dry before the stop condition.
        if stop_event is not None and not stop_event.processed:
            if stop_time is not None:
                # Nothing left to simulate: just advance the clock.
                self._now = stop_time
                return None
            raise RuntimeError(
                "run() stop event was never triggered and the schedule is empty"
            )
        return None


def _stop_callback(event: Event) -> None:
    if event.ok:
        raise StopSimulation(event.value)
    raise event.value
