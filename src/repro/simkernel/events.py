"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the :class:`~repro.simkernel.core.Environment` resumes a process when the
event it is waiting on is triggered.

An :class:`Event` moves through three states:

``pending``
    created, not yet triggered; callbacks may be attached.
``triggered``
    a value (or exception) has been set and the event is scheduled on the
    environment's queue.
``processed``
    the environment has popped the event and run its callbacks.

Only the event types this project schedules are implemented: plain
events, timeouts and process-completion events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .core import Environment

#: NORMAL scheduling priority (mirrors :data:`repro.simkernel.core.NORMAL`;
#: duplicated here because ``core`` imports this module).
_NORMAL = 1

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Interrupt",
]


class _PendingType:
    """Sentinel for "event has no value yet"; compares only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Unique sentinel used as the value of untriggered events.
PENDING = _PendingType()


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A single occurrence that processes can wait for.

    Events are triggered with :meth:`succeed` or :meth:`fail`.  Triggering
    schedules the event on the environment queue; when the environment
    processes it, all attached callbacks run (in attach order).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.  Set to
        #: ``None`` after processing, which doubles as the "processed" flag.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        # A failed event whose exception was delivered to at least one
        # process is "defused"; undefused failures crash the simulation.
        self._defused: bool = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether a value or exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the environment has already run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): triggering is the kernel's hottest
        # entry point, so skip the method call and delay arithmetic.
        env = self.env
        env._push((env._now, _NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event receives the exception via
        ``generator.throw``.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._push((env._now, _NORMAL, next(env._eid), self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    ``then`` is a second delay served back to back with the first (see
    :meth:`Environment.timeout <repro.simkernel.core.Environment.timeout>`).
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 then: float = 0.0) -> None:
        # The schedule/fire cycle of timeouts dominates most simulations,
        # so initialize the Event fields and enqueue directly instead of
        # chaining through Event.__init__ and env.schedule.  ``then`` is
        # tested before it is added: a float add allocates, and most
        # timeouts have none.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        at = env._now + delay
        if then:
            if then < 0:
                raise ValueError(f"negative delay {then}")
            at += then
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        env._push((at, _NORMAL, next(env._eid), self))
