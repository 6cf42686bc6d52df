"""Simulation processes: generators driven by the environment.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.simkernel.events.Event`; the process is resumed with the
event's value once it triggers (or has the event's exception thrown into
it for failed events).  A process is itself an event that triggers when
the generator returns, which lets processes wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, Interrupt, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Besides being awaitable like any event, a process exposes
    :meth:`interrupt`, which raises :class:`Interrupt` inside the
    generator at its current wait point.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bound methods for the resume hot path (one attribute hop saved
        # per generator advance, ~1M+ advances per simulated minute).
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process currently waits on (``None`` when running
        #: or finished).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick-start the process at the current simulation time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """Event the process is currently suspended on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is an error; interrupting a process
        at the exact moment its awaited event fires delivers the interrupt
        first (the awaited event's value is lost to the process).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self.name} has terminated and cannot be interrupted")
        if self._target is None:
            raise RuntimeError(f"{self.name} is not suspended; cannot interrupt")
        # Detach from the awaited event and schedule the interrupt delivery.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        failure = Event(self.env)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        failure.callbacks.append(self._resume)
        self.env.schedule(failure, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._target = None
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                # Mark the failure as handled: it is being delivered.
                event.defuse()
                next_event = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(next_event, Event):
            error = RuntimeError(
                f"process {self.name!r} yielded {next_event!r}, "
                "which is not an Event"
            )
            self.fail(error)
            return
        if next_event.callbacks is None:
            # Already processed: resume immediately (next scheduler step).
            relay = Event(self.env)
            relay._ok = next_event._ok
            relay._value = next_event._value
            if not next_event._ok:
                next_event.defuse()
                relay._defused = True
            relay.callbacks.append(self._resume)
            self.env.schedule(relay, priority=0)
            self._target = relay
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
