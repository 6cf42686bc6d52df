"""A compact process-interaction discrete-event simulation kernel.

Provides everything the DoubleDecker reproduction needs: an event queue
with a float clock (:class:`Environment`), generator-based processes,
condition events, FIFO resources, bounded buffers, and deterministic named
random streams.
"""

from .core import Environment, StopSimulation
from .events import AllOf, AnyOf, ConditionEvent, Event, Interrupt, Timeout
from .process import Process
from .resources import Request, Resource, TokenBucket
from .rng import RandomStreams, zipf_ranks
from .timeline import Timeline

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "StopSimulation",
    "Timeline",
    "Timeout",
    "TokenBucket",
    "zipf_ranks",
]
