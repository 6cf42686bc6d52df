"""A compact process-interaction discrete-event simulation kernel.

Provides everything the DoubleDecker reproduction needs: an event queue
with a float clock (:class:`Environment`), generator-based processes,
FIFO resources, and deterministic named random streams.
"""

from .core import Environment, StopSimulation
from .events import Event, Interrupt, Timeout
from .process import Process
from .resources import Request, Resource
from .rng import RandomStreams, zipf_ranks
from .timeline import Timeline

__all__ = [
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
    "zipf_ranks",
]
