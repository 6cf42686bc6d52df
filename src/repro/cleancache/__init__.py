"""Guest-side second-chance cache interface (Linux cleancache analogue)."""

from .client import CleancacheClient
from .hypercall import HypercallChannel

__all__ = ["CleancacheClient", "HypercallChannel"]
