"""YCSB-style workload generator (Zipfian keys, read/update mixes)."""

from .core import RECORD_BYTES, YCSBWorkload

__all__ = ["RECORD_BYTES", "YCSBWorkload"]
