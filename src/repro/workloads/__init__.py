"""Workload models: Filebench profiles, YCSB, and application models."""

from .apps import MongoWorkload, MySQLWorkload, RedisWorkload
from .base import CounterSnapshot, Workload, WorkloadCounters
from .filebench import (
    Fileset,
    VarmailWorkload,
    VideoserverWorkload,
    WebproxyWorkload,
    WebserverWorkload,
)
from .ycsb import YCSBWorkload

__all__ = [
    "CounterSnapshot",
    "Fileset",
    "MongoWorkload",
    "MySQLWorkload",
    "RedisWorkload",
    "VarmailWorkload",
    "VideoserverWorkload",
    "WebproxyWorkload",
    "WebserverWorkload",
    "Workload",
    "WorkloadCounters",
    "YCSBWorkload",
]
