"""Storage device models: HDD, SSD, and memory-copy cost specs."""

from .device import SSD, BlockDevice, DeviceStats, HDD, block_runs
from .specs import KB, MB, HDDSpec, MemSpec, SSDSpec

__all__ = [
    "KB",
    "MB",
    "BlockDevice",
    "DeviceStats",
    "HDD",
    "HDDSpec",
    "MemSpec",
    "SSD",
    "SSDSpec",
    "block_runs",
]
