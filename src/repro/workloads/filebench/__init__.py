"""Filebench-style workload profiles (webserver, webproxy, varmail, videoserver)."""

from .fileset import Fileset
from .profiles import (
    VarmailWorkload,
    VideoserverWorkload,
    WebproxyWorkload,
    WebserverWorkload,
)

__all__ = [
    "Fileset",
    "VarmailWorkload",
    "VideoserverWorkload",
    "WebproxyWorkload",
    "WebserverWorkload",
]
