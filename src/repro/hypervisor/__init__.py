"""Host machine and hypervisor-side plumbing."""

from .host import Host

__all__ = ["Host"]
