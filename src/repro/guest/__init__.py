"""Guest-side stack: filesystem, guest OS, virtual machines, containers."""

from .filesystem import File, Filesystem
from .guestos import GuestOS
from .vm import Container, VirtualMachine

__all__ = [
    "Container",
    "File",
    "Filesystem",
    "GuestOS",
    "VirtualMachine",
]
