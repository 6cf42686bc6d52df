"""YCSB-style key-value workload machinery.

Provides the Zipfian request distribution and the read/update op mix; the
data-store *behaviour* (where records live: anon memory, buffer pool,
mmap'd files) is supplied by the application models in
:mod:`repro.workloads.apps`.
"""

from __future__ import annotations


from ...simkernel import zipf_ranks
from ..base import Workload

__all__ = ["YCSBWorkload", "RECORD_BYTES"]

#: YCSB's Zipfian request skew.
ZIPF_THETA = 0.99
#: One record (YCSB's default 10 fields x 100 bytes, rounded to 1 KiB).
RECORD_BYTES = 1024


class YCSBWorkload(Workload):
    """Base for YCSB-driven data stores.

    Subclasses implement :meth:`do_read` / :meth:`do_update` (generators)
    over ``nrecords`` records of :data:`RECORD_BYTES`; this class draws
    keys (Zipfian, YCSB's default ``theta = 0.99``) and applies the app's
    read fraction.  Each op ends with its CPU cost, :attr:`cpu_s`
    (``cpu_us_per_op``), which the app model serves itself:
    folded into its last guest wait (``then=``) when nothing another
    process can see runs after that wait, as a trailing timeout otherwise.
    """

    def __init__(
        self,
        name: str,
        nrecords: int,
        threads: int,
        read_fraction: float,
        cpu_us_per_op: float,
    ) -> None:
        super().__init__(name, threads)
        if not (0.0 <= read_fraction <= 1.0):
            raise ValueError(f"read_fraction must be in [0,1], got {read_fraction}")
        if cpu_us_per_op < 0:
            raise ValueError(f"cpu_us_per_op must be >= 0, got {cpu_us_per_op}")
        self.nrecords = nrecords
        self.read_fraction = read_fraction
        self.cpu_us_per_op = cpu_us_per_op
        self._zipf = None

    @property
    def cpu_s(self) -> float:
        """One op's CPU cost in seconds."""
        return self.cpu_us_per_op * 1e-6

    def start(self, container, streams) -> None:
        super().start(container, streams)
        self._zipf = zipf_ranks(self.rng, self.nrecords, ZIPF_THETA)

    def next_key(self) -> int:
        """Draw the next record key (Zipfian rank, scattered).

        YCSB scatters ranks over the keyspace with an FNV hash so the hot
        records are not physically adjacent; we do the same so hot keys
        spread across pages/blocks.
        """
        rank = self._zipf()
        return _fnv_scatter(rank) % self.nrecords

    def run_op(self, tid: int):
        key = self.next_key()
        if self.rng.random() < self.read_fraction:
            return (yield from self.do_read(key))
        return (yield from self.do_update(key))

    def spend_cpu(self):
        """Serve :attr:`cpu_s` as its own timeout (the unfolded sites)."""
        if self.cpu_us_per_op > 0:
            yield self.env.timeout(self.cpu_s)

    # -- to implement by app models ------------------------------------------

    def do_read(self, key: int):
        """Read ``key``, then serve :attr:`cpu_s`."""
        raise NotImplementedError
        yield  # pragma: no cover

    def do_update(self, key: int):
        """Update ``key``, then serve :attr:`cpu_s`."""
        raise NotImplementedError
        yield  # pragma: no cover


_FNV_PRIME = 0x100000001B3
_FNV_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1
#: ``_FNV_TAIL[k]``: what the 8 - k zero high bytes of a k-byte value do
#: to the state (xor with zero is a no-op, leaving one multiply each).
_FNV_TAIL = tuple(pow(_FNV_PRIME, 8 - k, 1 << 64) for k in range(9))


def _fnv_scatter(value: int) -> int:
    """64-bit FNV-1a over the 8 little-endian bytes of ``value`` in
    ``[0, 2**64)`` (YCSB's key-scattering hash).

    Only the bytes up to the highest non-zero one run the loop; the zero
    bytes above them collapse into one multiply by ``_FNV_TAIL[k]``.
    """
    state = _FNV_OFFSET
    k = 0
    while value > 0:
        state = ((state ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
        value >>= 8
        k += 1
    return (state * _FNV_TAIL[k]) & _MASK64
