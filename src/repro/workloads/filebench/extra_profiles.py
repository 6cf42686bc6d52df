"""Additional Filebench personalities beyond the four the paper uses.

``fileserver`` and ``oltp`` are the other two canonical Filebench
profiles; they broaden the workload library for users building their own
derivative-cloud scenarios.
"""

from __future__ import annotations

from typing import Optional

from ..base import Workload
from .fileset import Fileset

__all__ = ["FileserverWorkload", "OLTPWorkload"]


class FileserverWorkload(Workload):
    """Filebench ``fileserver``: a mixed read/write NFS-style server.

    Per op: create+write a file, read a whole file, append to another,
    delete one, stat-like touch (modelled as a 1-block read).  Write-heavier
    than webserver, colder reads than varmail, no fsync pressure.
    """

    def __init__(
        self,
        name: str = "fileserver",
        nfiles: int = 8000,
        mean_size_kb: float = 128.0,
        threads: int = 2,
        cpu_think_ms: float = 1.0,
    ) -> None:
        super().__init__(name, threads)
        self.nfiles = nfiles
        self.mean_size_kb = mean_size_kb
        self.cpu_think_ms = cpu_think_ms
        self.fileset: Optional[Fileset] = None

    def prepare(self):
        self.fileset = Fileset(
            self.container, self.nfiles, self.mean_size_kb, self.rng,
            name=f"{self.name}-files",
        )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        block_bytes = self.container.vm.block_bytes
        bytes_read = 0
        bytes_written = 0
        # create + write a replacement file
        old, new = self.fileset.replace()
        yield from self.container.delete(old)
        yield from self.container.write(new)
        bytes_written += new.nblocks * block_bytes
        # whole-file read
        file = self.fileset.pick()
        yield from self.container.read(file)
        bytes_read += file.nblocks * block_bytes
        # append to another
        target = self.fileset.pick()
        yield from self.container.write(target, 0, 1)
        bytes_written += block_bytes
        # stat-ish touch (first block)
        probe = self.fileset.pick()
        yield from self.container.read(probe, 0, 1)
        bytes_read += block_bytes
        if self.cpu_think_ms > 0:
            yield self.env.timeout(self.cpu_think_ms * 1e-3)
        return (bytes_read, bytes_written)


class OLTPWorkload(Workload):
    """Filebench ``oltp``: database-style small random IO on one big file
    plus a synchronous log writer.

    Reader threads issue small random reads against the datafile; every
    op also dirties a block, and a commit (log append + fsync) lands
    every ``commit_every`` ops — the latency-sensitive profile.
    """

    def __init__(
        self,
        name: str = "oltp",
        datafile_mb: float = 2048.0,
        threads: int = 4,
        read_blocks: int = 1,
        write_fraction: float = 0.3,
        commit_every: int = 4,
        cpu_think_ms: float = 0.2,
    ) -> None:
        super().__init__(name, threads)
        if not (0.0 <= write_fraction <= 1.0):
            raise ValueError(f"write_fraction must be in [0,1]: {write_fraction}")
        self.datafile_mb = datafile_mb
        self.read_blocks = read_blocks
        self.write_fraction = write_fraction
        self.commit_every = max(1, commit_every)
        self.cpu_think_ms = cpu_think_ms
        self._datafile = None
        self._log = None
        self._since_commit = 0

    def prepare(self):
        block_bytes = self.container.vm.block_bytes
        nblocks = max(1, int(self.datafile_mb * (1 << 20)) // block_bytes)
        self._datafile = self.container.create_file(
            nblocks, name=f"{self.name}-datafile"
        )
        log_blocks = max(16, (64 << 20) // block_bytes)
        self._log = self.container.create_file(
            1, name=f"{self.name}-log", append_slack=log_blocks
        )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        block_bytes = self.container.vm.block_bytes
        data = self._datafile
        start = self.rng.randrange(max(1, data.nblocks - self.read_blocks))
        yield from self.container.read(data, start, self.read_blocks)
        bytes_read = self.read_blocks * block_bytes
        bytes_written = 0
        if self.rng.random() < self.write_fraction:
            block = self.rng.randrange(data.nblocks)
            yield from self.container.write(data, block, 1)
            bytes_written += block_bytes
            self._since_commit += 1
            if self._since_commit >= self.commit_every:
                self._since_commit = 0
                yield from self.container.append(self._log, 1, sync=True)
                bytes_written += block_bytes
        if self.cpu_think_ms > 0:
            yield self.env.timeout(self.cpu_think_ms * 1e-3)
        return (bytes_read, bytes_written)
