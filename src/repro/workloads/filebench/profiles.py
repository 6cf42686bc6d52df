"""The four Filebench profiles the paper evaluates with.

Each is an operation-loop approximation of the corresponding Filebench
personality, preserving what matters for cache behaviour: dataset size,
read/write mix, whole-file vs streaming access, fsync pressure, and churn.

Defaults are sized for the paper's experiments (containers with ~1 GB
memory limits and a multi-GB hypervisor cache).  What the experiments
scale (file counts and sizes, threads, think time) is a constructor
argument; the rest of each personality is fixed.
"""

from __future__ import annotations

from typing import Optional

from ..base import Workload
from .fileset import Fileset

__all__ = [
    "WebserverWorkload",
    "WebproxyWorkload",
    "VarmailWorkload",
    "VideoserverWorkload",
]


class WebserverWorkload(Workload):
    """Filebench ``webserver``: whole-file reads of many small files plus a
    one-block log append.  Read-mostly; the classic page-cache-friendly
    workload."""

    def __init__(
        self,
        name: str = "webserver",
        nfiles: int = 4000,
        mean_size_kb: float = 128.0,
        threads: int = 2,
        reads_per_op: int = 10,
        cpu_think_ms: float = 1.0,
    ) -> None:
        super().__init__(name, threads)
        self.nfiles = nfiles
        self.mean_size_kb = mean_size_kb
        self.reads_per_op = reads_per_op
        self.cpu_think_ms = cpu_think_ms
        self.fileset: Optional[Fileset] = None
        self._log = None

    def prepare(self):
        self.fileset = Fileset(
            self.container, self.nfiles, self.mean_size_kb, self.rng,
            name=f"{self.name}-files",
        )
        # Circular log: 16 MB reserved so appends wrap instead of growing.
        log_blocks = max(16, (16 << 20) // self.container.vm.block_bytes)
        self._log = self.container.create_file(
            1, name=f"{self.name}-log", append_slack=log_blocks
        )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        block_bytes = self.container.vm.block_bytes
        bytes_read = 0
        for _ in range(self.reads_per_op):
            file = self.fileset.pick()
            yield from self.container.read(file)
            bytes_read += file.nblocks * block_bytes
        yield from self.container.append(self._log, 1)
        if self.cpu_think_ms > 0:
            yield self.env.timeout(self.cpu_think_ms * 1e-3)
        return (bytes_read, block_bytes)


class WebproxyWorkload(Workload):
    """Filebench ``webproxy``: read-heavy with object churn (delete +
    re-create), five whole-object reads and a log append per op — a
    caching proxy's disk cache."""

    READS_PER_OP = 5

    def __init__(
        self,
        name: str = "webproxy",
        nfiles: int = 4000,
        mean_size_kb: float = 64.0,
        threads: int = 2,
        cpu_think_ms: float = 1.0,
    ) -> None:
        super().__init__(name, threads)
        self.nfiles = nfiles
        self.mean_size_kb = mean_size_kb
        self.cpu_think_ms = cpu_think_ms
        self.fileset: Optional[Fileset] = None
        self._log = None

    def prepare(self):
        self.fileset = Fileset(
            self.container, self.nfiles, self.mean_size_kb, self.rng,
            name=f"{self.name}-objects",
        )
        log_blocks = max(16, (16 << 20) // self.container.vm.block_bytes)
        self._log = self.container.create_file(
            1, name=f"{self.name}-log", append_slack=log_blocks
        )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        block_bytes = self.container.vm.block_bytes
        # Replace one cached object: delete + create + write its content.
        old, new = self.fileset.replace()
        yield from self.container.delete(old)
        yield from self.container.write(new)
        bytes_written = new.nblocks * block_bytes
        bytes_read = 0
        for _ in range(self.READS_PER_OP):
            file = self.fileset.pick()
            yield from self.container.read(file)
            bytes_read += file.nblocks * block_bytes
        yield from self.container.append(self._log, 1)
        bytes_written += block_bytes
        if self.cpu_think_ms > 0:
            yield self.env.timeout(self.cpu_think_ms * 1e-3)
        return (bytes_read, bytes_written)


class VarmailWorkload(Workload):
    """Filebench ``varmail``: the mail-server profile — small files,
    create/delete churn, and fsync after every append (the disk-bound one)."""

    def __init__(
        self,
        name: str = "mail",
        nfiles: int = 4000,
        mean_size_kb: float = 32.0,
        threads: int = 2,
        cpu_think_ms: float = 0.5,
    ) -> None:
        super().__init__(name, threads)
        self.nfiles = nfiles
        self.mean_size_kb = mean_size_kb
        self.cpu_think_ms = cpu_think_ms
        self.fileset: Optional[Fileset] = None

    def prepare(self):
        self.fileset = Fileset(
            self.container, self.nfiles, self.mean_size_kb, self.rng,
            name=f"{self.name}-mbox",
        )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        block_bytes = self.container.vm.block_bytes
        bytes_read = 0
        bytes_written = 0
        # delete one message file, create a replacement and fsync it
        old, new = self.fileset.replace()
        yield from self.container.delete(old)
        yield from self.container.write(new, sync=True)
        bytes_written += new.nblocks * block_bytes
        # read a message then append-and-fsync to it (reply)
        file = self.fileset.pick()
        yield from self.container.read(file)
        bytes_read += file.nblocks * block_bytes
        yield from self.container.write(file, 0, 1, sync=True)
        bytes_written += block_bytes
        # read another message whole
        file2 = self.fileset.pick()
        yield from self.container.read(file2)
        bytes_read += file2.nblocks * block_bytes
        if self.cpu_think_ms > 0:
            yield self.env.timeout(self.cpu_think_ms * 1e-3)
        return (bytes_read, bytes_written)


class VideoserverWorkload(Workload):
    """Filebench ``videoserver``: streaming sequential reads of large
    files, plus a writer refreshing the passive set.  The IO-volume hog.

    One *op* is one streamed chunk (:attr:`CHUNK_BLOCKS`), so op latency
    is a per-request service time and MB/s is the headline number.
    """

    CHUNK_BLOCKS = 16
    #: Zipf skew of video popularity.
    POPULARITY_THETA = 0.9

    def __init__(
        self,
        name: str = "videoserver",
        nvideos: int = 12,
        video_mb: float = 256.0,
        threads: int = 4,
        stream_pace_ms: float = 1.0,
        writer_interval_s: float = 60.0,
    ) -> None:
        super().__init__(name, threads)
        self.nvideos = nvideos
        self.video_mb = video_mb
        self.stream_pace_ms = stream_pace_ms
        self.writer_interval_s = writer_interval_s
        self.videos = []
        self._positions = {}
        self._writer_proc = None
        self._popularity = None

    def prepare(self):
        block_bytes = self.container.vm.block_bytes
        blocks = max(1, int(self.video_mb * (1 << 20)) // block_bytes)
        self.videos = [
            self.container.create_file(blocks, name=f"{self.name}-vid{i}")
            for i in range(self.nvideos)
        ]
        if self.nvideos > 1:
            from ...simkernel import zipf_ranks

            self._popularity = zipf_ranks(
                self.rng, self.nvideos, self.POPULARITY_THETA
            )
        if self.writer_interval_s > 0:
            self._writer_proc = self.env.process(
                self._writer(), name=f"{self.name}-writer"
            )
        return
        yield  # pragma: no cover

    def run_op(self, tid: int):
        block_bytes = self.container.vm.block_bytes
        state = self._positions.get(tid)
        if state is None or state[1] >= state[0].nblocks:
            if self._popularity is not None:
                video = self.videos[self._popularity() % len(self.videos)]
            else:
                video = self.rng.choice(self.videos)
            state = [video, 0]
            self._positions[tid] = state
        video, position = state
        nblocks = min(self.CHUNK_BLOCKS, video.nblocks - position)
        yield from self.container.read(video, position, nblocks)
        state[1] = position + nblocks
        if self.stream_pace_ms > 0:
            yield self.env.timeout(self.stream_pace_ms * 1e-3)
        return (nblocks * block_bytes, 0)

    def _writer(self):
        """Background ingest: periodically write a fresh (passive) video."""
        from ...simkernel import Interrupt

        block_bytes = self.container.vm.block_bytes
        blocks = max(1, int(self.video_mb * (1 << 20)) // block_bytes)
        serial = 0
        try:
            while True:
                yield self.env.timeout(self.writer_interval_s)
                serial += 1
                fresh = self.container.create_file(
                    blocks, name=f"{self.name}-ingest{serial}"
                )
                # Buffered streaming write in chunks.
                position = 0
                while position < blocks:
                    n = min(self.CHUNK_BLOCKS, blocks - position)
                    yield from self.container.write(fresh, position, n)
                    position += n
                    yield self.env.timeout(self.stream_pace_ms * 1e-3)
                self.counters.bytes_written += blocks * block_bytes
                # Retire it again: the passive set does not accumulate.
                yield from self.container.delete(fresh)
        except Interrupt:
            return

    def stop(self) -> None:
        if self._writer_proc is not None and self._writer_proc.is_alive:
            self._writer_proc.interrupt("stop")
            self._writer_proc = None
        super().stop()
