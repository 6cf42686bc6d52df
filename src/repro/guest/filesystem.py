"""A minimal guest filesystem: inodes and extents.

Only what disk-cache behaviour needs: each file has an inode, a length in
blocks, and a contiguous extent on the virtual disk (so sequential file
reads become sequential disk reads).  File data content is never stored —
the simulation tracks identity and placement of blocks, not bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["File", "Filesystem"]

#: Extra extent slack reserved at creation so appends stay contiguous.
_APPEND_SLACK = 4


class File:
    """One regular file."""

    __slots__ = ("inode", "nblocks", "disk_start", "max_blocks", "hv_pool_id",
                 "name")

    def __init__(
        self,
        inode: int,
        nblocks: int,
        disk_start: int,
        max_blocks: int,
        name: str = "",
    ) -> None:
        self.inode = inode
        self.nblocks = nblocks
        self.disk_start = disk_start
        self.max_blocks = max_blocks
        #: The hypervisor-cache pool currently holding this file's blocks
        #: (None when unknown); used to trigger MIGRATE_OBJECT on sharing.
        self.hv_pool_id: Optional[int] = None
        self.name = name

    def keys(self, start: int = 0, nblocks: Optional[int] = None) -> List[Tuple[int, int]]:
        """Block keys for the range ``[start, start + nblocks)``."""
        if nblocks is None:
            nblocks = self.nblocks - start
        end = min(self.nblocks, start + nblocks)
        return [(self.inode, block) for block in range(start, end)]

    def disk_offset(self, block: int) -> int:
        """Virtual-disk block number backing file ``block``."""
        return self.disk_start + block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<File inode={self.inode} {self.name!r} {self.nblocks}blk>"


class Filesystem:
    """Inode/extent allocator for one VM's virtual disk.

    ``disk_base`` offsets each VM's extents into its own region of the
    shared host disk, so cross-VM streams do not appear sequential.
    """

    def __init__(self, disk_base: int = 0) -> None:
        self.files: Dict[int, File] = {}
        self._next_inode = 1
        self._next_extent = disk_base

    def create_file(
        self,
        nblocks: int,
        name: str = "",
        append_slack: int = _APPEND_SLACK,
    ) -> File:
        """Allocate a file of ``nblocks`` with room for some appends."""
        if nblocks < 0:
            raise ValueError(f"nblocks must be non-negative, got {nblocks}")
        max_blocks = nblocks + max(0, append_slack)
        file = File(
            inode=self._next_inode,
            nblocks=nblocks,
            disk_start=self._next_extent,
            max_blocks=max_blocks,
            name=name,
        )
        self._next_inode += 1
        self._next_extent += max(1, max_blocks)
        self.files[file.inode] = file
        return file

    def extend_file(self, file: File, nblocks: int) -> int:
        """Append ``nblocks``; returns the first new block offset.

        Appends beyond the reserved extent wrap within it (the workload
        models treat log files as circular, which keeps disk layout sane).
        """
        if nblocks <= 0:
            raise ValueError(f"nblocks must be positive, got {nblocks}")
        start = file.nblocks
        file.nblocks = min(file.max_blocks, file.nblocks + nblocks)
        if file.nblocks == file.max_blocks and start >= file.max_blocks:
            # Fully wrapped: overwrite from the beginning.
            start = 0
        return min(start, max(0, file.nblocks - nblocks))

    def delete_file(self, file: File) -> None:
        """Remove a file (page-cache/cleancache invalidation is the guest
        OS's job and must happen first)."""
        self.files.pop(file.inode, None)

    def get(self, inode: int) -> Optional[File]:
        return self.files.get(inode)

    def __len__(self) -> int:
        return len(self.files)
