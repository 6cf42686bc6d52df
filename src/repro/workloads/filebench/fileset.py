"""Filesets: populations of files with a size distribution (Filebench-style)."""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from ...guest import Container, File

__all__ = ["Fileset"]

#: Shape of the file-size gamma distribution (Filebench's default).
GAMMA_SHAPE = 1.5


class Fileset:
    """A set of files owned by one container.

    Sizes are drawn from a gamma distribution around ``mean_size_kb``
    (Filebench's default shape) and rounded up to whole blocks.
    """

    def __init__(
        self,
        container: Container,
        nfiles: int,
        mean_size_kb: float,
        rng: random.Random,
        name: str = "fileset",
    ) -> None:
        if nfiles < 1:
            raise ValueError(f"need at least one file, got {nfiles}")
        self.container = container
        self.block_bytes = container.vm.block_bytes
        self.rng = rng
        self.name = name
        self.mean_size_kb = mean_size_kb
        self.files: List[File] = [
            self._make_file(f"{name}.{i}") for i in range(nfiles)
        ]
        self._serial = nfiles

    def _sample_blocks(self) -> int:
        scale = self.mean_size_kb / GAMMA_SHAPE
        size_kb = max(1.0, self.rng.gammavariate(GAMMA_SHAPE, scale))
        return max(1, math.ceil(size_kb * 1024 / self.block_bytes))

    def _make_file(self, name: str) -> File:
        return self.container.create_file(
            self._sample_blocks(), name=name, append_slack=0
        )

    # -- operations -----------------------------------------------------------

    def pick(self) -> File:
        """A uniformly random live file."""
        return self.rng.choice(self.files)

    def replace(self) -> Tuple[File, File]:
        """Delete a random file and create a fresh one (proxy/mail churn).

        Returns ``(old, new)``; the caller must run the guest-OS delete for
        ``old`` (a generator) itself.
        """
        idx = self.rng.randrange(len(self.files))
        old = self.files[idx]
        self._serial += 1
        new = self._make_file(f"{self.name}.{self._serial}")
        self.files[idx] = new
        return old, new

    @property
    def total_blocks(self) -> int:
        return sum(file.nblocks for file in self.files)

    @property
    def total_mb(self) -> float:
        return self.total_blocks * self.block_bytes / (1024.0 * 1024.0)

    def __len__(self) -> int:
        return len(self.files)
