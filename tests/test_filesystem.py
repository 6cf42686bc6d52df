"""Unit tests for the guest filesystem (inodes, extents, appends)."""

import pytest

from repro.guest import Filesystem


class TestFilesystem:
    def test_create_assigns_unique_inodes(self):
        fs = Filesystem()
        f1 = fs.create_file(10)
        f2 = fs.create_file(10)
        assert f1.inode != f2.inode
        assert len(fs) == 2

    def test_extents_do_not_overlap(self):
        fs = Filesystem()
        files = [fs.create_file(100) for _ in range(10)]
        spans = sorted(
            (f.disk_start, f.disk_start + f.max_blocks) for f in files
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_disk_base_offsets_extents(self):
        fs = Filesystem(disk_base=10_000)
        f = fs.create_file(10)
        assert f.disk_start >= 10_000

    def test_negative_size_rejected(self):
        fs = Filesystem()
        with pytest.raises(ValueError):
            fs.create_file(-1)

    def test_keys_respect_range(self):
        fs = Filesystem()
        f = fs.create_file(10)
        assert f.keys() == [(f.inode, b) for b in range(10)]
        assert f.keys(8, 5) == [(f.inode, 8), (f.inode, 9)]
        assert f.keys(2, 3) == [(f.inode, 2), (f.inode, 3), (f.inode, 4)]

    def test_disk_offset(self):
        fs = Filesystem()
        f = fs.create_file(10)
        assert f.disk_offset(3) == f.disk_start + 3

    def test_extend_within_slack(self):
        fs = Filesystem()
        f = fs.create_file(2, append_slack=8)
        start = fs.extend_file(f, 3)
        assert start == 2
        assert f.nblocks == 5

    def test_extend_caps_at_max_and_wraps(self):
        fs = Filesystem()
        f = fs.create_file(0, append_slack=4)
        fs.extend_file(f, 4)
        assert f.nblocks == 4
        start = fs.extend_file(f, 2)  # full: wraps within the extent
        assert 0 <= start <= 2
        assert f.nblocks == 4

    def test_extend_validates(self):
        fs = Filesystem()
        f = fs.create_file(1)
        with pytest.raises(ValueError):
            fs.extend_file(f, 0)

    def test_delete(self):
        fs = Filesystem()
        f = fs.create_file(10)
        fs.delete_file(f)
        assert fs.get(f.inode) is None
        assert len(fs) == 0
        fs.delete_file(f)  # idempotent
        assert len(fs) == 0
