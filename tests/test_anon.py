"""Unit tests for anonymous memory and swap state."""

import pytest

from repro.mem import AnonSpace


class TestAnonSpace:
    def test_new_page_reported(self):
        anon = AnonSpace()
        assert anon.touch(5, seq=1) == "new"
        anon.map_new(5, seq=1)
        assert anon.resident_pages == 1

    def test_resident_touch_bumps_lru(self):
        anon = AnonSpace()
        anon.map_new(1, 1)
        anon.map_new(2, 2)
        assert anon.touch(1, 3) == "resident"
        # 2 is now the coldest
        assert anon.swap_out_coldest(1) is not None
        assert anon.is_swapped(2)
        assert anon.is_resident(1)

    def test_double_map_rejected(self):
        anon = AnonSpace()
        anon.map_new(1, 1)
        with pytest.raises(ValueError):
            anon.map_new(1, 2)

    def test_swap_out_returns_slots(self):
        anon = AnonSpace()
        for page in range(4):
            anon.map_new(page, page)
        slots = anon.swap_out_coldest(2)
        assert slots == [0, 1]
        assert anon.swapped_pages == 2
        assert anon.resident_pages == 2
        assert set(anon.swap_slots) == {0, 1}  # the two coldest pages

    def test_swap_slots_monotonic(self):
        anon = AnonSpace()
        anon.map_new(1, 1)
        anon.swap_out_coldest(1)
        anon.fault_in(1, 2)
        anon.swap_out_coldest(1)
        assert anon.swap_slots[1] == 1  # second slot, not reused

    def test_fault_in(self):
        anon = AnonSpace()
        anon.map_new(7, 1)
        anon.swap_out_coldest(1)
        assert anon.touch(7, 2) == "swapped"
        slot = anon.fault_in(7, 3)
        assert slot == 0
        assert anon.is_resident(7)
        assert not anon.is_swapped(7) and 7 not in anon.swap_slots

    def test_fault_in_resident_rejected(self):
        anon = AnonSpace()
        anon.map_new(1, 1)
        with pytest.raises(ValueError):
            anon.fault_in(1, 2)

    def test_coldest_seq(self):
        anon = AnonSpace()
        assert anon.coldest_seq() is None
        anon.map_new(1, 10)
        anon.map_new(2, 20)
        anon.touch(1, 30)
        assert anon.coldest_seq() == 20

    def test_swap_out_more_than_resident(self):
        anon = AnonSpace()
        anon.map_new(1, 1)
        slots = anon.swap_out_coldest(10)
        assert len(slots) == 1

    def test_release_all(self):
        anon = AnonSpace()
        anon.map_new(1, 1)
        anon.map_new(2, 2)
        anon.swap_out_coldest(1)
        freed = anon.release_all()
        assert freed == 1  # resident pages at release time
        assert anon.resident_pages == 0
        assert anon.swapped_pages == 0
