"""Tests for deterministic RNG streams and the Zipf sampler."""

import collections

import pytest

from repro.simkernel import RandomStreams, zipf_ranks


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_same_seed_reproducible(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(3)
        s1.stream("first")
        v1 = s1.stream("second").random()
        s2 = RandomStreams(3)
        v2 = s2.stream("second").random()
        assert v1 == v2


class TestZipf:
    def test_rejects_bad_parameters(self):
        streams = RandomStreams(0)
        with pytest.raises(ValueError):
            zipf_ranks(streams.stream("z"), 0)
        with pytest.raises(ValueError):
            zipf_ranks(streams.stream("z"), 10, theta=1.5)

    def test_samples_in_range(self):
        streams = RandomStreams(0)
        sample = zipf_ranks(streams.stream("z"), 100)
        for _ in range(2000):
            assert 0 <= sample() < 100

    def test_rank_zero_is_hottest(self):
        streams = RandomStreams(0)
        sample = zipf_ranks(streams.stream("z"), 1000)
        counts = collections.Counter(sample() for _ in range(20000))
        assert counts[0] == max(counts.values())

    def test_skew_increases_with_theta(self):
        streams = RandomStreams(0)
        mild = zipf_ranks(streams.stream("mild"), 1000, theta=0.5)
        hot = zipf_ranks(streams.stream("hot"), 1000, theta=0.99)
        mild_top = sum(1 for _ in range(10000) if mild() == 0)
        hot_top = sum(1 for _ in range(10000) if hot() == 0)
        assert hot_top > mild_top

    def test_single_item_always_zero(self):
        streams = RandomStreams(0)
        sample = zipf_ranks(streams.stream("z"), 1)
        assert all(sample() == 0 for _ in range(100))

    def test_large_n_uses_tail_approximation(self):
        streams = RandomStreams(0)
        sample = zipf_ranks(streams.stream("z"), 2_000_000)
        values = [sample() for _ in range(2000)]
        assert all(0 <= v < 2_000_000 for v in values)
        # Hot head still dominates even with the approximate zeta.
        assert sum(1 for v in values if v < 20) > 50
