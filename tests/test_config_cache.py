"""Unit tests for cache and memory configuration records."""

import pytest

from repro.config.cache_config import KIB, MIB, CacheConfig, ConfigurationError, MemoryConfig


class TestCacheConfig:
    def test_basic_geometry(self):
        cache = CacheConfig(name="L3", size_bytes=512 * KIB, associativity=8, line_size=64)
        assert cache.num_lines == 8192
        assert cache.num_sets == 1024
        assert not cache.is_fully_associative

    def test_fully_associative_when_ways_equal_lines(self):
        cache = CacheConfig(name="tiny", size_bytes=8 * 64, associativity=8, line_size=64)
        assert cache.num_sets == 1
        assert cache.is_fully_associative

    def test_with_size_and_latency(self):
        cache = CacheConfig(name="L3", size_bytes=512 * KIB, associativity=8, latency=16)
        assert cache.with_size(1 * MIB).size_bytes == 1 * MIB
        assert cache.with_latency(20).latency == 20

    def test_describe_mentions_size_and_sharing(self):
        shared = CacheConfig(name="L3", size_bytes=1 * MIB, associativity=16, shared=True)
        text = shared.describe()
        assert "L3" in text and "1MB" in text and "16-way" in text and "shared" in text
        private = CacheConfig(name="L1D", size_bytes=32 * KIB, associativity=8)
        assert "private" in private.describe()
        assert "32KB" in private.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size_bytes=0, associativity=8),
            dict(size_bytes=-64, associativity=8),
            dict(size_bytes=64 * KIB, associativity=0),
            dict(size_bytes=64 * KIB, associativity=8, line_size=0),
            dict(size_bytes=64 * KIB, associativity=8, latency=-1),
            dict(size_bytes=100, associativity=1, line_size=64),  # not a multiple of line size
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="bad", **kwargs)

    def test_lines_must_divide_into_sets(self):
        # 3 lines cannot be divided into 2-way sets.
        with pytest.raises(ConfigurationError):
            CacheConfig(name="bad", size_bytes=3 * 64, associativity=2, line_size=64)

    def test_is_hashable_and_frozen(self):
        cache = CacheConfig(name="L2", size_bytes=256 * KIB, associativity=8)
        assert hash(cache) == hash(CacheConfig(name="L2", size_bytes=256 * KIB, associativity=8))
        with pytest.raises(Exception):
            cache.size_bytes = 1  # type: ignore[misc]


class TestMemoryConfig:
    def test_default_latency_matches_paper(self):
        assert MemoryConfig().latency == 200

    def test_rejects_non_positive_latency(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(latency=0)
