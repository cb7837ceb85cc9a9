"""Unit tests for core and whole-machine configuration."""

import dataclasses

import pytest

from repro.config.cache_config import KIB, CacheConfig, ConfigurationError
from repro.config.core_config import CoreConfig
from repro.config.machine import MachineConfig


class TestCoreConfig:
    def test_defaults_match_paper_table1(self):
        core = CoreConfig()
        assert core.width == 4
        assert core.rob_entries == 128
        assert core.pipeline_depth == 8
        assert core.max_loads_per_cycle == 2
        assert core.max_stores_per_cycle == 1
        assert core.perfect_branch_prediction

    @pytest.mark.parametrize(
        "kwargs",
        [dict(width=0), dict(rob_entries=0), dict(pipeline_depth=0), dict(max_loads_per_cycle=0)],
    )
    def test_invalid_core_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CoreConfig(**kwargs)


class TestMachineConfig:
    def test_default_machine_structure(self):
        machine = MachineConfig()
        assert machine.num_cores == 4
        assert [level.name for level in machine.private_levels] == ["L1D", "L2"]
        assert machine.llc.name == "L3"
        assert machine.llc.shared
        assert machine.line_size == 64
        assert len(machine.cache_levels) == 3

    def test_llc_must_be_shared(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(llc=CacheConfig(name="L3", size_bytes=512 * KIB, associativity=8))

    def test_private_levels_must_not_be_shared(self):
        shared_l2 = CacheConfig(name="L2", size_bytes=256 * KIB, associativity=8, shared=True)
        with pytest.raises(ConfigurationError):
            MachineConfig(private_levels=(shared_l2,))

    def test_all_levels_must_share_line_size(self):
        odd_l1 = CacheConfig(name="L1D", size_bytes=32 * KIB, associativity=8, line_size=32)
        with pytest.raises(ConfigurationError):
            MachineConfig(private_levels=(odd_l1,))

    def test_num_cores_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=0)

    def test_with_num_cores_and_single_core(self):
        machine = MachineConfig(num_cores=8)
        assert machine.with_num_cores(2).num_cores == 2
        assert machine.single_core().num_cores == 1
        # The original is unchanged (frozen dataclass semantics).
        assert machine.num_cores == 8

    def test_profile_key_ignores_core_count_but_not_caches(self):
        machine = MachineConfig(num_cores=4)
        assert machine.profile_key() == machine.with_num_cores(8).profile_key()
        bigger_llc = dataclasses.replace(
            machine, llc=dataclasses.replace(machine.llc, size_bytes=machine.llc.size_bytes * 2)
        )
        assert machine.profile_key() != bigger_llc.profile_key()

    def test_describe_lists_all_levels(self):
        text = MachineConfig(name="baseline").describe()
        assert "baseline" in text
        for level in ("L1D", "L2", "L3", "memory"):
            assert level in text
