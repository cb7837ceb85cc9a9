"""Unit tests for the CPI stack and the core timing model."""

import pytest

from repro.config import baseline_machine, scaled
from repro.cores.core_model import CoreTimingModel
from repro.cores.cpi_stack import CPIStack
from repro.workloads.benchmark import BenchmarkSpec


class TestCPIStack:
    def test_components_accumulate_and_derive_cpi(self):
        stack = CPIStack()
        stack.add_base(100.0)
        stack.add_private_cache(20.0)
        stack.add_llc(30.0)
        stack.add_memory(50.0)
        stack.add_instructions(100)
        assert stack.total_cycles == pytest.approx(200.0)
        assert stack.cpi == pytest.approx(2.0)
        assert stack.memory_cpi == pytest.approx(0.5)
        assert stack.memory_fraction == pytest.approx(0.25)
        assert stack.components() == {
            "base": 100.0,
            "private_cache": 20.0,
            "llc": 30.0,
            "memory": 50.0,
        }

    def test_empty_stack_has_zero_cpi(self):
        stack = CPIStack()
        assert stack.cpi == 0.0
        assert stack.memory_cpi == 0.0
        assert stack.memory_fraction == 0.0

    def test_merge_and_copy_are_independent(self):
        a = CPIStack(base=10.0, memory=5.0, instructions=10)
        b = CPIStack(base=20.0, llc=2.0, instructions=20)
        merged = a.merged_with(b)
        assert merged.base == 30.0
        assert merged.instructions == 30
        copy = a.copy()
        copy.add_base(100.0)
        assert a.base == 10.0


class TestCoreTimingModel:
    @pytest.fixture()
    def machine(self):
        return scaled(baseline_machine(num_cores=4, llc_config=1), 16)

    def test_l1_hits_are_free_and_deeper_levels_are_mlp_discounted(self, machine):
        spec = BenchmarkSpec(name="timing", mlp=2.0)
        model = CoreTimingModel(machine, spec)
        assert model.private_hit_penalty(0) == 0.0
        assert model.private_hit_penalty(1) == pytest.approx(machine.private_levels[1].latency / 2.0)
        assert model.llc_hit_penalty == pytest.approx(machine.llc.latency / 2.0)
        assert model.memory_penalty == pytest.approx(machine.memory.latency / 2.0)

    def test_higher_mlp_reduces_all_penalties(self, machine):
        low = CoreTimingModel(machine, BenchmarkSpec(name="low", mlp=1.0))
        high = CoreTimingModel(machine, BenchmarkSpec(name="high", mlp=4.0))
        assert high.memory_penalty < low.memory_penalty
        assert high.llc_hit_penalty < low.llc_hit_penalty

    def test_base_cycles_scale_with_cpi_and_multiplier(self, machine):
        spec = BenchmarkSpec(name="timing", base_cpi=0.5)
        model = CoreTimingModel(machine, spec)
        assert model.base_cycles(1000) == pytest.approx(500.0)
        assert model.base_cycles(1000, cpi_multiplier=2.0) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            model.base_cycles(-1)

    def test_describe_mentions_benchmark_and_machine(self, machine):
        model = CoreTimingModel(machine, BenchmarkSpec(name="describe-me"))
        text = model.describe()
        assert "describe-me" in text
        assert "memory=" in text
