"""The single-core LLC stage's array assembly against its per-interval loop.

``SingleCoreSimulator._assemble_result`` turns LLC outcomes into a run's
per-interval columns and its CPI stack with array expressions over the
interval axis.  It replaced a loop that built one CPI stack per interval
and added the stacks up one after another; that loop lives on here, on
Python floats, as the witness.  The property builds synthetic
:class:`PrivateRun`\\ s and LLC outcomes and asks for the same bits: every
interval column, the CPI stack, the isolated cycle count and the
profile's CPI columns.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cache_config import CacheConfig, MemoryConfig
from repro.config.machine import MachineConfig
from repro.cores.core_model import CoreTimingModel
from repro.profiling.profiler import profile_from_run
from repro.simulators.single_core import PrivateRun, SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec

INTERVAL = 1_000


def loop_assembly(
    private_run: PrivateRun, machine: MachineConfig, llc_hits: np.ndarray, distances: np.ndarray
) -> Tuple[List[Dict], List[float], int]:
    """The per-interval CPI-stack loop: interval rows, stack totals, instructions.

    Each interval's stack starts at zero and gains its base cycles, the
    exposed hits of every private level with a non-zero penalty, its LLC
    hits and its LLC misses; the run's stack adds the interval stacks
    component by component, first interval first.
    """
    core_model = CoreTimingModel(machine, private_run.spec)
    ways = machine.llc.associativity
    count = private_run.num_intervals
    accesses, hits = [0] * count, [0] * count
    sdc = [[0.0] * (ways + 1) for _ in range(count)]
    for interval, hit, distance in zip(
        private_run.interval_id.tolist(), llc_hits.tolist(), distances.tolist()
    ):
        accesses[interval] += 1
        hits[interval] += int(hit)
        sdc[interval][distance - 1 if 1 <= distance <= ways else ways] += 1.0
    penalties = [
        core_model.private_hit_penalty(level) for level in range(len(machine.private_levels))
    ]
    rows: List[Dict] = []
    totals = [0.0, 0.0, 0.0, 0.0]
    instructions = 0
    for i in range(count):
        base = 0.0
        base += float(private_run.base_cycles[i])
        private = 0.0
        for level, penalty in enumerate(penalties):
            if penalty:
                private += int(private_run.private_hits[i, level]) * penalty
        llc = 0.0
        llc += hits[i] * core_model.llc_hit_penalty
        memory = 0.0
        memory += (accesses[i] - hits[i]) * core_model.memory_penalty
        rows.append(
            {
                "instructions": int(private_run.instructions[i]),
                "interval_cycles": base + private + llc + memory,
                "memory_cycles": memory,
                "llc_accesses": accesses[i],
                "llc_hits": hits[i],
                "sdc": sdc[i],
            }
        )
        totals = [total + part for total, part in zip(totals, (base, private, llc, memory))]
        instructions += int(private_run.instructions[i])
    return rows, totals, instructions


def _bits(value: float) -> str:
    return float(value).hex()


@st.composite
def assembly_cases(draw):
    """A machine, a synthetic stage-1 run on it and LLC outcomes for its stream."""
    ways = draw(st.integers(1, 32))
    machine = MachineConfig(
        private_levels=(
            CacheConfig(name="L1D", size_bytes=2048, associativity=2, latency=1),
            # Latency 0 gives the L2 a zero penalty, like the L1's.
            CacheConfig(
                name="L2", size_bytes=8192, associativity=4, latency=draw(st.integers(0, 24))
            ),
        ),
        llc=CacheConfig(
            name="L3",
            size_bytes=64 * ways * draw(st.sampled_from([1, 2, 4])),
            associativity=ways,
            latency=draw(st.integers(1, 60)),
            shared=True,
        ),
        memory=MemoryConfig(latency=draw(st.integers(1, 400))),
    )
    spec = BenchmarkSpec(name="synthetic", mlp=draw(st.floats(1.0, 7.0)))
    count = draw(st.integers(1, 20))
    instructions = draw(st.lists(st.integers(1, 5 * INTERVAL), min_size=count, max_size=count))
    # Per interval: no LLC access, all misses, all hits or a random mix
    # (an LLC trace needs one access somewhere).
    kinds = draw(
        st.lists(st.sampled_from(["none", "miss", "hit", "mixed"]), min_size=count, max_size=count)
        .filter(lambda drawn: set(drawn) != {"none"})
    )
    accesses = [0 if kind == "none" else draw(st.integers(1, 12)) for kind in kinds]
    hits: List[bool] = []
    for kind, n in zip(kinds, accesses):
        if kind == "mixed":
            hits += draw(st.lists(st.booleans(), min_size=n, max_size=n))
        else:
            hits += [kind == "hit"] * n
    total = sum(accesses)
    distances = draw(st.lists(st.integers(0, ways + 2), min_size=total, max_size=total))
    base = draw(
        st.lists(
            st.floats(0.5, 1e9, allow_nan=False, allow_infinity=False),
            min_size=count,
            max_size=count,
        )
    )
    private_hits = draw(st.lists(st.integers(0, 10**6), min_size=2 * count, max_size=2 * count))
    private_run = PrivateRun(
        spec=spec,
        private_key=machine.private_key(),
        num_instructions=sum(instructions),
        interval_instructions=INTERVAL,
        line=np.arange(total, dtype=np.int64),
        insn=np.arange(total, dtype=np.int64),
        upstream_cycle_gap=np.ones(total),
        interval_id=np.repeat(np.arange(count, dtype=np.int64), accesses),
        instructions=np.array(instructions, dtype=np.int64),
        base_cycles=np.array(base),
        private_hits=np.array(private_hits, dtype=np.int64).reshape(count, 2),
        tail_cycles=0.0,
    )
    return machine, private_run, np.array(hits, dtype=bool), np.array(distances, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(assembly_cases())
def test_array_assembly_matches_the_interval_loop_bit_for_bit(case):
    machine, private_run, llc_hits, distances = case
    simulator = SingleCoreSimulator(machine, interval_instructions=INTERVAL)
    run = simulator._assemble_result(private_run, machine, llc_hits, distances)
    rows, totals, instructions = loop_assembly(private_run, machine, llc_hits, distances)

    assert run.instructions.tolist() == [row["instructions"] for row in rows]
    for column in ("interval_cycles", "memory_cycles"):
        assert [_bits(x) for x in getattr(run, column).tolist()] == [
            _bits(row[column]) for row in rows
        ]
    for column in ("llc_accesses", "llc_hits"):
        assert getattr(run, column).tolist() == [row[column] for row in rows]
    assert run.llc_misses.tolist() == [row["llc_accesses"] - row["llc_hits"] for row in rows]
    assert run.sdc.shape == (len(rows), machine.llc.associativity + 1)
    assert run.sdc.tolist() == [row["sdc"] for row in rows]

    stack = run.cpi_stack
    parts = (stack.base, stack.private_cache, stack.llc, stack.memory)
    assert [_bits(part) for part in parts] == [_bits(total) for total in totals]
    assert stack.instructions == instructions
    base, private, llc, memory = totals
    assert _bits(run.llc_trace.isolated_cycles) == _bits(base + private + llc + memory)

    profile = profile_from_run(run, machine)
    assert [_bits(x) for x in profile.columns["cpi"].tolist()] == [
        _bits(row["interval_cycles"] / row["instructions"]) for row in rows
    ]
    assert [_bits(x) for x in profile.columns["memory_cpi"].tolist()] == [
        _bits(row["memory_cycles"] / row["instructions"]) for row in rows
    ]
    assert profile.columns["llc_misses"].tolist() == [
        float(row["llc_accesses"] - row["llc_hits"]) for row in rows
    ]
