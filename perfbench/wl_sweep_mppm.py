"""``sweep-mppm``: the ``repro rank`` path with warm profiles, in-process.

Set-up profiles all 29 benchmarks on the six Table 2 LLCs at 4 cores in
a fresh :class:`ExperimentSetup`, then runs one untimed warm-up sweep so
that no unit pays for first-call costs.  One unit is one
``ExperimentSetup.predictor_batch`` call covering ``mppm:foa``,
``mppm:sdc`` and ``mppm:prob`` x 6 LLCs x 125 4-program mixes drawn
from the seed (2,250 predictions), each unit with mixes no earlier unit
(nor the warm-up) used, so no unit repeats work.  Units are kept this
small so that a run takes the median of many, which rides out the
host's slow spells.
There is no detailed simulation.  A seeded sample of every unit's
predictions is recomputed afterwards with the reference (per-mix) MPPM
solver and must match bit for bit; the digest of every prediction's
STP, ANTT and iteration count is printed so two runs of one seed can be
compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import time
from typing import Any, Dict, List

from common import Unit

SETUPS = 1
MAX_UNITS = 64
MIXES_PER_UNIT = 125
PROGRAMS = 4
SPECS = ("mppm:foa", "mppm:sdc", "mppm:prob")
SAMPLE = 8


def _config():
    from repro.experiments import ExperimentConfig

    # The CLI's defaults: 200k instructions in 50 intervals, scale 16, seed 0.
    return ExperimentConfig(num_instructions=200_000, interval_instructions=4_000)


def prepare(seed: int) -> Dict[str, Any]:
    from repro.workloads import workload_for

    names = workload_for("suite:spec29").suite().names
    rng = random.Random(seed)
    seen = set()
    units: List[List[tuple]] = []
    # One more set of mixes than units: the last is the set-up's warm-up.
    for _ in range(MAX_UNITS + 1):
        mixes: List[tuple] = []
        while len(mixes) < MIXES_PER_UNIT:
            mix = tuple(sorted(rng.choice(names) for _ in range(PROGRAMS)))
            if mix not in seen:
                seen.add(mix)
                mixes.append(mix)
        units.append(mixes)
    ops = len(SPECS) * 6 * MIXES_PER_UNIT
    samples = [sorted(rng.sample(range(ops), SAMPLE)) for _ in range(MAX_UNITS)]
    return {"units": units, "samples": samples}


def setup(inputs: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    from repro.experiments import ExperimentSetup

    experiment = ExperimentSetup(config=_config())
    machines = experiment.design_space(num_cores=PROGRAMS)
    for machine in machines:
        experiment.profiles(machine)
    experiment.predictor_batch(_items(inputs["units"][MAX_UNITS], machines))
    return {"setup": experiment, "machines": machines, "checks": [], "digests": []}


def _items(mixes: List[tuple], machines: List[Any]) -> List[tuple]:
    from repro.workloads import WorkloadMix

    mixes = [WorkloadMix(programs=programs) for programs in mixes]
    return [(spec, mix, machine) for spec in SPECS for machine in machines for mix in mixes]


def unit(state: Dict[str, Any], inputs: Dict[str, Any], index: int) -> Unit:
    items = _items(inputs["units"][index], state["machines"])
    start_ns = time.perf_counter_ns()
    predictions = state["setup"].predictor_batch(items)
    end_ns = time.perf_counter_ns()
    seconds = (end_ns - start_ns) / 1e9
    lines = [
        f"{p.system_throughput.hex()} {p.average_normalized_turnaround_time.hex()} {p.iterations}"
        for p in predictions
    ]
    state["digests"].append(hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])
    state["checks"].extend((items[i], predictions[i]) for i in inputs["samples"][index])
    return Unit(
        seconds=seconds,
        ops=len(items),
        failed=sum(
            1
            for p in predictions
            if not (math.isfinite(p.system_throughput) and math.isfinite(p.average_normalized_turnaround_time))
        ),
        samples={"predictions_per_s": [len(items) / seconds]},
        start_ns=start_ns,
        end_ns=end_ns,
    )


def verify(state: Dict[str, Any], inputs: Dict[str, Any]) -> int:
    """Recompute the sampled predictions with the reference solver; count mismatches."""
    from repro.experiments import ExperimentSetup

    reference = ExperimentSetup(config=dataclasses.replace(_config(), mppm_kernel="reference"))
    reference.store = state["setup"].store
    failed = 0
    for (spec, mix, machine), served in state["checks"]:
        expected = reference.predict(mix, machine, predictor=spec).to_dict()
        got = served.to_dict()
        expected.pop("kernel")
        got.pop("kernel")
        failed += expected != got
    print(f"sweep-mppm prediction digests: {' '.join(state['digests'])}")
    return failed


def close(state: Dict[str, Any]) -> List[Dict[str, Any]]:
    state["setup"].close()
    return []
