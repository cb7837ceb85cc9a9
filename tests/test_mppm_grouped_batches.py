"""Grouped and chunked MPPM sweeps against per-machine solves.

``MPPMPredictor.predict_batch`` groups a sweep's (mix, machine) pairs by
core count, LLC associativity and memory latency (all the batched kernel
reads of a machine, :func:`~repro.core.mppm.solver_values`), so Table 2's
six LLCs make two groups per core count, and hands each group to
``MPPM.predict_batch`` in chunks of at most ``CHUNK_MIXES`` mixes.
Every prediction must equal its own machine's solve bit for bit, name
and spec included.
"""

import dataclasses

import numpy as np
import pytest

from repro.contention import StackDistanceCompetitionModel
from repro.contention.base import suffix_misses
from repro.core import MPPM
from repro.core.mppm import MPPMError, solver_values
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors import mppm as mppm_predictor
from repro.workloads import WorkloadMix, small_suite

SPECS = ("mppm:foa", "mppm:sdc", "mppm:prob", "mppm:windowed", "mppm:figure2")


@pytest.fixture(scope="module")
def setup():
    setup = ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000),
        suite=small_suite(6),
    )
    for machine in setup.design_space(num_cores=4):
        setup.profiles(machine)
    yield setup
    setup.close()


def _per_machine(setup, spec, items):
    """Each machine's own mixes, solved by one MPPM of that machine."""
    predictor = setup.predictor(spec)
    by_machine = {}
    for index, (_, machine) in enumerate(items):
        by_machine.setdefault(machine, []).append(index)
    out = [None] * len(items)
    for machine, indices in by_machine.items():
        profiles = setup.profiles(machine)
        mixes = [[profiles[name] for name in items[i][0].programs] for i in indices]
        solved = predictor._model(machine).predict_batch(mixes, predictor=spec)
        for index, prediction in zip(indices, solved):
            out[index] = prediction
    return out


def _sweep(setup, cores):
    """Five mixes on every Table 2 LLC, plus a group of one mix."""
    machines = setup.design_space(num_cores=cores)
    mixes = setup.mixes(num_programs=cores, num_mixes=5, seed=cores)
    items = [(mix, machine) for mix in mixes for machine in machines]
    lone = WorkloadMix(programs=tuple(setup.benchmark_names[:3]))
    return items + [(lone, machines[2].with_num_cores(3))]


class TestGroupedSweeps:
    @pytest.mark.parametrize("chunk", [None, 4], ids=["one-chunk", "chunks-of-4"])
    @pytest.mark.parametrize("cores", [2, 4])
    @pytest.mark.parametrize("spec", SPECS)
    def test_equal_per_machine_solves(self, setup, spec, cores, chunk, monkeypatch):
        if chunk is not None:
            # A group of 15 mixes then runs as chunks of 4, 4, 4 and 3.
            monkeypatch.setattr(mppm_predictor, "CHUNK_MIXES", chunk)
        items = _sweep(setup, cores)
        got = setup.predictor(spec).predict_batch(items)
        assert got == _per_machine(setup, spec, items)
        assert [p.machine_name for p in got] == [machine.name for _, machine in items]
        assert {p.predictor for p in got} == {spec}
        assert {p.kernel for p in got} == {"batched"}

    def test_a_mix_repeated_across_machines_differs_by_machine(self, setup):
        machines = setup.design_space(num_cores=2)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[1:3]))
        got = setup.predictor("mppm:foa").predict_batch([(mix, m) for m in machines])
        assert got == _per_machine(setup, "mppm:foa", [(mix, m) for m in machines])
        # #1/#3/#5 share a group, yet each keeps its own LLC's profiles.
        assert len({tuple(p.predicted_cpi for p in pred.programs) for pred in got}) > 1

    def test_the_reference_kernel_solves_each_mix_on_its_own_machine(self, setup):
        reference = ExperimentSetup(
            config=dataclasses.replace(setup.config, mppm_kernel="reference"),
            suite=setup.suite,
        )
        reference.store = setup.store
        items = _sweep(setup, 2)[::3]
        got = reference.predictor("mppm:sdc").predict_batch(items)
        want = setup.predictor("mppm:sdc").predict_batch(items)
        assert {p.kernel for p in got} == {"reference"}
        assert [dataclasses.replace(p, kernel="batched") for p in got] == want


class TestChecks:
    def test_a_profile_from_another_machine_raises(self, setup):
        machines = setup.design_space(num_cores=2)
        names = setup.benchmark_names[:2]
        # LLC #2 and #4 differ in size, not associativity: they share a
        # batch, and each mix is still checked against its own machine.
        two, four = machines[1], machines[3]
        assert solver_values(two) == solver_values(four)
        right = [setup.profiles(two)[name] for name in names]
        wrong = [setup.profiles(two)[names[0]], setup.profiles(four)[names[1]]]
        with pytest.raises(MPPMError, match="collected on a different machine"):
            MPPM(two).predict_batch([right, wrong], machines=[two, two])
        with pytest.raises(MPPMError, match="collected on a different machine"):
            MPPM(two).predict_batch([right, right], machines=[two, four])

    def test_a_machine_of_another_associativity_raises(self, setup):
        machines = setup.design_space(num_cores=2)
        eight, sixteen = machines[0], machines[1]
        names = setup.benchmark_names[:2]
        with pytest.raises(MPPMError, match="8-way LLC but the machine has 16 ways"):
            MPPM(sixteen).predict_batch([[setup.profiles(eight)[name] for name in names]])
        with pytest.raises(MPPMError, match="differs in LLC associativity"):
            MPPM(eight).predict_batch(
                [[setup.profiles(sixteen)[name] for name in names]], machines=[sixteen]
            )


class TestCallsPerChunk:
    """A six-LLC sweep makes one ``MPPM.predict_batch`` call per chunk of
    each (cores, associativity) group."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        solve = MPPM.predict_batch

        def recording(model, mixes, *args, **kwargs):
            machines = kwargs["machines"]
            assert len({solver_values(machine) for machine in machines}) == 1
            cores = {machine.num_cores for machine in machines}
            calls.append((cores.pop(), model.machine.llc.associativity, len(mixes)))
            assert not cores
            return solve(model, mixes, *args, **kwargs)

        monkeypatch.setattr(MPPM, "predict_batch", recording)
        return calls

    def _items(self, setup, mixes_per_llc):
        items = []
        for cores in (2, 4):
            mixes = setup.mixes(num_programs=cores, num_mixes=mixes_per_llc, seed=7)
            items += [(m, machine) for machine in setup.design_space(cores) for m in mixes]
        return items

    def test_one_call_per_group(self, setup, calls):
        setup.predictor("mppm:foa").predict_batch(self._items(setup, 5))
        assert sorted(calls) == [(2, 8, 15), (2, 16, 15), (4, 8, 15), (4, 16, 15)]

    def test_equal_chunks_of_a_larger_group(self, setup, calls, monkeypatch):
        monkeypatch.setattr(mppm_predictor, "CHUNK_MIXES", 6)
        setup.predictor("mppm:foa").predict_batch(self._items(setup, 5))
        # 15 mixes per group, at most 6 per call: three chunks of 5.
        assert sorted(calls) == sorted([(c, a, 5) for c in (2, 4) for a in (8, 16)] * 3)

    def test_a_sweep_makes_one_call_per_spec_and_group(self, setup, calls):
        specs = ("mppm:foa", "mppm:sdc", "mppm:prob")
        items = self._items(setup, 4)
        setup.predictor_batch([(spec, mix, machine) for spec in specs for mix, machine in items])
        assert sorted(calls) == sorted([(c, a, 12) for c in (2, 4) for a in (8, 16)] * 3)


def _sdc_by_comparison(counts, associativity):
    """The SDC model's batched estimate with the ``[mix, way, program]``
    comparison count the bincount replaced (the oracle)."""
    num_mixes, num_programs, _ = counts.shape
    isolated = counts[..., associativity]
    accesses = np.add.reduce(counts, axis=-1)
    heads = np.minimum.accumulate(counts[..., :associativity], axis=-1)
    order = np.argsort(-heads.reshape(num_mixes, -1), axis=1, kind="stable")
    winners = order[:, :associativity] // associativity
    won_ways = np.minimum(
        np.add.reduce(winners[..., None] == np.arange(num_programs), axis=1),
        np.add.reduce(heads > -1.0, axis=-1),
    )
    effective_ways = np.where(accesses > 0.0, np.maximum(won_ways, 1), associativity)
    effective_ways = np.minimum(effective_ways, associativity)
    return np.maximum(suffix_misses(counts, effective_ways), isolated)


@pytest.mark.parametrize("associativity", [2, 8, 16])
@pytest.mark.parametrize("programs", [2, 4, 9])
@pytest.mark.parametrize("seed", range(4))
def test_sdc_bincount_equals_the_comparison_count(associativity, programs, seed):
    rng = np.random.default_rng(seed)
    # Small integers tie often; -1.0 entries end a program's claims.
    counts = rng.integers(0, 4, size=(50, programs, associativity + 1)).astype(np.float64)
    counts[rng.random(counts.shape) < 0.1] = -1.0
    want = _sdc_by_comparison(counts, associativity)
    got = StackDistanceCompetitionModel().estimate_batch(
        counts, np.ones(counts.shape[:2]), associativity
    )
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
