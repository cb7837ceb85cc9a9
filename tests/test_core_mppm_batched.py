"""Batched-vs-reference equivalence matrix for the MPPM solver kernels.

The batched mix-major kernel claims *bit-identical* results to the
reference Python loop — not approximately equal.  Every assertion here
is therefore exact ``==`` on floats: same predicted CPIs, same
iteration counts, same convergence flags, for every registered
``mppm:*`` variant, across smoothing settings, uneven trace lengths,
single-mix batches and the ``max_iterations`` cap.
"""

import dataclasses

import pytest

from repro.contention import make_contention_model
from repro.core import MPPM, MPPM_KERNELS, MPPMConfig
from repro.core.mppm import MPPMError
from repro.core.result import MixPrediction
from repro.profiling import ProfileStore
from repro.workloads import WorkloadMix

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL

#: Every registered ``mppm:*`` spec as (contention model, config).
VARIANTS = {
    "foa": ("foa", MPPMConfig()),
    "sdc": ("sdc", MPPMConfig()),
    "prob": ("prob", MPPMConfig()),
    "windowed": ("foa", MPPMConfig(use_windowed_cpi=True)),
    "figure2": ("foa", MPPMConfig(literal_figure2_update=True)),
}


def assert_bit_identical(reference, batched):
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert ref.kernel == "reference"
        assert bat.kernel == "batched"
        assert ref.iterations == bat.iterations
        assert ref.converged == bat.converged
        assert ref.machine_name == bat.machine_name
        assert len(ref.programs) == len(bat.programs)
        for ref_program, bat_program in zip(ref.programs, bat.programs):
            assert ref_program.name == bat_program.name
            assert ref_program.core == bat_program.core
            # Exact equality on purpose: the kernels share op order.
            assert ref_program.single_core_cpi == bat_program.single_core_cpi
            assert ref_program.predicted_cpi == bat_program.predicted_cpi


def solve_both(batches, *args, **kwargs):
    """``predict_batch`` on the reference kernel, then on the batched one."""
    reference = MPPM(*args, kernel="reference", **kwargs).predict_batch(batches)
    return reference, MPPM(*args, kernel="batched", **kwargs).predict_batch(batches)


@pytest.fixture(scope="module")
def mixed_batches(profiles4):
    """A batch exercising 1/2/4-core mixes and duplicated programs."""
    names = sorted(profiles4)
    return [
        [profiles4[names[0]], profiles4[names[1]]],
        [profiles4[name] for name in names[:4]],
        [profiles4[names[0]], profiles4[names[0]], profiles4[names[2]], profiles4[names[3]]],
        [profiles4[names[4]]],
        [profiles4[names[5]], profiles4[names[2]]],
    ]


@pytest.fixture(scope="module")
def short_profiles(tiny_suite, machine4):
    """Profiles of the same suite at half the trace length (uneven mixes)."""
    store = ProfileStore(
        num_instructions=TEST_INSTRUCTIONS // 2,
        interval_instructions=TEST_INTERVAL,
        seed=0,
    )
    return {spec.name: store.get_profile(spec, machine4) for spec in tiny_suite}


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 0.9])
    def test_batched_matches_reference_bitwise(
        self, machine4, mixed_batches, variant, smoothing
    ):
        contention, config = VARIANTS[variant]
        reference, batched = solve_both(
            mixed_batches,
            machine4,
            contention_model=make_contention_model(contention),
            config=dataclasses.replace(config, smoothing=smoothing),
        )
        assert_bit_identical(reference, batched)
        assert all(prediction.converged for prediction in batched)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_uneven_trace_lengths_within_one_mix(
        self, machine4, profiles4, short_profiles, variant
    ):
        contention, config = VARIANTS[variant]
        names = sorted(profiles4)
        # Full-length and half-length traces co-scheduled in one mix:
        # the chunk comes from the shortest trace and the programs
        # reach target_passes at different rates.
        batches = [
            [profiles4[names[0]], short_profiles[names[1]]],
            [short_profiles[names[2]], profiles4[names[3]], short_profiles[names[4]]],
        ]
        assert_bit_identical(
            *solve_both(batches, machine4, make_contention_model(contention), config)
        )

    def test_single_mix_batch_equals_predict(self, machine4, profiles4):
        names = sorted(profiles4)
        profiles = [profiles4[name] for name in names[:4]]
        model = MPPM(machine4)
        single = model.predict(profiles)
        batch_of_one = model.predict_batch([profiles])
        assert single.kernel == "batched"
        assert [p.predicted_cpi for p in single.programs] == [
            p.predicted_cpi for p in batch_of_one[0].programs
        ]

    def test_max_iterations_cap_is_identical(self, machine4, mixed_batches):
        reference, batched = solve_both(
            mixed_batches, machine4, config=MPPMConfig(max_iterations=2)
        )
        assert_bit_identical(reference, batched)
        assert all(prediction.iterations == 2 for prediction in batched)
        assert not any(prediction.converged for prediction in batched)


class TestKernelRouting:
    def test_kernels_registry(self):
        assert MPPM_KERNELS == ("batched", "reference")

    def test_unknown_kernel_rejected(self, machine4):
        with pytest.raises(MPPMError):
            MPPM(machine4, kernel="magic")

    def test_store_history_falls_back_to_reference(self, machine4, profiles4):
        names = sorted(profiles4)
        model = MPPM(machine4, config=MPPMConfig(store_history=True), kernel="batched")
        prediction = model.predict([profiles4[name] for name in names[:4]])
        assert prediction.kernel == "reference"
        assert len(prediction.history) == prediction.iterations

    def test_empty_mix_rejected_by_both_kernels(self, machine4):
        for kernel in MPPM_KERNELS:
            with pytest.raises(MPPMError):
                MPPM(machine4, kernel=kernel).predict([])

    @pytest.mark.parametrize("kernel", MPPM_KERNELS)
    def test_predictions_are_built_with_their_spec_and_machine_names(
        self, machine4, mixed_batches, kernel
    ):
        model = MPPM(machine4, kernel=kernel)
        plain = model.predict_batch(mixed_batches)
        names = [f"host-{index}" for index in range(len(mixed_batches))]
        labelled = model.predict_batch(
            mixed_batches, predictor="mppm:foa", machine_names=names
        )
        assert [p.predictor for p in plain] == [None] * len(plain)
        assert [p.machine_name for p in plain] == [machine4.name] * len(plain)
        assert [p.predictor for p in labelled] == ["mppm:foa"] * len(labelled)
        assert [p.machine_name for p in labelled] == names
        for untagged, tagged in zip(plain, labelled):
            assert tagged.kernel == untagged.kernel == kernel
            assert dataclasses.replace(
                tagged, predictor=None, machine_name=machine4.name
            ) == untagged

    def test_kernel_round_trips_through_serialisation(self, machine4, profiles4):
        names = sorted(profiles4)
        prediction = MPPM(machine4).predict([profiles4[name] for name in names[:4]])
        restored = MixPrediction.from_dict(prediction.to_dict())
        assert restored.kernel == "batched"
        assert "kernel=batched" in prediction.describe()

    def test_predict_many_dedups_identical_mixes(self, machine4, profiles4):
        names = sorted(profiles4)
        mix_a = WorkloadMix(programs=(names[0], names[1]))
        mix_b = WorkloadMix(programs=(names[2], names[3]))
        predictions = MPPM(machine4.with_num_cores(2)).predict_many(
            [mix_a, mix_b, mix_a, mix_a], profiles4
        )
        assert len(predictions) == 4
        assert predictions[0] is predictions[2]
        assert predictions[0] is predictions[3]
        assert predictions[0] is not predictions[1]
        # Dedup applies on the reference kernel too.
        reference = MPPM(machine4.with_num_cores(2), kernel="reference").predict_many(
            [mix_a, mix_b, mix_a], profiles4
        )
        assert reference[0] is reference[2]
        assert_bit_identical([reference[0]], [predictions[0]])


class TestRaggedRetirement:
    """Mixes of one batch that retire at different iterations: the batched
    kernel writes each result back when its mix retires and compacts the
    live state, so every mix must still equal its own one-mix solve and
    the reference kernel."""

    @pytest.fixture(scope="class")
    def ragged_batch(self, tiny_suite, machine4, profiles4, short_profiles):
        store = ProfileStore(
            num_instructions=TEST_INSTRUCTIONS // 4,
            interval_instructions=TEST_INTERVAL,
            seed=0,
        )
        quarter = {spec.name: store.get_profile(spec, machine4) for spec in tiny_suite}
        full, half = profiles4, short_profiles
        names = sorted(profiles4)
        # Trace lengths of 50k, 25k and 12.5k instructions: the mixes get
        # different chunks (a fifth of their shortest trace) and, under
        # mppm:foa, retire after 25, 50, 100 and 37 iterations.
        return [
            [full[names[0]], full[names[1]], full[names[2]]],
            [full[names[3]], full[names[4]], half[names[5]]],
            [full[names[1]], full[names[3]], quarter[names[5]]],
            [quarter[names[0]], half[names[1]], half[names[2]]],
        ]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_each_mix_equals_its_own_solve(self, machine4, ragged_batch, variant):
        contention, config = VARIANTS[variant]
        free = MPPM(
            machine4, make_contention_model(contention), config, kernel="reference"
        ).predict_batch(ragged_batch)
        counts = sorted({prediction.iterations for prediction in free})
        # Cap between the two longest runs: the longest mix retires at the cap.
        cap = (counts[-1] + counts[-2]) // 2
        capped = (machine4, make_contention_model(contention))
        capped += (dataclasses.replace(config, max_iterations=cap),)
        reference, batched = solve_both(ragged_batch, *capped)
        retired_at = [prediction.iterations for prediction in batched]
        assert len(set(retired_at)) >= 3
        assert retired_at.count(cap) == 1
        assert [p.converged for p in batched] == [n < cap for n in retired_at]
        assert_bit_identical(reference, batched)
        for mix, prediction in zip(ragged_batch, batched):
            (alone,) = MPPM(*capped).predict_batch([mix])
            assert alone.iterations == prediction.iterations
            assert alone.converged == prediction.converged
            assert [p.predicted_cpi for p in alone.programs] == [
                p.predicted_cpi for p in prediction.programs
            ]
