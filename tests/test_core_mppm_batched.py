"""Batched-vs-reference equivalence matrix for the MPPM solver kernels.

The batched mix-major kernel claims *bit-identical* results to the
reference Python loop — not approximately equal.  Every assertion here
is therefore exact ``==`` on floats: same predicted CPIs, same
iteration counts, same convergence flags, for every registered
``mppm:*`` variant, across smoothing settings, uneven trace lengths,
single-mix batches and the ``max_iterations`` cap.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LLC_CONFIGS, baseline_machine, scaled
from repro.contention import make_contention_model
from repro.core import MPPM, MPPM_KERNELS, MPPMConfig, batched
from repro.core.mppm import MPPMError
from repro.core.result import MixPrediction
from repro.profiling import ProfileStore
from repro.profiling.profile import SingleCoreProfile

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL, TEST_SCALE

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

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_nine_program_mix(self, machine4, profiles4, variant):
        # Past eight programs a pairwise reduce over the program axis
        # would round FOA's access totals and prob's dilations
        # differently from the reference loop's left folds.
        contention, config = VARIANTS[variant]
        names = sorted(profiles4)
        batches = [
            [profiles4[names[core % len(names)]] for core in range(9)],
            [profiles4[names[(core * 5) % len(names)]] for core in range(9)],
        ]
        assert_bit_identical(
            *solve_both(batches, machine4, make_contention_model(contention), config)
        )

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_windows_whose_misses_cost_no_memory_cycles(self, machine4, variant):
        # A window with misses but no memory cycles has a zero average
        # miss penalty, so both kernels charge the whole-trace fallback
        # (itself zero for a profile that never waits on memory).
        ways = machine4.llc.associativity

        def profile(name, memory_cpis, deep):
            counts = np.full(ways + 1, 10.0)
            counts[-1] = deep
            return SingleCoreProfile(
                benchmark=name,
                machine_key=machine4.profile_key(),
                machine_name=machine4.name,
                interval_instructions=1_000,
                llc_associativity=ways,
                instructions=[1_000 + 250 * k for k in range(6)],
                cpi=[1.5] * 6,
                memory_cpi=[memory_cpis[k % len(memory_cpis)] for k in range(6)],
                llc_accesses=[float(counts.sum())] * 6,
                llc_misses=[deep] * 6,
                sdc=[counts] * 6,
            )

        stalled = profile("stalled", [0.0, 0.0, 0.4], 30.0)
        free = profile("free", [0.0], 5.0)
        busy = profile("busy", [0.6, 0.2], 80.0)
        contention, config = VARIANTS[variant]
        assert_bit_identical(
            *solve_both(
                [[stalled, free, busy], [free, busy], [stalled, stalled, free, busy]],
                machine4,
                make_contention_model(contention),
                config,
            )
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
            mixed_batches,
            predictor="mppm:foa",
            machines=[dataclasses.replace(machine4, name=name) for name in names],
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

    def test_a_repeated_mix_in_one_batch_is_solved_alike(self, machine4, profiles4):
        names = sorted(profiles4)
        mix_a = [profiles4[names[0]], profiles4[names[1]]]
        mix_b = [profiles4[names[2]], profiles4[names[3]]]
        model = MPPM(machine4.with_num_cores(2))
        predictions = model.predict_batch([mix_a, mix_b, mix_a, mix_a])
        assert len(predictions) == 4
        assert predictions[0] == predictions[2] == predictions[3] != predictions[1]
        reference = MPPM(machine4.with_num_cores(2), kernel="reference").predict_batch(
            [mix_a, mix_b, mix_a]
        )
        assert_bit_identical(reference, predictions[:3])

    def test_kernel_round_trips_through_serialisation(self, machine4, profiles4):
        names = sorted(profiles4)
        prediction = MPPM(machine4).predict([profiles4[name] for name in names[:4]])
        restored = MixPrediction.from_dict(prediction.to_dict())
        assert restored.kernel == "batched"
        assert "kernel=batched" in prediction.describe()


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


@pytest.fixture(scope="module")
def llc_profiles(store, tiny_suite):
    """``{llc: (machine, profiles)}`` for the tiny suite on every Table 2 LLC."""
    machines = {
        llc: scaled(baseline_machine(num_cores=4, llc_config=llc), TEST_SCALE)
        for llc in sorted(LLC_CONFIGS)
    }
    for spec in tiny_suite:
        store.get_many(spec, list(machines.values()))
    return {
        llc: (machine, {spec.name: store.get_profile(spec, machine) for spec in tiny_suite})
        for llc, machine in machines.items()
    }


#: Config overrides the one-mix matrix runs every variant under.
ONE_MIX_OVERRIDES = {
    "as-registered": {},
    "unconverged": {"max_iterations": 3},
    "explicit-chunk": {"chunk_instructions": 7_000},
}


def assert_one_mix_solve(model_args, mix, other):
    """``mix`` solved alone equals the reference loop and its own solve
    inside a larger batch of the same core count, bit for bit."""
    (alone,) = MPPM(*model_args).predict_batch([mix])
    (reference,) = MPPM(*model_args, kernel="reference").predict_batch([mix])
    assert_bit_identical([reference], [alone])
    assert MPPM(*model_args).predict_batch([other, mix, other])[1] == alone
    return alone


class TestOneMixSolver:
    """A core-count group of one mix runs ``_solve_one`` on Python floats;
    it must give ``_solve_uniform``'s and the reference loop's results."""

    @pytest.mark.parametrize("llc", sorted(LLC_CONFIGS))
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_the_batched_and_reference_solves(self, llc_profiles, llc, variant):
        machine, profiles = llc_profiles[llc]
        names = sorted(profiles)
        contention, config = VARIANTS[variant]
        for label, overrides in ONE_MIX_OVERRIDES.items():
            model_args = (
                machine,
                make_contention_model(contention),
                dataclasses.replace(config, **overrides),
            )
            for count in (1, 2, 3, 4, 8):
                # The first benchmark comes back last: every mix of two or
                # more programs repeats one.
                picks = [(llc + core) % len(names) for core in range(count - 1)]
                picks.append(llc % len(names))
                mix = [profiles[names[pick]] for pick in picks]
                other = [profiles[names[(pick + 3) % len(names)]] for pick in picks]
                alone = assert_one_mix_solve(model_args, mix, other)
                if label == "unconverged":
                    assert (alone.iterations, alone.converged) == (3, False)
                else:
                    assert alone.converged

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_mixes(self, llc_profiles, data):
        machine, profiles = llc_profiles[data.draw(st.sampled_from(sorted(LLC_CONFIGS)))]
        contention, config = VARIANTS[data.draw(st.sampled_from(sorted(VARIANTS)))]
        names = st.sampled_from(sorted(profiles))
        count = data.draw(st.integers(min_value=1, max_value=8))
        mix = [profiles[name] for name in data.draw(st.lists(names, min_size=count, max_size=count))]
        other = [profiles[name] for name in data.draw(st.lists(names, min_size=count, max_size=count))]
        smoothing = data.draw(st.sampled_from([0.0, 0.5, 0.9]))
        config = dataclasses.replace(config, smoothing=smoothing)
        assert_one_mix_solve((machine, make_contention_model(contention), config), mix, other)

    def test_window_rows_of_sampled_mixes_are_nonnegative(self, llc_profiles, monkeypatch):
        """Window rows are prefix-sum differences plus whole passes, so
        cancellation could take a counter below zero, which a scalar-only
        contention model's ``StackDistanceCounters`` would reject.  Over
        sampled 2/4/8-program mixes on every Table 2 LLC, none does."""
        rows = []
        windows = batched._MixWindows.__call__

        def recording(self, positions, lengths):
            rows.append(windows(self, positions, lengths))
            return rows[-1]

        monkeypatch.setattr(batched._MixWindows, "__call__", recording)
        rng = np.random.default_rng(36)
        for machine, profiles in llc_profiles.values():
            names = sorted(profiles)
            for count in (2, 4, 8):
                model = MPPM(machine.with_num_cores(count))
                for _ in range(4):
                    model.predict([profiles[name] for name in rng.choice(names, size=count)])
        # Rows are as wide as their LLC's SDCs, so they are checked per call.
        assert sum(len(window) for window in rows) > 5_000
        assert min(window.min() for window in rows) >= 0.0

    def test_batch_size_alone_picks_the_path(self, machine4, profiles4, monkeypatch):
        calls = []
        for name in ("_solve_one", "_solve_uniform"):

            def recording(*args, _name=name, _solve=getattr(batched, name)):
                calls.append(_name)
                return _solve(*args)

            monkeypatch.setattr(batched, name, recording)
        names = sorted(profiles4)
        two = [profiles4[name] for name in names[:2]]
        four = [profiles4[name] for name in names[:4]]
        model = MPPM(machine4)
        assert model.predict(four).kernel == "batched"
        assert calls == ["_solve_one"]
        # Groups run by core count: the one 2-program mix, then the two
        # 4-program mixes.
        model.predict_batch([four, two, four])
        assert calls == ["_solve_one", "_solve_one", "_solve_uniform"]
