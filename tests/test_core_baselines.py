"""Unit tests for the baseline predictors (no-contention and one-shot)."""

import itertools

import numpy as np
import pytest

from repro.caches.stack_distance import StackDistanceCounters
from repro.contention import make_contention_model
from repro.contention.base import ProgramCacheDemand
from repro.core import MPPM
from repro.core.baselines import NoContentionPredictor, OneShotContentionPredictor
from repro.workloads import WorkloadMix


class TestNoContentionPredictor:
    def test_every_program_keeps_its_single_core_cpi(self, machine4, profiles4):
        predictor = NoContentionPredictor(machine4)
        prediction = predictor.predict(
            [profiles4[name] for name in ("gamess", "hmmer", "soplex", "mcf")]
        )
        assert prediction.iterations == 0
        for program in prediction.programs:
            assert program.slowdown == pytest.approx(1.0)
        assert prediction.system_throughput == pytest.approx(4.0)
        assert prediction.average_normalized_turnaround_time == pytest.approx(1.0)

    def test_predict_mix_and_empty_input(self, machine4, profiles4):
        predictor = NoContentionPredictor(machine4)
        mix = WorkloadMix(programs=("gamess", "hmmer"))
        prediction = predictor.predict_mix(mix, profiles4)
        assert prediction.num_programs == 2
        with pytest.raises(ValueError):
            predictor.predict([])


class TestOneShotContentionPredictor:
    def test_one_shot_sits_between_no_contention_and_full_mppm(self, machine4, profiles4):
        profiles = [profiles4[name] for name in ("gamess", "gamess", "hmmer", "soplex")]
        no_contention = NoContentionPredictor(machine4).predict(profiles)
        one_shot = OneShotContentionPredictor(machine4).predict(profiles)
        full = MPPM(machine4).predict(profiles)
        # One-shot contention predicts *some* slowdown for the sensitive program...
        assert one_shot.program("gamess").slowdown > 1.05
        # ...and no predictor reports speedups.
        for prediction in (no_contention, one_shot, full):
            for program in prediction.programs:
                assert program.slowdown >= 1.0 - 1e-9
        # ANTT ordering: ignoring contention is the most optimistic view.
        assert (
            no_contention.average_normalized_turnaround_time
            <= one_shot.average_normalized_turnaround_time + 1e-9
        )

    def test_unaffected_program_stays_unaffected(self, machine4, profiles4):
        profiles = [profiles4[name] for name in ("hmmer", "gamess", "soplex", "mcf")]
        one_shot = OneShotContentionPredictor(machine4).predict(profiles)
        assert one_shot.program("hmmer").slowdown < 1.2
        assert one_shot.iterations == 1

    def test_predict_mix_and_empty_input(self, machine4, profiles4):
        predictor = OneShotContentionPredictor(machine4)
        mix = WorkloadMix(programs=("gamess", "soplex"))
        prediction = predictor.predict_mix(mix, profiles4)
        assert {p.name for p in prediction.programs} == {"gamess", "soplex"}
        with pytest.raises(ValueError):
            predictor.predict([])

    @pytest.mark.parametrize("model", ["foa", "sdc", "prob"])
    def test_matches_the_scalar_route_bit_for_bit(self, machine4, profiles4, model):
        # The route one-shot took before it called ``estimate_mix``:
        # ProgramCacheDemand objects over each profile's whole-trace SDCs
        # (a left fold down the intervals) and the scalar ``estimate``.
        contention = make_contention_model(model)
        predictor = OneShotContentionPredictor(machine4, contention)
        names = sorted(profiles4)
        mixes = [list(mix) for mix in itertools.combinations_with_replacement(names, 2)]
        mixes += [names, names[:1] * 4, [names[0], names[1], names[1], names[0]]]
        for mix in mixes:
            profiles = [profiles4[name] for name in mix]
            demands = [
                ProgramCacheDemand(
                    name=f"{profile.benchmark}#{core}",
                    sdc=StackDistanceCounters(
                        associativity=profile.llc_associativity,
                        counts=np.add.accumulate(profile.columns["sdc"])[-1],
                    ),
                    instructions=profile.num_instructions,
                )
                for core, profile in enumerate(profiles)
            ]
            estimates = contention.estimate(demands, machine4.llc)
            got = predictor.predict(profiles).programs
            for profile, estimate, program in zip(profiles, estimates, got):
                if profile.total_llc_misses > 0:
                    penalty = (
                        profile.memory_cpi * profile.num_instructions / profile.total_llc_misses
                    )
                else:
                    penalty = float(machine4.memory.latency)
                extra_cycles = estimate.extra_conflict_misses * penalty
                want = profile.cpi * (1.0 + extra_cycles / profile.total_cycles)
                assert type(program.predicted_cpi) is float
                assert program.predicted_cpi.hex() == want.hex()
