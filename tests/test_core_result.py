"""Unit tests for MPPM result types."""

import pytest

from repro.core.result import (
    IterationRecord,
    MixPrediction,
    MPPMResultError,
    ProgramPrediction,
)


def _program(name="bench", core=0, sc=1.0, mc=1.5):
    return ProgramPrediction(name=name, core=core, single_core_cpi=sc, predicted_cpi=mc)


class TestProgramPrediction:
    def test_slowdown_and_progress(self):
        program = _program(sc=1.0, mc=2.0)
        assert program.slowdown == pytest.approx(2.0)
        assert program.normalized_progress == pytest.approx(0.5)

    def test_cpis_must_be_positive(self):
        with pytest.raises(MPPMResultError):
            _program(sc=0.0)
        with pytest.raises(MPPMResultError):
            _program(mc=-1.0)


class TestMixPrediction:
    def test_stp_and_antt_follow_their_definitions(self):
        programs = (
            _program("a", 0, sc=1.0, mc=2.0),  # progress 0.5, slowdown 2.0
            _program("b", 1, sc=2.0, mc=2.0),  # progress 1.0, slowdown 1.0
        )
        prediction = MixPrediction(
            machine_name="m", programs=programs, iterations=5, converged=True
        )
        assert prediction.system_throughput == pytest.approx(1.5)
        assert prediction.average_normalized_turnaround_time == pytest.approx(1.5)
        assert prediction.slowdowns == pytest.approx([2.0, 1.0])
        assert prediction.predicted_cpis == pytest.approx([2.0, 2.0])
        assert prediction.num_programs == 2

    def test_program_lookup(self):
        programs = (_program("a", 0), _program("b", 1))
        prediction = MixPrediction(
            machine_name="m", programs=programs, iterations=1, converged=True
        )
        assert prediction.program("b").core == 1
        with pytest.raises(KeyError):
            prediction.program("zzz")

    def test_describe_mentions_programs_and_metrics(self):
        prediction = MixPrediction(
            machine_name="config #1",
            programs=(_program("gamess"),),
            iterations=3,
            converged=True,
        )
        text = prediction.describe()
        assert "gamess" in text and "STP" in text and "config #1" in text

    def test_empty_prediction_rejected(self):
        with pytest.raises(MPPMResultError):
            MixPrediction(machine_name="m", programs=(), iterations=0, converged=False)

    def test_history_records_are_carried(self):
        record = IterationRecord(
            iteration=1, window_cycles=100.0, slowdowns=(1.0,), instructions_executed=(10.0,)
        )
        prediction = MixPrediction(
            machine_name="m",
            programs=(_program(),),
            iterations=1,
            converged=False,
            history=(record,),
        )
        assert prediction.history[0].window_cycles == 100.0
