"""Golden canonicalisation corpus for every spec-string registry.

Each row is ``(registry, input, expected)``: ``expected`` is the
canonical string the registry's public function returns, or the
exception class it raises.  Canonical strings feed the engine's content
keys, so a row that changes its canonical output would silently
cold-start every existing ``--cache-dir``.  ``{fixture}`` stands for the
path of the committed perf sample file.  Rows with a trailing comment
were rejected or canonicalised differently before the registries shared
one grammar; every other row is unchanged from the hand-written parsers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.remote import parse_fleet_spec
from repro.predictors import PredictorError, canonical_spec
from repro.workloads import WorkloadSpecError, canonical_workload_spec

FIXTURE = str(Path(__file__).parent / "data" / "perf_ingest_samples.csv")

REGISTRIES = {
    "predictor": canonical_spec,
    "workload": canonical_workload_spec,
    "fleet": lambda spec: parse_fleet_spec(spec).canonical,
}

CORPUS = [
    ('predictor', 'mppm', 'mppm:foa'),
    ('predictor', 'mppm:foa', 'mppm:foa'),
    ('predictor', '  MPPM:SDC ', 'mppm:sdc'),
    ('predictor', 'mppm:prob', 'mppm:prob'),
    ('predictor', 'mppm:windowed', 'mppm:windowed'),
    ('predictor', 'Mppm:Figure2', 'mppm:figure2'),
    ('predictor', 'baseline:no-contention', 'baseline:no-contention'),
    ('predictor', 'BASELINE:ONE-SHOT', 'baseline:one-shot'),
    ('predictor', 'detailed', 'detailed'),
    ('predictor', ' DETAILED ', 'detailed'),
    ('predictor', 'hybrid', 'hybrid:k=4'),
    ('predictor', 'hybrid:', 'hybrid:k=4'),
    ('predictor', 'hybrid:k=4', 'hybrid:k=4'),
    ('predictor', 'HYBRID:K=2', 'hybrid:k=2'),
    ('predictor', 'hybrid: k=4', 'hybrid:k=4'),
    ('predictor', 'hybrid:k=07', 'hybrid:k=7'),
    ('predictor', 'hybrid:k=1_0', 'hybrid:k=10'),
    ('predictor', 'learned', 'learned:n=24,seed=0'),
    ('predictor', 'learned:n=24,seed=0', 'learned:n=24,seed=0'),
    ('predictor', ' LEARNED:seed=3,n=8 ', 'learned:n=8,seed=3'),
    ('predictor', 'learned:n=8, seed=3', 'learned:n=8,seed=3'),
    ('predictor', 'learned:n=6', 'learned:n=6,seed=0'),
    ('predictor', 'interp', 'interp:anchors=1+6'),
    ('predictor', 'interp:anchors=1+6', 'interp:anchors=1+6'),
    ('predictor', 'interp:anchors=6+2', 'interp:anchors=2+6'),
    ('predictor', 'interp:anchors= 2 + 5', 'interp:anchors=2+5'),
    ('predictor', 'mppm: foa', 'mppm:foa'),  # whitespace around the head
    ('predictor', 'mppm:', 'mppm:foa'),  # `family:` is the bare shorthand
    ('predictor', 'baseline', PredictorError),
    ('predictor', 'mppm:oracle', PredictorError),
    ('predictor', '', PredictorError),
    ('predictor', 'random:n=8', PredictorError),
    ('workload', 'suite', 'suite:spec29'),
    ('workload', 'suite:spec29', 'suite:spec29'),
    ('workload', '  SUITE:SPEC29 ', 'suite:spec29'),
    ('workload', 'suite:spec29/scaled@8', 'suite:spec29/scaled@8'),
    ('workload', 'suite:spec29/SCALED@5', 'suite:spec29/scaled@5'),
    ('workload', 'suite:spec29/scaled@29', 'suite:spec29'),
    ('workload', 'suite:spec29/scaled@100', 'suite:spec29'),
    ('workload', 'suite:spec29/mem', 'suite:spec29/mem'),
    ('workload', 'suite:spec29/MIX', 'suite:spec29/mix'),
    ('workload', 'suite:spec29/mem+comp', 'suite:spec29/mem+comp'),
    ('workload', 'suite:spec29/comp+mem', 'suite:spec29/mem+comp'),
    ('workload', 'suite:spec29/mem + comp', 'suite:spec29/mem+comp'),
    ('workload', 'suite:spec29/all', 'suite:spec29'),
    ('workload', 'suite:spec29/all-mix', 'suite:spec29/mem+comp'),
    ('workload', 'suite:spec29/all-mem-comp', 'suite:spec29/mix'),
    ('workload', 'suite:spec29/mem+comp+mix', 'suite:spec29'),
    ('workload', 'suite:', 'suite:spec29'),  # `family:` is the bare shorthand
    ('workload', 'suite: spec29', 'suite:spec29'),  # whitespace around the head
    ('workload', 'suite:spec29/scaled@0', WorkloadSpecError),
    ('workload', 'random', 'random:n=8,seed=0'),
    ('workload', 'random:', 'random:n=8,seed=0'),
    ('workload', 'random:n=8,seed=0', 'random:n=8,seed=0'),
    ('workload', 'random:seed=1,n=4', 'random:n=4,seed=1'),
    ('workload', 'random: n=8', 'random:n=8,seed=0'),
    ('workload', 'RANDOM:N=4', 'random:n=4,seed=0'),
    ('workload', 'random:n=128', 'random:n=128,seed=0'),
    ('workload', 'service', 'service:n=8,seed=0'),
    ('workload', 'service:seed=3', 'service:n=8,seed=3'),
    ('workload', 'random:n=129', WorkloadSpecError),
    ('workload', 'perf:{fixture}', 'perf:{fixture},digest=20e5adf65ccb'),
    ('workload', 'PERF:{fixture},SEED=3,benchmarks=2', 'perf:{fixture},benchmarks=2,seed=3,digest=20e5adf65ccb'),
    ('workload', 'perf:{fixture},digest=20E5ADF65CCB', 'perf:{fixture},digest=20e5adf65ccb'),
    ('workload', 'perf:', WorkloadSpecError),
    ('workload', '', WorkloadSpecError),
    ('fleet', 'fleet:localhost:2', 'fleet:localhost:2'),
    ('fleet', 'fleet:localhost:02', 'fleet:localhost:2'),
    ('fleet', 'fleet:localhost:4,timeout=900', 'fleet:localhost:4,timeout=900'),
    ('fleet', 'fleet:localhost:2,timeout=600', 'fleet:localhost:2'),
    ('fleet', 'fleet:localhost:2,timeout=1e3', 'fleet:localhost:2,timeout=1000'),
    ('fleet', 'fleet:localhost:2,timeout=0.5', 'fleet:localhost:2,timeout=0.5'),
    ('fleet', 'fleet:ssh=host1,host2,python=python3.11', 'fleet:ssh=host1,host2,python=python3.11'),
    ('fleet', 'fleet:ssh=Host1', 'fleet:ssh=Host1'),
    ('fleet', 'fleet:ssh=a,b,python=python3', 'fleet:ssh=a,b'),
    ('fleet', 'fleet:ssh=a,,b', 'fleet:ssh=a,b'),
    ('fleet', 'fleet:ssh=a,timeout=5,b', 'fleet:ssh=a,b,timeout=5'),  # key=value is never a host
    ('fleet', 'fleet:attach=10.0.0.1:8001+10.0.0.2:8001', 'fleet:attach=10.0.0.1:8001+10.0.0.2:8001'),
    ('fleet', 'fleet:attach= h:1 + h:2 ,timeout=9', 'fleet:attach=h:1+h:2,timeout=9'),
    ('fleet', 'fleet:localhost: 2', 'fleet:localhost:2'),  # whitespace around the count
]


@pytest.mark.parametrize(
    "registry, spec, expected", CORPUS, ids=[f"{row[0]}:{row[1]}" for row in CORPUS]
)
def test_canonical_form(registry, spec, expected):
    canonicalise = REGISTRIES[registry]
    spec = spec.replace("{fixture}", FIXTURE)
    if isinstance(expected, str):
        assert canonicalise(spec) == expected.replace("{fixture}", FIXTURE)
    else:
        with pytest.raises(expected):
            canonicalise(spec)
