"""JSON payloads shared by the service endpoints and the CLI.

``GET /models`` and ``repro models --json`` (likewise ``/workloads``
and ``repro workloads --json``) return exactly these payloads, so load
generators and scripts consume one machine-readable registry format no
matter which surface they talk to.  :func:`prediction_payload` is the
wire form of a :class:`~repro.core.result.MixPrediction` — its
``to_dict`` serialisation (the same bytes the engine's result cache
persists) plus the derived STP/ANTT metrics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import MPPM_KERNELS
from repro.core.result import MixPrediction
from repro.predictors import DEFAULT_PREDICTOR, describe_predictors
from repro.workloads import (
    DEFAULT_WORKLOAD,
    available_workloads,
    describe_workloads,
)


def models_payload() -> Dict:
    """The predictor registry: ``{"default": ..., "predictors": [...]}``.

    ``mppm_kernels`` names the solver kernels every ``mppm:*`` entry can
    run on; each served prediction's ``kernel`` field records which one
    produced it.  The default, ``batched``, solves a one-mix batch (most
    served requests) program by program on Python floats and larger
    batches mix-major in numpy; both paths and the ``reference`` loop
    are bit-identical.
    """
    return {
        "default": DEFAULT_PREDICTOR,
        "mppm_kernels": {"default": "batched", "available": list(MPPM_KERNELS)},
        "predictors": [
            {"spec": spec, "description": description}
            for spec, description in describe_predictors()
        ],
    }


def workloads_payload() -> Dict:
    """The workload registry: ``{"default": ..., "workloads": [...]}``.

    Each row carries the family's spec *pattern* plus a constructible
    ``example`` spec (patterns like ``random:n=N,seed=S`` are grammar,
    not valid input).
    """
    rows: List[Dict] = [
        {"spec": pattern, "example": example, "description": description}
        for example, (pattern, description) in zip(
            available_workloads(), describe_workloads()
        )
    ]
    return {"default": DEFAULT_WORKLOAD, "workloads": rows}


def prediction_payload(prediction: MixPrediction) -> Dict:
    """One prediction as served by ``POST /predict``.

    The ``to_dict`` form plus the two headline metrics; bit-identical
    to what the batch CLI computes for the same specs because the
    underlying prediction object is the same.
    """
    payload = prediction.to_dict()
    payload["stp"] = prediction.system_throughput
    payload["antt"] = prediction.average_normalized_turnaround_time
    return payload
