"""Prediction-error metrics.

Section 4.2 of the paper reports MPPM's accuracy as the average
absolute relative error between the predicted and the measured metric
(STP, ANTT or per-program slowdown) across workload mixes.
"""

from __future__ import annotations


class ErrorMetricError(ValueError):
    """Raised for invalid error-metric inputs."""


def absolute_relative_error(predicted: float, measured: float) -> float:
    """``|predicted - measured| / measured``."""
    if measured == 0:
        raise ErrorMetricError("measured value must be non-zero")
    return abs(predicted - measured) / abs(measured)
