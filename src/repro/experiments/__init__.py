"""Experiment harness: one module per table/figure of the paper.

Every experiment is a plain function that takes an
:class:`ExperimentSetup` (the shared bundle of benchmark suite,
machine configurations, cached single-core profiles and cached
reference simulations) plus the experiment's parameters, and returns a
result object that knows how to render itself as the rows/series the
paper reports.  The ``benchmarks/`` directory contains one
pytest-benchmark target per experiment that simply calls these
functions and prints the result.

Paper mapping
-------------
=====================  ==========================================
Module                 Paper artefact
=====================  ==========================================
``configurations``     Tables 1 and 2
``workload_space``     §1 workload-count explosion
``variability``        Figure 3
``accuracy``           Figures 4 and 5 (+ §4.2 16-core numbers)
``speed``              §4.3 model-vs-simulation speed comparison
``ranking``            Figure 7
``agreement``          Figure 8
``stress``             Figure 9, Figure 6 and the §6 analysis
``ablations``          §2.2/§2.3 design-choice ablations
=====================  ==========================================
"""

from repro.experiments.setup import SIMULATE, ExperimentConfig, ExperimentSetup, default_setup
from repro.experiments.results import MixEvaluation

__all__ = [
    "ExperimentConfig",
    "ExperimentSetup",
    "SIMULATE",
    "default_setup",
    "MixEvaluation",
]
