"""Ablations on the iterative model itself.

Two design choices of the model:

* the exponential-moving-average smoothing factor of the slowdown
  update (§2.2 of the paper says smoothing matters for phased
  programs), and
* the normalisation of the per-iteration slowdown estimate (the literal
  Figure 2 formula versus the self-consistent one used by default —
  see ``MPPMConfig.literal_figure2_update``).
"""

from conftest import run_once

from repro.experiments.ablations import smoothing_ablation, update_rule_ablation


def test_ablation_smoothing_factor(benchmark, setup):
    result = run_once(
        benchmark,
        smoothing_ablation,
        setup,
        smoothing_factors=(0.0, 0.25, 0.5, 0.75),
        num_mixes=20,
    )
    print()
    print(result.render())

    for row in result.rows:
        assert row.stp_error < 0.15
    # The default (f=0.5) must not be far from the best setting found.
    best = min(row.stp_error for row in result.rows)
    assert result.row("f=0.50").stp_error <= best + 0.03


def test_ablation_update_rule(benchmark, setup):
    result = run_once(benchmark, update_rule_ablation, setup, num_mixes=20)
    print()
    print(result.render())

    self_consistent = result.row("self-consistent")
    literal = result.row("literal Figure 2")
    # The self-consistent update is the package default because it is at
    # least as accurate as the literal formula on this substrate.
    assert self_consistent.stp_error <= literal.stp_error + 0.01
