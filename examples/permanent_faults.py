#!/usr/bin/env python
"""Permanent and intermittent fault campaigns (paper §III-B and §V).

Runs the paper's permanent-fault methodology on one program — one injection
per *executed* opcode, outcomes weighted by each opcode's dynamic
instruction share (Figure 3) — then shows the §V intermittent-fault
extension sweeping the activation probability on the heaviest opcode.

Run:  python examples/permanent_faults.py [workload]
"""

from __future__ import annotations

import sys

from repro.core import CampaignConfig, CampaignEngine, IntermittentParams
from repro.workloads import get_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "359.miniGhost"
    engine = CampaignEngine(get_workload(workload), CampaignConfig(seed=7))
    profile = engine.run_profile()

    print(f"== permanent-fault campaign on {workload} ==")
    print(f"{len(profile.executed_opcodes())} executed opcodes "
          f"(the other {171 - len(profile.executed_opcodes())} of the 171 "
          f"are skipped, as in paper Sec. IV-C)\n")

    result = engine.run_permanent()
    print(f"{'opcode':8} {'weight':>7} {'activations':>12}  outcome")
    for item in sorted(result.results, key=lambda r: -r.weight):
        print(f"{item.opcode:8} {item.weight:7.3f} {item.activations:12d}  "
              f"{item.outcome.label()}")
    print(f"\nweighted outcomes (Figure 3): {result.tally.report()}")

    # -- intermittent extension ------------------------------------------------
    heaviest = max(result.results, key=lambda r: r.weight)
    print(f"\n== intermittent faults on {heaviest.opcode} "
          f"(site: SM {heaviest.params.sm_id}, lane {heaviest.params.lane_id}) ==")
    print(f"{'p(active)':>10} {'process':>8} {'activations':>12}  outcome")
    sweep = [
        (probability, process)
        for probability in (0.05, 0.25, 1.0)
        for process in ("random", "bursty")
    ]
    outcomes = engine.run_intermittent([
        IntermittentParams(
            heaviest.params,
            process=process,
            activation_probability=probability,
            burst_length=8.0,
            seed=42,
        )
        for probability, process in sweep
    ])
    for (probability, process), outcome in zip(sweep, outcomes):
        print(f"{probability:10.2f} {process:>8} {outcome.activations:12d}  "
              f"{outcome.outcome.label()}")


if __name__ == "__main__":
    main()
