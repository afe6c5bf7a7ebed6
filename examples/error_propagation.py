#!/usr/bin/env python
"""Watching an injected error propagate through device memory.

"A key component of these dependability characteristics is the propagation
of errors and their eventual effect on system outputs" (paper, abstract).
This example injects faults into an iterative stencil and traces the
corruption front through memory after every dynamic kernel: some faults
spread across the grid (SDC), some are overwritten before they matter
(architectural masking), some never reach memory at all.

Run:  python examples/error_propagation.py
"""

from __future__ import annotations

from repro.core import (
    CampaignConfig,
    CampaignEngine,
    Outcome,
    TransientInjectorTool,
    classify,
    trace_propagation,
)
from repro.runner import run_app
from repro.workloads import get_workload


def main() -> None:
    app = get_workload("303.ostencil")
    engine = CampaignEngine(app, CampaignConfig(seed=77))
    sites = engine.select_sites(8)
    config = engine.injection_config()

    print(f"tracing error propagation for 8 faults in {app.name}\n")
    for index, site in enumerate(sites):
        injector = TransientInjectorTool(site)
        observed = run_app(app, preload=[injector], config=config)
        outcome = classify(app, engine.golden, observed)

        # A second pair of runs with the memory tracer attached.
        trace = trace_propagation(app, TransientInjectorTool(site), config)

        print(f"fault {index}: {site.kernel_name}[{site.kernel_count}] "
              f"instr {site.instruction_count} -> {outcome.label()}")
        if injector.record.injected:
            print(f"  {injector.record.describe()}")
        for line in trace.describe().splitlines():
            print(f"  {line}")
        if trace.points and trace.peak_corruption:
            front = " -> ".join(
                str(point.corrupt_bytes) for point in trace.points[:12]
            )
            print(f"  corruption front (bytes/launch): {front}"
                  + (" ..." if len(trace.points) > 12 else ""))
        if outcome.outcome is Outcome.MASKED and trace.peak_corruption:
            print("  NOTE: corruption reached memory but the SDC check "
                  "tolerated or the program overwrote it")
        print()


if __name__ == "__main__":
    main()
