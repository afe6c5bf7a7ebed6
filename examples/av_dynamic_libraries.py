#!/usr/bin/env python
"""The paper's motivating scenario: injecting into an AV application built
from dynamically loaded GPU libraries (paper §IV, first paragraph).

The host program loads 'libperception.so' and 'libplanning.so' at runtime;
their kernels were never part of the application build.  NVBitFI attaches
via the preload mechanism and can profile and inject into them without any
source or recompilation — the capability the paper argues no other tool
provides for a large real-time system.

Run:  python examples/av_dynamic_libraries.py
"""

from __future__ import annotations

from collections import Counter

from repro.core import CampaignConfig, CampaignEngine, Outcome
from repro.workloads import AvPipeline


def main() -> None:
    app = AvPipeline()
    engine = CampaignEngine(app, CampaignConfig(num_transient=60, seed=99))

    print("== golden frame pipeline ==")
    golden = engine.run_golden()
    print(golden.stdout.strip())

    print("\n== profiling the dynamically loaded libraries ==")
    profile = engine.run_profile()
    per_kernel = Counter()
    for kernel_profile in profile.kernels:
        per_kernel[kernel_profile.kernel_name] += kernel_profile.total()
    for kernel, instructions in per_kernel.most_common():
        print(f"  {kernel:24} {instructions:8,} dynamic instructions")

    print("\n== 60-fault transient campaign across the pipeline ==")
    result = engine.run_transient()
    print(result.tally.report(samples=60))

    by_kernel = Counter()
    backups = 0
    for item in result.results:
        if item.record.injected:
            by_kernel[item.record.kernel_name] += 1
        if item.outcome.outcome is Outcome.DUE and "exit status" in item.outcome.symptom:
            backups += 1
    print("\ninjections per library kernel:")
    for kernel, count in by_kernel.most_common():
        print(f"  {count:3d}  {kernel}")
    print(f"\nframes where the safety monitor engaged the backup mode "
          f"(application-detected DUE): {backups}")

    potential = sum(1 for r in result.results if r.outcome.potential_due)
    print(f"potential DUEs (GPU detected the error, host never checked): "
          f"{potential}")


if __name__ == "__main__":
    main()
