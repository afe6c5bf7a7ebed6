"""Ablation — selective dynamic instrumentation (the core NVBitFI design).

The paper's central performance claim (§I, §V): NVBitFI limits
instrumentation to *the dynamic instance of the target kernel*; everything
else runs unmodified.  The ablation compares three injector variants on
the same fault site:

* **selective** (NVBitFI): only the targeted dynamic kernel instance runs
  instrumented;
* **kernel-wide** (SASSIFI-style static instrumentation): every instance of
  the target static kernel runs instrumented;
* **whole-program** (debugger-style, GPU-Qin/cuda-gdb class): every kernel
  of every launch runs instrumented.

Simulated-cycle overheads must be strictly ordered.
"""

from __future__ import annotations

import statistics

from benchmarks.harness import campaign_seed, emit, workload_names
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.groups import instruction_in_group
from repro.core.injector import TransientInjectorTool
from repro.cuda.driver import CudaEvent
from repro.nvbit.instr import IPoint
from repro.runner.sandbox import run_app
from repro.utils.text import format_table
from repro.workloads import get_workload


class KernelWideInjector(TransientInjectorTool):
    """Ablation: instrument every dynamic instance of the target kernel."""

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is not CudaEvent.LAUNCH_KERNEL:
            return
        func = payload.func
        if func.name != self.params.kernel_name:
            return
        if not is_exit:
            instance = self._instance_counter.get(func.name, 0)
            self._instrument(func)
            self.nvbit.enable_instrumented(func, True)  # every instance
            self._armed = (
                instance == self.params.kernel_count and not self.record.injected
            )
            if self._armed:
                self._instr_counter = 0
        else:
            self._instance_counter[func.name] = (
                self._instance_counter.get(func.name, 0) + 1
            )
            self._armed = False


class WholeProgramInjector(KernelWideInjector):
    """Ablation: instrument every instruction of every kernel."""

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is not CudaEvent.LAUNCH_KERNEL:
            return
        func = payload.func
        if not is_exit:
            if func not in self._instrumented:
                for instr in self.nvbit.get_instrs(func):
                    if instruction_in_group(instr.raw, self.params.group):
                        instr.insert_call(self._visit, IPoint.AFTER)
                    else:
                        instr.insert_call(self._observe, IPoint.AFTER)
                self._instrumented.add(func)
            self.nvbit.enable_instrumented(func, True)
            if func.name == self.params.kernel_name:
                instance = self._instance_counter.get(func.name, 0)
                self._armed = (
                    instance == self.params.kernel_count
                    and not self.record.injected
                )
                if self._armed:
                    self._instr_counter = 0
        else:
            if func.name == self.params.kernel_name:
                self._instance_counter[func.name] = (
                    self._instance_counter.get(func.name, 0) + 1
                )
                self._armed = False

    def _observe(self, site) -> None:
        """Debugger-style per-instruction state maintenance (pure overhead)."""

    def _visit(self, site) -> None:
        if self._armed:
            super()._visit(site)


def _measure():
    rows = []
    ratios = {"kernel-wide": [], "whole-program": []}
    for name in workload_names():
        engine = CampaignEngine(
            get_workload(name), CampaignConfig(seed=campaign_seed())
        )
        engine.run_profile()
        site = engine.select_sites(1)[0]
        config = engine.injection_config()
        golden_cycles = engine.golden.cycles

        cycles = {}
        for label, factory in (
            ("selective", TransientInjectorTool),
            ("kernel-wide", KernelWideInjector),
            ("whole-program", WholeProgramInjector),
        ):
            injector = factory(site)
            artifacts = run_app(engine.app, preload=[injector], config=config)
            assert injector.record.injected, (name, label)
            cycles[label] = artifacts.cycles / golden_cycles
        rows.append([
            name,
            f"{cycles['selective']:.1f}x",
            f"{cycles['kernel-wide']:.1f}x",
            f"{cycles['whole-program']:.1f}x",
        ])
        ratios["kernel-wide"].append(cycles["kernel-wide"] / cycles["selective"])
        ratios["whole-program"].append(
            cycles["whole-program"] / cycles["selective"]
        )
    return rows, ratios


def test_ablation_selective_instrumentation(benchmark):
    rows, ratios = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = format_table(
        ["Program", "Selective (NVBitFI)", "Kernel-wide (SASSIFI-style)",
         "Whole-program (debugger-style)"],
        rows,
        title="Ablation: injection-run overhead vs instrumentation scope "
              "(x over uninstrumented, simulated cycles)",
    )
    summary = (
        f"\nmedian cost of dropping selectivity: "
        f"kernel-wide {statistics.median(ratios['kernel-wide']):.1f}x, "
        f"whole-program {statistics.median(ratios['whole-program']):.1f}x "
        f"the selective injector's runtime"
    )
    emit("ablation_selective", table + summary)
    # Selectivity must never lose, and whole-program must be the worst.
    assert statistics.median(ratios["kernel-wide"]) >= 1.0
    assert statistics.median(ratios["whole-program"]) >= statistics.median(
        ratios["kernel-wide"]
    )
