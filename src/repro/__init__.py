"""repro — a Python reproduction of NVBitFI (DSN 2021).

NVBitFI is NVIDIA's dynamic fault-injection tool for GPUs, built on the
NVBit binary-instrumentation framework.  This package reproduces the full
system on a simulated GPU substrate:

* :mod:`repro.sass` — a SASS-style ISA (171-opcode Volta-like table),
  assembler/disassembler and binary encoding;
* :mod:`repro.gpusim` — a functional SIMT GPU simulator (SMs, warps,
  divergence stacks, shared/global memory, barriers);
* :mod:`repro.cuda` — a miniature CUDA driver/runtime with dynamic
  library loading;
* :mod:`repro.nvbit` — the dynamic binary-instrumentation framework
  (driver-event callbacks, instruction inspection, selective JIT);
* :mod:`repro.core` — NVBitFI itself: exact/approximate profilers,
  transient/permanent/intermittent injectors, fault dictionary, outcome
  classification (Table V) and campaign orchestration;
* :mod:`repro.workloads` — the 15 SpecACCEL-style evaluation programs of
  Table IV plus the AV-pipeline case study.

Quickstart (the stable facade lives in :mod:`repro.api`)::

    import repro

    result = repro.run_campaign(
        repro.CampaignConfig(workload="303.ostencil", num_transient=100, seed=1)
    )
    print(result.tally.report())
"""

from repro.api import InjectResult, inject, profile, run_campaign, select_sites
from repro.core import (
    BitFlipModel,
    CampaignConfig,
    CampaignKind,
    FaultDictionary,
    InstructionGroup,
    IntermittentInjectorTool,
    IntermittentParams,
    Outcome,
    PermanentInjectorTool,
    PermanentParams,
    ProfilerTool,
    ProfilingMode,
    ProgramProfile,
    RetryPolicy,
    SamplingPlan,
    StoppingRule,
    TransientInjectorTool,
    TransientParams,
    classify,
)
from repro.cuda import CudaRuntime
from repro.gpusim import Device
from repro.kbuild import KernelBuilder
from repro.nvbit import NVBitRuntime, NVBitTool
from repro.runner import Application, SandboxConfig, run_app
from repro.sass import assemble, disassemble
from repro.workloads import all_workloads, get_workload

__version__ = "1.0.0"

__all__ = [
    "profile",
    "select_sites",
    "inject",
    "run_campaign",
    "InjectResult",
    "CampaignConfig",
    "CampaignKind",
    "InstructionGroup",
    "BitFlipModel",
    "TransientParams",
    "PermanentParams",
    "IntermittentParams",
    "ProfilerTool",
    "ProfilingMode",
    "ProgramProfile",
    "TransientInjectorTool",
    "PermanentInjectorTool",
    "IntermittentInjectorTool",
    "FaultDictionary",
    "Outcome",
    "classify",
    "RetryPolicy",
    "StoppingRule",
    "SamplingPlan",
    "Device",
    "CudaRuntime",
    "NVBitRuntime",
    "NVBitTool",
    "KernelBuilder",
    "Application",
    "SandboxConfig",
    "run_app",
    "assemble",
    "disassemble",
    "get_workload",
    "all_workloads",
    "__version__",
]
