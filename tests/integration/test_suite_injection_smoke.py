"""Per-program injection smoke: one real fault in each of the 15 programs.

Guards against any workload drifting into a state where the injection
machinery silently stops reaching it (e.g. kernel renames, group droughts).
"""

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.groups import InstructionGroup
from repro.core.outcomes import Outcome
from repro.workloads import WORKLOAD_CLASSES


@pytest.mark.parametrize("cls", WORKLOAD_CLASSES, ids=lambda c: c.name)
def test_one_injection_lands(cls):
    campaign = CampaignEngine(cls(), CampaignConfig(num_transient=1, seed=31))
    result = campaign.run_transient()
    item = result.results[0]
    assert item.record.injected, item.params
    assert item.outcome.outcome in Outcome
    # The site was drawn from the default G_GP population.
    assert item.params.group is InstructionGroup.G_GP


@pytest.mark.parametrize(
    "cls", WORKLOAD_CLASSES[:4], ids=lambda c: c.name
)
def test_fp32_group_reachable(cls):
    """The first few programs are FP-heavy; a G_FP32 site must exist."""
    config = CampaignConfig(
        num_transient=1, seed=5, group=InstructionGroup.G_FP32
    )
    campaign = CampaignEngine(cls(), config)
    result = campaign.run_transient()
    assert result.results[0].record.injected
