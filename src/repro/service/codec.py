"""JSON codec for :class:`~repro.core.campaign.CampaignConfig`.

The service stores each campaign's full config in the FaultDB (so workers
in other processes rebuild the exact engine) and accepts submissions over
HTTP; both need one canonical JSON shape.  Enums travel as their stable
names/values (``group``/``model`` by name, matching ``results.csv``;
``profiling`` and ``target_outcome`` by value), nested policies as plain
objects.  ``config_from_dict(config_to_dict(c)) == c`` for every config.

Rows written by earlier releases carry two retired keys, which
:func:`config_from_dict` maps onto today's fields: ``snapshot: true``
(the removed snapshot executor) becomes ``batch_launch: true``, and a
campaign-level ``block_compile: false`` becomes
``sandbox.block_compile = false``; the other values of both keys were
defaults and are dropped.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.adaptive import SamplingPlan, StoppingRule
from repro.core.bitflip import BitFlipModel
from repro.core.campaign import CampaignConfig
from repro.core.groups import InstructionGroup
from repro.core.outcomes import Outcome
from repro.core.profiler import ProfilingMode
from repro.core.resilience import RetryPolicy
from repro.errors import ParamError
from repro.runner.sandbox import SandboxConfig


def config_to_dict(config: CampaignConfig) -> dict:
    """The JSON-friendly form of a campaign config (lossless)."""
    return {
        "workload": config.workload,
        "group": config.group.name,
        "model": config.model.name,
        "num_transient": config.num_transient,
        "seed": config.seed,
        "profiling": config.profiling.value,
        "hang_budget_factor": config.hang_budget_factor,
        "fast_forward": config.fast_forward,
        "tail_fast_forward": config.tail_fast_forward,
        "batch_launch": config.batch_launch,
        "replay_cache": config.replay_cache,
        "sandbox": {
            **asdict(config.sandbox),
            "extra_env": dict(config.sandbox.extra_env),
        },
        "retry": asdict(config.retry),
        "stopping": _stopping_to_dict(config.stopping),
        "sampling": None if config.sampling is None else asdict(config.sampling),
    }


def config_from_dict(payload: dict) -> CampaignConfig:
    """Rebuild a campaign config from :func:`config_to_dict` output.

    Unknown keys raise :class:`~repro.errors.ParamError` (a submission
    typo should fail the submit, not silently run a default campaign).
    """
    if not isinstance(payload, dict):
        raise ParamError(f"campaign config must be an object, got {payload!r}")
    payload = _upgrade_retired_keys(payload)
    decoders = {
        "workload": lambda v: v,
        "group": _decode_group,
        "model": _decode_model,
        "num_transient": int,
        "seed": int,
        "profiling": ProfilingMode,
        "hang_budget_factor": int,
        "fast_forward": bool,
        "tail_fast_forward": bool,
        "batch_launch": bool,
        "replay_cache": _decode_replay_cache,
        "sandbox": _sandbox_from_dict,
        "retry": _retry_from_dict,
        "stopping": _stopping_from_dict,
        "sampling": _sampling_from_dict,
    }
    unknown = sorted(set(payload) - set(decoders))
    if unknown:
        raise ParamError(
            f"unknown campaign config key(s) {unknown}; "
            f"valid keys: {sorted(decoders)}"
        )
    kwargs = {}
    for key, value in payload.items():
        try:
            kwargs[key] = decoders[key](value)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParamError(f"bad campaign config value for {key!r}: {exc}") from None
    return CampaignConfig(**kwargs)


def decode_overrides(payload: dict) -> dict:
    """Typed override values for ``CampaignConfig.with_overrides``.

    The service submission path: a client POSTs a partial config (just the
    keys it wants to change) and the server layers it over its base config
    with ``base.with_overrides(**decode_overrides(body))`` — the same
    single override mechanism the API and CLI use.
    """
    decoded = config_from_dict(payload)
    return {key: getattr(decoded, key) for key in _upgrade_retired_keys(payload)}


def _upgrade_retired_keys(payload: dict) -> dict:
    """Map the retired keys of earlier releases onto today's fields."""
    payload = dict(payload)
    if payload.pop("snapshot", False):
        payload["batch_launch"] = True
    sandbox = payload.get("sandbox") or {}
    if not payload.pop("block_compile", True) and isinstance(sandbox, dict):
        payload["sandbox"] = {**sandbox, "block_compile": False}
    return payload


# -- nested pieces -------------------------------------------------------------


def _decode_group(value: str) -> InstructionGroup:
    try:
        return InstructionGroup[value]
    except KeyError:
        raise ValueError(
            f"unknown instruction group {value!r}; expected one of "
            f"{[member.name for member in InstructionGroup]}"
        ) from None


def _decode_model(value: str) -> BitFlipModel:
    try:
        return BitFlipModel[value]
    except KeyError:
        raise ValueError(
            f"unknown bit-flip model {value!r}; expected one of "
            f"{[member.name for member in BitFlipModel]}"
        ) from None


def _decode_replay_cache(value: bool | str | None) -> bool | str | None:
    """``replay_cache`` is tri-state: off (None/False), default dir (True),
    or an explicit cache directory (string)."""
    if value is None or isinstance(value, bool) or isinstance(value, str):
        return value
    raise ValueError(
        f"replay_cache must be null, a boolean or a directory string, "
        f"got {value!r}"
    )


def _sandbox_from_dict(payload: dict) -> SandboxConfig:
    return SandboxConfig(**payload)


def _retry_from_dict(payload: dict) -> RetryPolicy:
    return RetryPolicy(**payload)


def _stopping_to_dict(stopping: StoppingRule | None) -> dict | None:
    if stopping is None:
        return None
    return {
        "target_outcome": stopping.target_outcome.value,
        "confidence": stopping.confidence,
        "half_width": stopping.half_width,
        "min_injections": stopping.min_injections,
    }


def _stopping_from_dict(payload: dict | None) -> StoppingRule | None:
    if payload is None:
        return None
    payload = dict(payload)
    if "target_outcome" in payload:
        payload["target_outcome"] = Outcome(payload["target_outcome"])
    return StoppingRule(**payload)


def _sampling_from_dict(payload: dict | None) -> SamplingPlan | None:
    if payload is None:
        return None
    return SamplingPlan(**payload)
