"""Task profiles: the tasks to run plus per-run execution settings.

A profile bundles the task list, the provisioning token estimates, per-role
generation limits, the evaluator kind, and (for offline runs) the mock script
that drives the scripted backend.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DEFAULT_INPUT_TOKENS, DEFAULT_OUTPUT_TOKENS

DEFAULT_MAX_TOKENS = {"planner": 384, "executor": 384, "critic": 384}


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    text: str
    answer: str | None = None


@dataclass(frozen=True)
class TaskProfile:
    tasks: tuple[TaskSpec, ...]
    t_in: int = DEFAULT_INPUT_TOKENS
    t_out: int = DEFAULT_OUTPUT_TOKENS
    evaluator_kind: str = "numeric"
    max_tokens: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_MAX_TOKENS))
    mock_script: dict | None = None


def _count(value, name: str, zero_ok: bool = False) -> int:
    """A token count: an integer (not a bool) > 0, or >= 0 with `zero_ok`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < (0 if zero_ok else 1):
        raise ValueError(f"{name} must be an integer {'>= 0' if zero_ok else '> 0'}, got {value!r}")
    return value


def load_profile(path: str | Path) -> TaskProfile:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return profile_from_dict(data)


def profile_from_dict(data: dict) -> TaskProfile:
    if not isinstance(data, dict):
        raise ValueError(f"task profile must be an object, got {type(data).__name__}")
    tasks = []
    for i, entry in enumerate(data.get("tasks", [])):
        if not isinstance(entry, dict):
            raise ValueError(f"task #{i}: must be an object, got {entry!r}")
        try:
            tasks.append(
                TaskSpec(
                    task_id=str(entry.get("id", f"task-{i}")),
                    text=entry["text"],
                    answer=entry.get("answer"),
                )
            )
        except KeyError:
            raise ValueError(f"task #{i}: missing 'text'") from None

    t_in = _count(data.get("t_in", DEFAULT_INPUT_TOKENS), "t_in")
    samples = data.get("output_token_samples", [])
    if not isinstance(samples, list):
        raise ValueError(f"output_token_samples must be a list, got {samples!r}")
    # A sampled output may be empty; an explicit estimate may not.
    samples = [_count(v, f"output_token_samples[{i}]", zero_ok=True) for i, v in enumerate(samples)]
    if "t_out" in data:
        t_out = _count(data["t_out"], "t_out")
    elif samples:
        # Upper bound on output tokens: the longest sampled output.
        t_out = max(samples)
    else:
        t_out = DEFAULT_OUTPUT_TOKENS

    max_tokens = dict(DEFAULT_MAX_TOKENS)
    limits = data.get("max_tokens", {})
    if not isinstance(limits, dict):
        raise ValueError(f"max_tokens must be an object, got {limits!r}")
    for role, value in limits.items():
        if role not in max_tokens:
            raise ValueError(f"unknown role {role!r} in max_tokens")
        max_tokens[role] = _count(value, f"max_tokens.{role}")

    return TaskProfile(
        tasks=tuple(tasks),
        t_in=t_in,
        t_out=t_out,
        evaluator_kind=data.get("evaluator", "numeric"),
        max_tokens=max_tokens,
        mock_script=data.get("mock_script"),
    )
