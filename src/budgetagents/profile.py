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
from .schema import ANY, INT, STRING, check, each, non_negative, nullable, obj, positive

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


_TASK_FIELDS = {"id": STRING, "text": STRING, "answer": nullable(STRING)}
_PROFILE_FIELDS = {
    "tasks": each(obj(_TASK_FIELDS, required=("text",))),
    "t_in": positive(INT),
    # A sampled output may be empty; an explicit estimate may not.
    "t_out": positive(INT),
    "output_token_samples": each(non_negative(INT)),
    "evaluator": STRING,
    "max_tokens": obj({role: positive(INT) for role in DEFAULT_MAX_TOKENS}),
    "mock_script": ANY,  # checked by ScriptedBackend.from_config, in mock runs
}


def load_profile(path: str | Path) -> TaskProfile:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return profile_from_dict(data)


def profile_from_dict(data: dict) -> TaskProfile:
    check(data, _PROFILE_FIELDS, name="task profile")
    tasks = tuple(
        TaskSpec(task_id=entry.get("id", f"task-{i}"), text=entry["text"], answer=entry.get("answer"))
        for i, entry in enumerate(data.get("tasks", []))
    )
    samples = data.get("output_token_samples", [])
    if "t_out" in data:
        t_out = data["t_out"]
    elif samples:
        # Upper bound on output tokens: the longest sampled output.
        t_out = max(samples)
    else:
        t_out = DEFAULT_OUTPUT_TOKENS
    return TaskProfile(
        tasks=tasks,
        t_in=data.get("t_in", DEFAULT_INPUT_TOKENS),
        t_out=t_out,
        evaluator_kind=data.get("evaluator", "numeric"),
        max_tokens={**DEFAULT_MAX_TOKENS, **data.get("max_tokens", {})},
        mock_script=data.get("mock_script"),
    )
