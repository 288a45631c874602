"""Task profiles: the tasks to run plus per-run execution settings.

A profile bundles the task list, the provisioning token estimates, per-role
generation limits, the evaluator kind, and (for offline runs) the mock script
that drives the scripted backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DEFAULT_INPUT_TOKENS, DEFAULT_OUTPUT_TOKENS
from .schema import ANY, INT, STRING, check, each, non_negative, nullable, obj, positive, read_json

# The roles a topology seats an agent in; a profile caps each role's output.
ROLE_PLANNER, ROLE_EXECUTOR, ROLE_CRITIC = ROLES = ("planner", "executor", "critic")
DEFAULT_MAX_TOKENS = dict.fromkeys(ROLES, 384)


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
# The file's keys that TaskProfile takes as they are, each to its field.
_PROFILE_KEYS = {"t_in": "t_in", "t_out": "t_out", "evaluator": "evaluator_kind", "mock_script": "mock_script"}


def load_profile(path: str | Path) -> TaskProfile:
    return profile_from_dict(read_json(path))


def profile_from_dict(data: dict) -> TaskProfile:
    check(data, _PROFILE_FIELDS, name="task profile")
    tasks = tuple(
        TaskSpec(task_id=entry.get("id", f"task-{i}"), text=entry["text"], answer=entry.get("answer"))
        for i, entry in enumerate(data.get("tasks", []))
    )
    first = {}  # task id -> index of the task that has it
    for i, task in enumerate(tasks):
        if first.setdefault(task.task_id, i) != i:
            raise ValueError(f"tasks[{first[task.task_id]}] and tasks[{i}] have the same id {task.task_id!r}")
    # TaskProfile's own defaults stand for the keys the file leaves out.
    given = {_PROFILE_KEYS[key]: value for key, value in data.items() if key in _PROFILE_KEYS}
    if "t_out" not in data and data.get("output_token_samples"):
        # Upper bound on output tokens: the longest sampled output.
        given["t_out"] = max(data["output_token_samples"])
    if "max_tokens" in data:
        given["max_tokens"] = {**DEFAULT_MAX_TOKENS, **data["max_tokens"]}
    return TaskProfile(tasks=tasks, **given)
