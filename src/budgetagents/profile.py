"""Task profiles: the tasks to run plus per-run execution settings.

A profile bundles the task list, the provisioning token estimates, per-role
generation limits, the evaluator kind, and (for offline runs) the mock script
that drives the scripted backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .schema import ANY, INT, STRING, check, each, non_negative, nullable, obj, positive, read_json, spec, table, unique

# The roles a topology seats an agent in; a profile caps each role's output.
ROLE_PLANNER, ROLE_EXECUTOR, ROLE_CRITIC = ROLES = ("planner", "executor", "critic")
DEFAULT_MAX_TOKENS = dict.fromkeys(ROLES, 384)
# A call's token estimates when the profile gives none: provisioning prices a
# tier at (t_in, t_out), and the pre-call guard plans each prompt at t_in.
DEFAULT_INPUT_TOKENS = 500
DEFAULT_OUTPUT_TOKENS = 500


# Each field is a key of a profile's task entry, checked by its spec; a file
# may leave out `id`, and the task then takes `task-<index>`.
@dataclass(frozen=True)
class TaskSpec:
    id: str = spec(STRING)
    text: str = spec(STRING)
    answer: str | None = spec(nullable(STRING), default=None)


# Each field is a key of the profile file, checked by its spec, and each
# default stands for a key the file leaves out.
@dataclass(frozen=True)
class TaskProfile:
    tasks: tuple[TaskSpec, ...] = spec(each(obj(table(TaskSpec), required=("text",))))
    t_in: int = spec(positive(INT), default=DEFAULT_INPUT_TOKENS)
    # A sampled output may be empty; an explicit estimate may not.
    t_out: int = spec(positive(INT), default=DEFAULT_OUTPUT_TOKENS)
    evaluator: str = spec(STRING, default="numeric")
    max_tokens: dict[str, int] = spec(
        obj({role: positive(INT) for role in ROLES}), default_factory=lambda: dict(DEFAULT_MAX_TOKENS)
    )
    mock_script: dict | None = spec(ANY, default=None)  # checked by ScriptedBackend.from_config, in mock runs


# The file's one key with no field: the sampled output lengths that bound t_out.
_PROFILE_FIELDS = {**table(TaskProfile), "output_token_samples": each(non_negative(INT))}


def load_profile(path: str | Path) -> TaskProfile:
    return profile_from_dict(read_json(path))


def profile_from_dict(data: dict) -> TaskProfile:
    given = dict(check(data, _PROFILE_FIELDS, name="task profile"))
    tasks = given["tasks"] = tuple(
        TaskSpec(**{"id": f"task-{i}", **entry}) for i, entry in enumerate(data.get("tasks", []))
    )
    unique((task.id for task in tasks), "tasks", "id")
    samples = given.pop("output_token_samples", None)
    if "t_out" not in data and samples:
        # Upper bound on output tokens: the longest sampled output.
        given["t_out"] = max(samples)
    if "max_tokens" in data:
        given["max_tokens"] = {**DEFAULT_MAX_TOKENS, **data["max_tokens"]}
    return TaskProfile(**given)
