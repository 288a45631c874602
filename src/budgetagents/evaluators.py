"""Answer evaluators: normalize agent outputs and grade them against ground truth.

The evaluator interface is pluggable; shipped implementations cover numeric
exact match (the final number in the output, honoring #### answer markers)
and literal string match. grade() returns None when the task carries no
expected answer, so callers can distinguish "wrong" from "ungraded".
"""

from __future__ import annotations

import re
from typing import Protocol

from .profile import TaskSpec

_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


class Evaluator(Protocol):
    name: str

    def normalize(self, text: str) -> str | None: ...

    def grade(self, text: str, task: TaskSpec) -> bool | None: ...


class NumericEvaluator:
    """Grades by the final number in the output; '####' marks the answer span."""

    name = "numeric"

    def normalize(self, text: str) -> str | None:
        if "####" in text:
            text = text.rsplit("####", 1)[1]
        matches = _NUMBER_RE.findall(text)
        if not matches:
            return None
        value = matches[-1].replace(",", "")
        try:
            return repr(float(value) + 0.0)  # + 0.0 folds -0.0 into 0.0
        except ValueError:
            return None

    def grade(self, text: str, task: TaskSpec) -> bool | None:
        if task.answer is None:
            return None
        got = self.normalize(text)
        expected = self.normalize(task.answer)
        if expected is None:
            raise ValueError(f"task {task.id!r}: expected answer {task.answer!r} is not numeric")
        return got is not None and got == expected


class LiteralEvaluator:
    """Grades by whitespace-stripped string equality."""

    name = "literal"

    def normalize(self, text: str) -> str | None:
        stripped = text.strip()
        return stripped if stripped else None

    def grade(self, text: str, task: TaskSpec) -> bool | None:
        if task.answer is None:
            return None
        return self.normalize(text) == self.normalize(task.answer)


_EVALUATORS = {
    NumericEvaluator.name: NumericEvaluator,
    LiteralEvaluator.name: LiteralEvaluator,
}


def get_evaluator(kind: str) -> Evaluator:
    try:
        return _EVALUATORS[kind]()
    except KeyError:
        raise ValueError(f"unknown evaluator {kind!r}; available: {sorted(_EVALUATORS)}") from None
