"""Answer evaluators: normalize agent outputs and grade them against ground truth.

The evaluator interface is pluggable; shipped implementations cover numeric
exact match (the final number in the output, honoring #### answer markers)
and literal string match, and both grade by `Evaluator.grade`. grade()
returns None when the task carries no expected answer, so callers can
distinguish "wrong" from "ungraded", and raises when it cannot read one.
"""

from __future__ import annotations

import re
from typing import Protocol

from .profile import TaskSpec

# A number: digits that may hold commas and a decimal part, or a decimal part
# alone (".5"); either may be negative and take an exponent. A decimal part
# alone is one only where no digit or dot comes before its dot, so "1.2.3"
# reads 3, not .3. A match with commas is resolved in `normalize`: thousands
# groups of three, or else a list whose last item counts. Each branch starts
# with a fixed character, which lets the scan skip to the next candidate; a
# leading optional sign or lookbehind would not.
_DIGITS = r"\d[\d,]*(?:\.\d+)?"
_FRACTION = r"\.(?<![\d.]\.)\d+"
_NUMBER_RE = re.compile(rf"(?:{_DIGITS}|-{_DIGITS}|{_FRACTION}|-{_FRACTION})(?:[eE][-+]?\d+)?")
_GROUPED_RE = re.compile(r"-?\d{1,3}(?:,\d{3})+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def expected_answer(evaluator: Evaluator, task: TaskSpec) -> str | None:
    """The task's answer as `evaluator` normalizes it, None when the task
    carries none; a ValueError when the evaluator cannot read it."""
    if task.answer is None:
        return None
    expected = evaluator.normalize(task.answer)
    if expected is None:
        raise ValueError(f"task {task.id!r}: the {evaluator.name} evaluator cannot read answer {task.answer!r}")
    return expected


class Evaluator(Protocol):
    """Shipped evaluators inherit `grade`, the one answer rule; a plugged-in one may state its own."""

    name: str

    def normalize(self, text: str) -> str | None: ...

    def grade(self, text: str, task: TaskSpec) -> bool | None:
        expected = expected_answer(self, task)
        return None if expected is None else self.normalize(text) == expected


class NumericEvaluator(Evaluator):
    """Grades by the final number in the output; '####' marks the answer span."""

    name = "numeric"

    def normalize(self, text: str) -> str | None:
        tail = text.rpartition("####")[2].strip()  # after the last marker, if any
        if tail.isdecimal():  # a bare number, the common graded form: the scan would match all of it
            return repr(float(tail) + 0.0)
        matches = _NUMBER_RE.findall(tail)
        if not matches:
            return None
        value = matches[-1]
        if "," in value:
            value = value.rstrip(",")
            value = value.replace(",", "") if _GROUPED_RE.fullmatch(value) else value.rpartition(",")[2]
        try:
            return repr(float(value) + 0.0)  # + 0.0 folds -0.0 into 0.0
        except ValueError:
            return None


class LiteralEvaluator(Evaluator):
    """Grades by whitespace-stripped string equality."""

    name = "literal"

    def normalize(self, text: str) -> str | None:
        stripped = text.strip()
        return stripped if stripped else None


_EVALUATORS = {
    NumericEvaluator.name: NumericEvaluator,
    LiteralEvaluator.name: LiteralEvaluator,
}


def get_evaluator(kind: str) -> Evaluator:
    try:
        return _EVALUATORS[kind]()
    except KeyError:
        raise ValueError(f"unknown evaluator {kind!r}; available: {sorted(_EVALUATORS)}") from None
