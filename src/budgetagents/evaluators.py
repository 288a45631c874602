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


class Evaluator(Protocol):
    name: str

    def normalize(self, text: str) -> str | None: ...

    def grade(self, text: str, task: TaskSpec) -> bool | None: ...


class NumericEvaluator:
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
