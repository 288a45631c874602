import re

import pytest

from budgetagents.backend import ScriptRule
from budgetagents.evaluators import LiteralEvaluator, NumericEvaluator, expected_answer, get_evaluator
from budgetagents.profile import TaskSpec
from budgetagents.topology import EVALUATOR_FAILURE, Topology, execute
from test_topology import nano_pool, registry, star_rules


def test_numeric_extracts_final_number():
    ev = NumericEvaluator()
    assert ev.normalize("3 + 4 = 7, so the answer is 7") == "7.0"
    assert ev.normalize("first 5 then 12.5") == "12.5"
    assert ev.normalize("no digits at all") is None
    assert ev.normalize("#### -0") == ev.normalize("-0.0") == ev.normalize("0") == "0.0"  # one zero


@pytest.mark.parametrize("text, expected", [
    (".5", "0.5"),  # a leading dot
    ("#### -.25", "-0.25"),
    ("1e3", "1000.0"),  # an exponent
    ("2.5e-3", "0.0025"),
    ("the values are 1,2,3", "3.0"),  # commas not in groups of three separate a list
    ("1,000", "1000.0"),  # thousands groups
    ("#### 1,234.5", "1234.5"),
    ("12,345,678.9", "12345678.9"),
    ("total 12.", "12.0"),  # a full stop is not a decimal point
    ("-0", "0.0"),
    ("Adding 34 and 122. #### 156", "156.0"),
    ("12.05.2024", "2024.0"),  # a dot after a number's decimal part starts no fraction
    ("1.2.3", "3.0"),
])
def test_numeric_reads_number_forms(text, expected):
    assert NumericEvaluator().normalize(text) == expected


def test_numeric_honors_answer_marker():
    ev = NumericEvaluator()
    assert ev.normalize("We add 40 and 2.\n#### 42") == "42.0"
    assert ev.normalize("step 1: 99\n#### 1,235") == "1235.0"


def test_numeric_grade():
    ev = NumericEvaluator()
    task = TaskSpec("t", "six by seven", answer="42")
    assert ev.grade("the result is 42", task) is True
    assert ev.grade("the result is 42.0", task) is True
    assert ev.grade("the result is 41", task) is False
    assert ev.grade("nothing numeric", task) is False
    assert ev.grade("#### -0", TaskSpec("t", "two minus two", answer="0")) is True
    assert ev.grade("the result is 0", TaskSpec("t", "two minus two", answer="-0")) is True


def test_star_counts_negative_zero_and_zero_as_one_answer():
    backends, _ = registry(star_rules(["I get 3", "#### -0", "it is 0"]))
    task = TaskSpec("t", "What is 2 minus 2?", answer="0")
    trace = execute(task, nano_pool(3), Topology.STAR, 10_000.0, backends, NumericEvaluator())
    assert trace.final_answer == "#### -0"  # two votes for zero outweigh the first seat's 3
    assert trace.success is True


def test_numeric_ungraded_without_answer():
    ev = NumericEvaluator()
    assert ev.grade("42", TaskSpec("t", "q", answer=None)) is None


def test_numeric_rejects_non_numeric_expected():
    ev = NumericEvaluator()
    with pytest.raises(ValueError):
        ev.grade("42", TaskSpec("t", "q", answer="forty-two"))


def test_literal():
    ev = LiteralEvaluator()
    task = TaskSpec("t", "q", answer="hello world")
    assert ev.grade("  hello world\n", task) is True
    assert ev.grade("hello", task) is False
    assert ev.grade("hello", TaskSpec("t", "q", answer=None)) is None  # ungraded
    assert ev.normalize("   ") is None


@pytest.mark.parametrize("evaluator, answer", [(NumericEvaluator(), "forty-two"), (LiteralEvaluator(), "   ")])
def test_every_evaluator_refuses_an_answer_it_cannot_read_with_one_message(evaluator, answer):
    # A blank literal answer is refused as a non-number is by the numeric
    # evaluator, even against a blank output.
    task = TaskSpec("t1", "q", answer=answer)
    message = f"task 't1': the {evaluator.name} evaluator cannot read answer {answer!r}"
    for read in (lambda: expected_answer(evaluator, task), lambda: evaluator.grade("   ", task)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read()


def test_a_blank_literal_answer_halts_the_run_as_an_evaluator_failure():
    backends, _ = registry([ScriptRule(role="executor", text="   ", completion_tokens=5)])
    task = TaskSpec("t1", "q", answer="")
    trace = execute(task, nano_pool(2), Topology.LINEAR, 10_000.0, backends, LiteralEvaluator())
    assert (trace.success, trace.halt) == (False, EVALUATOR_FAILURE)
    assert trace.detail == "evaluator failure: task 't1': the literal evaluator cannot read answer ''"
    assert len(trace.calls) == 2


def test_get_evaluator():
    assert get_evaluator("numeric").name == "numeric"
    assert get_evaluator("literal").name == "literal"
    with pytest.raises(ValueError, match="unknown evaluator"):
        get_evaluator("code")
