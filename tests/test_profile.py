import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetagents.profile import TaskSpec, load_profile, profile_from_dict


def test_defaults():
    profile = profile_from_dict({"tasks": [{"id": "a", "text": "do it"}]})
    assert profile.t_in == 500
    assert profile.t_out == 500
    assert profile.evaluator_kind == "numeric"
    assert profile.max_tokens == {"planner": 384, "executor": 384, "critic": 384}
    assert profile.tasks == (TaskSpec("a", "do it", None),)


def test_t_out_from_samples():
    profile = profile_from_dict({"tasks": [], "output_token_samples": [120, 480, 333]})
    assert profile.t_out == 480
    assert profile_from_dict({"tasks": [], "output_token_samples": []}).t_out == 500


@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=60))
def test_t_out_is_max_of_samples(lengths):
    t_out = profile_from_dict({"tasks": [], "output_token_samples": lengths}).t_out
    assert t_out in lengths
    assert all(t_out >= x for x in lengths)


def test_explicit_t_out_wins():
    profile = profile_from_dict(
        {"tasks": [], "t_out": 1000, "output_token_samples": [120, 480]}
    )
    assert profile.t_out == 1000


def test_unknown_role_rejected():
    with pytest.raises(ValueError, match="unknown field max_tokens.oracle; expected one of planner, executor, critic"):
        profile_from_dict({"tasks": [], "max_tokens": {"oracle": 99}})


def test_task_without_text_rejected():
    with pytest.raises(ValueError, match=r"missing field tasks\[0\].text"):
        profile_from_dict({"tasks": [{"id": "a"}]})


def test_profile_not_an_object_rejected():
    with pytest.raises(ValueError, match=r"task profile must be an object, got \[\{'text': 'a'\}\]"):
        profile_from_dict([{"text": "a"}])


@pytest.mark.parametrize(
    "tasks, message",
    [(["hi"], r"tasks\[0\] must be an object, got 'hi'"), ([{"text": "a"}, 7], r"tasks\[1\] must be an object, got 7")],
    ids=["string", "number_after_valid"],
)
def test_task_not_an_object_rejected(tasks, message):
    with pytest.raises(ValueError, match=message):
        profile_from_dict({"tasks": tasks})


@pytest.mark.parametrize(
    "max_tokens, message",
    [
        ({"executor": 0}, "max_tokens.executor must be an integer > 0, got 0"),
        ({"critic": -5}, "max_tokens.critic must be an integer > 0"),
        ({"planner": "384"}, "max_tokens.planner must be an integer > 0"),
        ({"planner": 384.5}, "max_tokens.planner must be an integer > 0"),
        ({"executor": True}, "max_tokens.executor must be an integer > 0"),
        ([384], "max_tokens must be an object"),
    ],
    ids=["zero", "negative", "string", "float", "bool", "list"],
)
def test_bad_max_tokens_rejected(max_tokens, message):
    with pytest.raises(ValueError, match=message):
        profile_from_dict({"tasks": [], "max_tokens": max_tokens})



@pytest.mark.parametrize(
    "fields, message",
    [
        ({"t_in": None}, "t_in must be an integer > 0, got None"),
        ({"t_in": 0}, "t_in must be an integer > 0, got 0"),
        ({"t_in": "500"}, "t_in must be an integer > 0, got '500'"),
        ({"t_out": None}, "t_out must be an integer > 0, got None"),
        ({"t_out": 2.9}, "t_out must be an integer > 0, got 2.9"),
        ({"t_out": -1}, "t_out must be an integer > 0, got -1"),
        ({"t_out": True}, "t_out must be an integer > 0, got True"),
        ({"output_token_samples": [120, 2.5]}, r"output_token_samples\[1\] must be an integer >= 0, got 2.5"),
        ({"output_token_samples": [-3]}, r"output_token_samples\[0\] must be an integer >= 0, got -3"),
        ({"output_token_samples": [False]}, r"output_token_samples\[0\] must be an integer >= 0, got False"),
        ({"output_token_samples": 400}, "output_token_samples must be a list, got 400"),
        ({"t_out": 300, "output_token_samples": ["x"]}, r"output_token_samples\[0\] must be an integer"),
    ],
    ids=[
        "t_in_null", "t_in_zero", "t_in_string", "t_out_null", "t_out_float", "t_out_negative",
        "t_out_bool", "sample_float", "sample_negative", "sample_bool", "samples_not_list",
        "samples_checked_beside_t_out",
    ],
)
def test_bad_token_estimates_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        profile_from_dict({"tasks": [], **fields})

@pytest.mark.parametrize(
    "fields, message",
    [
        ({"output_tokens_samples": [900]}, "unknown field output_tokens_samples; expected one of tasks, "),
        ({"max_token": {"executor": 99}}, "unknown field max_token; expected one of tasks, "),
        ({"tasks": [{"text": "a", "anwser": "4"}]}, "unknown field tasks[0].anwser; expected one of id, text, answer"),
        ({"tasks": [{"id": 7, "text": "a"}]}, "tasks[0].id must be a string, got 7"),
        ({"tasks": [{"text": 12}]}, "tasks[0].text must be a string, got 12"),
        ({"tasks": [{"text": None}]}, "tasks[0].text must be a string, got None"),
        ({"tasks": [{"text": "a"}, {"text": "b", "answer": 4}]}, "tasks[1].answer must be null or a string, got 4"),
        ({"evaluator": ["numeric"]}, "evaluator must be a string, got ['numeric']"),
    ],
    ids=["samples_typo", "max_tokens_typo", "answer_typo", "id_number", "text_number", "text_null",
         "answer_number", "evaluator_list"],
)
def test_malformed_profile_rejected(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        profile_from_dict({"tasks": [], **fields})


def test_load_from_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "tasks": [{"id": "a", "text": "q", "answer": "1"}],
        "evaluator": "literal",
        "max_tokens": {"executor": 1024},
    }))
    profile = load_profile(path)
    assert profile.evaluator_kind == "literal"
    assert profile.max_tokens["executor"] == 1024
    assert profile.max_tokens["critic"] == 384
    assert profile.tasks[0].answer == "1"
