import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import budgetagents
from budgetagents import dataset, policy, provision, topology
from budgetagents.backend import HttpBackend, ScriptedBackend
from budgetagents.catalog import ModelCatalog
from budgetagents.cli import RunConfig, _run_settings, build_parser, main
from budgetagents.profile import TaskSpec, profile_from_dict
from budgetagents.reward import budget_label
from budgetagents.topology import HALT_REASONS, TOPOLOGY_NAMES, ExecutionLimits
from synth import dominant_topology_dataset
from test_backend import chat_payload

# tier costs at t_in = t_out = 500 come out to [1235.0, 250.0]
CATALOG = {
    "models": [
        {"name": "strong-model", "tier": 1, "price_in_per_mtok": 0.27,
         "price_out_per_mtok": 2.20, "backend_id": "strong"},
        {"name": "cheap-model", "tier": 2, "price_in_per_mtok": 0.10,
         "price_out_per_mtok": 0.40, "backend_id": "cheap"},
    ],
    "backends": {
        "strong": {"base_url": "https://example.invalid/v1"},
        "cheap": {"base_url": "https://example.invalid/v1"},
    },
}

PROFILE = {
    "t_in": 500,
    "t_out": 500,
    "evaluator": "numeric",
    "max_tokens": {"planner": 384, "executor": 384, "critic": 384},
    "tasks": [
        {"id": "t1", "text": "What is 6 times 7?", "answer": "42"},
        {"id": "t2", "text": "What is 10 plus 5?", "answer": "15"},
    ],
    "mock_script": {
        "default_prompt_tokens": 500,
        "rules": [
            {"role": "executor", "text": "the answer is 42", "completion_tokens": 100},
            {"role": "critic", "text": "ACCEPT", "completion_tokens": 2},
            {"role": "planner", "text": "1. compute\n2. answer", "completion_tokens": 10},
        ],
    },
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "catalog.json").write_text(json.dumps(CATALOG))
    (tmp_path / "profile.json").write_text(json.dumps(PROFILE))
    config = {
        "catalog": str(tmp_path / "catalog.json"),
        "task_profile": str(tmp_path / "profile.json"),
        "budgets": [2000.0],
        "seed": 42,
        "mock": True,
        "out_dir": str(tmp_path / "out"),
        "trainer": {"learning_rate": 0.0015, "batch_size": 32, "epochs": 5},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_provision_writes_solution(workdir, capsys):
    code = run("provision", "--config", str(workdir / "config.json"))
    assert code == 0
    assert (workdir / "out" / "provision_2000.json").read_text() == (
        '{"budget": 2000.0, "tier_costs": [1235.0, 250.0], "counts": [1, 3], "total_weight": 12, '
        '"total_cost": 1985.0, "feasible": true, "reason": null}'
    )
    assert "counts [1, 3]" in capsys.readouterr().out


def test_provision_infeasible_exit_code(workdir):
    code = run("provision", "--config", str(workdir / "config.json"), "--budget", "300")
    assert code == 2
    assert (workdir / "out" / "provision_300.json").read_text() == (
        '{"budget": 300.0, "tier_costs": [1235.0, 250.0], "counts": [0, 0], "total_weight": 0, '
        '"total_cost": 0.0, "feasible": false, "reason": "budget 300 affords at most 1 agent(s); at least 2 required"}'
    )


def test_provision_names_a_budget_by_one_label(workdir, capsys):
    # `:g` would give the reason's budget as 0.123457.
    assert run("provision", "--config", str(workdir / "config.json"), "--budget", "0.1234567") == 2
    assert capsys.readouterr().out == (
        "budget 0.1234567: infeasible (budget 0.1234567 affords at most 0 agent(s); at least 2 required)\n"
    )


def test_an_empty_budget_list_is_refused(workdir, capsys):
    edit_config(workdir, budgets=[])
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no budgets configured (use --budget or 'budgets')\n"
    assert captured.out == "" and not (workdir / "out").exists()


def test_provision_explain_prints_weights(workdir, capsys):
    code = run("provision", "--config", str(workdir / "config.json"), "--explain")
    assert code == 0
    out = capsys.readouterr().out
    assert "decision weight 9" in out
    assert "decision weight 1" in out


def edit_config(workdir, **fields):
    path = workdir / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def collect_linear_costs(workdir, *flags):
    """The linear rows' costs in the dataset a fresh `collect` writes."""
    assert run("collect", "--config", str(workdir / "config.json"), *flags) == 0
    rows = (workdir / "out" / "dataset.jsonl").read_text().splitlines()[1:]
    return [row["actual_cost"] for row in map(json.loads, rows) if row["topology"] == 0]


def run_linear_costs(workdir):
    assert run("run", "--config", str(workdir / "config.json"), "--topology", "linear") == 0
    traces = (workdir / "out" / "traces.jsonl").read_text().splitlines()
    return [json.loads(line)["cumulative_cost"] for line in traces]


def test_collect_needs_no_provision_file(workdir):
    config = str(workdir / "config.json")
    assert run("collect", "--config", config) == 0
    dataset = (workdir / "out" / "dataset.jsonl").read_bytes()

    assert run("provision", "--config", config, "--out", str(workdir / "provisioned")) == 0
    assert run("collect", "--config", config, "--out", str(workdir / "provisioned")) == 0
    assert (workdir / "provisioned" / "dataset.jsonl").read_bytes() == dataset

    (workdir / "corrupt").mkdir()
    (workdir / "corrupt" / "provision_2000.json").write_text('{"counts": [}')
    assert run("collect", "--config", config, "--out", str(workdir / "corrupt")) == 0
    assert (workdir / "corrupt" / "dataset.jsonl").read_bytes() == dataset


def _serve_from(fake_server, workdir):
    """Points every backend of the catalog at `fake_server`, for real runs."""
    catalog = json.loads(json.dumps(CATALOG))
    for entry in catalog["backends"].values():
        entry["base_url"] = fake_server.url
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    edit_config(workdir, mock=False)


def test_collect_records_negative_token_counts_as_a_failed_row(workdir, fake_server):
    # Not an error that ends `collect`: the run halts, and every other run still goes.
    _serve_from(fake_server, workdir)
    fake_server.enqueue(200, chat_payload("42", -5, 3))
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    rows = [json.loads(line) for line in (workdir / "out" / "dataset.jsonl").read_text().splitlines()[1:]]
    assert len(rows) == 8 and len(fake_server.requests) == 8  # each later run fails on `{"ok": true}`
    assert rows[0]["actual_cost"] == 0.0
    assert rows[0]["error"] == (
        "backend failure (executor on strong-model#1): usage.prompt_tokens must be an integer >= 0, got -5"
    )


def test_collect_charges_a_billed_call_without_content(workdir, fake_server):
    _serve_from(fake_server, workdir)
    fake_server.enqueue(200, chat_payload(None, 400, 300))
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    row = json.loads((workdir / "out" / "dataset.jsonl").read_text().splitlines()[1])
    assert (row["topology"], row["success"], row["actual_cost"]) == (0, False, 400 * 0.27 + 300 * 2.20)
    assert row["error"] == "backend failure (executor on strong-model#1): response had no message content"


@pytest.mark.parametrize(
    "usage, named, calls",
    [
        ((400, 300), "response had no message content", [["strong-model", 400, 300, 768.0]]),
        (("400", 300), "usage.prompt_tokens must be an integer >= 0, got '400'", []),
        ((400, 12.9), "usage.completion_tokens must be an integer >= 0, got 12.9", []),
        ((-1, 300), "usage.prompt_tokens must be an integer >= 0, got -1", []),
        ((400, True), "usage.completion_tokens must be an integer >= 0, got True", []),
    ],
    ids=["null_content", "string_count", "fractional_count", "negative_count", "bool_count"],
)
def test_run_halts_a_task_on_a_bad_response_and_serves_the_rest(workdir, fake_server, usage, named, calls):
    _serve_from(fake_server, workdir)
    fake_server.enqueue(200, chat_payload(None if calls else "42", *usage))
    for _ in range(4):  # t2's linear relay: one strong and three cheap executors
        fake_server.enqueue(200, chat_payload("15"))
    assert run("run", "--config", str(workdir / "config.json"), "--topology", "linear") == 0
    first, second = map(json.loads, (workdir / "out" / "traces.jsonl").read_text().splitlines())
    assert [[c["model"], c["t_in"], c["t_out"], c["cost"]] for c in first["calls"]] == calls
    assert first["cumulative_cost"] == sum(call[3] for call in calls)
    assert (first["halt"], first["success"], first["oob"]) == ("backend_failure", False, False)
    assert first["detail"] == f"backend failure (executor on strong-model#1): {named}"
    assert (len(second["calls"]), second["halt"], second["success"]) == (4, None, True)
    assert len(fake_server.requests) == 5


def test_collect_and_run_share_the_pool_after_instance_cap_changes(workdir):
    edit_config(workdir, instance_cap=5)
    assert run("provision", "--config", str(workdir / "config.json")) == 0  # [1, 3]: linear costs 625
    edit_config(workdir, instance_cap=1)  # [1, 1]: one strong and one cheap call
    assert collect_linear_costs(workdir) == [445.0, 445.0]
    assert run_linear_costs(workdir) == [445.0, 445.0]


def test_collect_and_run_share_the_pool_after_a_price_changes(workdir):
    assert run("provision", "--config", str(workdir / "config.json")) == 0
    catalog = json.loads(json.dumps(CATALOG))
    catalog["models"][0]["price_out_per_mtok"] = 22.0  # tier costs become [11135.0, 250.0]: pool [0, 5]
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    assert collect_linear_costs(workdir) == [450.0, 450.0]
    assert run_linear_costs(workdir) == [450.0, 450.0]


def test_collect_solves_provisioning_once_per_budget(workdir, monkeypatch):
    budgets = []
    real_solve = provision.solve

    def counting_solve(problem):
        budgets.append(problem.budget)
        return real_solve(problem)

    monkeypatch.setattr(provision, "solve", counting_solve)
    edit_config(workdir, budgets=[2000.0, 500.0])
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    rows = (workdir / "out" / "dataset.jsonl").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 4  # header + 2 tasks x 2 budgets x 4 topologies
    assert budgets == [2000.0, 500.0]


def test_collect_infeasible_budget_errors_before_any_run(workdir, capsys):
    assert run("collect", "--config", str(workdir / "config.json"), "--budget", "300") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: provisioning infeasible for budget 300: ")
    assert captured.out == ""
    assert not (workdir / "out" / "dataset.jsonl").exists()


@pytest.mark.parametrize("command", ["provision", "collect"])
def test_repeated_budget_rejected_before_any_work(workdir, capsys, command):
    edit_config(workdir, budgets=[2000, 500, 2000.0])
    assert run(command, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budgets[2] repeats budget 2000\n"
    assert captured.out == ""
    assert not (workdir / "out").exists()


def test_distinct_budgets_get_distinct_provision_files(workdir, capsys):
    # Both budgets print as 1.23457e+06 with :g; each keeps its own label and file.
    edit_config(workdir, budgets=[1234567, 1234568])
    assert run("provision", "--config", str(workdir / "config.json")) == 0
    out = capsys.readouterr().out
    assert "budget 1234567.0: counts" in out and "budget 1234568.0: counts" in out
    files = sorted(p.name for p in (workdir / "out").glob("provision_*.json"))
    assert files == ["provision_1234567.0.json", "provision_1234568.0.json"]
    for name in files:
        doc = json.loads((workdir / "out" / name).read_text())
        assert repr(doc["budget"]) == name[len("provision_"):-len(".json")]


@pytest.mark.parametrize(
    "budget, label", [(2000.0, "2000"), (0.5, "0.5"), (1e6, "1e+06"), (0.1 + 0.2, "0.30000000000000004")]
)
def test_budget_label_is_short_where_it_reads_back(budget, label):
    assert budget_label(budget) == label
    assert float(label) == budget


def test_collect_then_train_then_run(workdir, capsys):
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 0

    dataset_path = workdir / "out" / "dataset.jsonl"
    lines = dataset_path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4  # header + 2 tasks x 1 budget x 4 topologies
    header = json.loads(lines[0])
    assert header["seed"] == 42 and "catalog_hash" in header

    assert run("train", "--config", config) == 0
    assert (workdir / "out" / "policy.json").exists()
    report = json.loads((workdir / "out" / "training_report.json").read_text())
    assert len(report["epoch_scores"]) == 5
    assert report["best_score"] == max(report["epoch_scores"])
    assert list(report["trainer"]) == ["learning_rate", "entropy_coeff", "batch_size", "epochs", "seed"]

    assert run("run", "--config", config) == 0
    traces_path = workdir / "out" / "traces.jsonl"
    traces = [json.loads(line) for line in traces_path.read_text().splitlines()]
    assert len(traces) == 2
    assert all(t["cumulative_cost"] > 0 for t in traces)

    capsys.readouterr()
    assert run("report", str(traces_path)) == 0
    out = capsys.readouterr().out
    assert "Acc" in out and "OOB" in out


def test_run_with_topology_override_and_adhoc_task(workdir, capsys):
    # budget 500 provisions the two cheap agents; linear gives the 180.0 trace
    config = str(workdir / "config.json")
    code = run(
        "run", "--config", config, "--task", "What is 6 times 7?", "--answer", "42",
        "--topology", "linear", "--budget", "500",
    )
    assert code == 0
    # the ad-hoc trace is one line of the traces file that `report` reads
    assert not (workdir / "out" / "trace.json").exists()
    traces_path = workdir / "out" / "traces.jsonl"
    (line,) = traces_path.read_text().splitlines()
    trace = json.loads(line)
    assert trace["topology"] == "linear"
    assert trace["success"] is True
    assert trace["cumulative_cost"] == pytest.approx(180.0)
    assert [c["instance"] for c in trace["calls"]] == ["cheap-model#1", "cheap-model#2"]
    capsys.readouterr()
    assert run("report", str(traces_path)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "OOB 0/1" in out[0]
    assert "  linear: 1/1" in out


@pytest.mark.parametrize(
    "evaluator, answer, argv",
    [
        ("numeric", "forty-two", ["collect"]),
        ("literal", "   ", ["collect"]),
        ("numeric", None, ["run", "--topology", "linear", "--task", "What is 40 plus 2?", "--answer", "forty-two"]),
    ],
    ids=["collect_numeric", "collect_literal", "run_adhoc"],
)
def test_an_answer_the_evaluator_cannot_read_is_refused_before_any_call(
    workdir, capsys, monkeypatch, evaluator, answer, argv
):
    tasks = [PROFILE["tasks"][0], dict(PROFILE["tasks"][1], answer=answer)]
    (workdir / "profile.json").write_text(json.dumps(dict(PROFILE, evaluator=evaluator, tasks=tasks)))
    calls = []
    monkeypatch.setattr(ScriptedBackend, "invoke", lambda self, request: calls.append(request))
    assert run(*argv, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    task_id, shown = ("adhoc", "forty-two") if answer is None else ("t2", answer)
    assert captured.err == f"error: task {task_id!r}: the {evaluator} evaluator cannot read answer {shown!r}\n"
    assert captured.out == "" and calls == []
    assert not (workdir / "out" / "dataset.jsonl").exists() and not (workdir / "out" / "traces.jsonl").exists()


@pytest.mark.parametrize("argv", [["collect"], ["run", "--topology", "linear"]], ids=["collect", "run"])
def test_an_out_dir_that_cannot_be_made_stops_before_any_call(workdir, capsys, monkeypatch, argv):
    (workdir / "file").write_text("")
    out_dir = workdir / "file" / "out"  # under a regular file
    edit_config(workdir, out_dir=str(out_dir))
    calls = []
    monkeypatch.setattr(ScriptedBackend, "invoke", lambda self, request: calls.append(request))
    assert run(*argv, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"Not a directory: {str(out_dir)!r}" in captured.err
    assert captured.out == "" and calls == []


def test_run_refuses_an_empty_task_list(workdir, capsys):
    (workdir / "profile.json").write_text(json.dumps(dict(PROFILE, tasks=[])))
    assert run("run", "--config", str(workdir / "config.json"), "--topology", "linear") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no tasks to run\n"
    assert captured.out == "" and not (workdir / "out" / "traces.jsonl").exists()


def test_report_accuracy_is_over_graded_runs(workdir, capsys):
    # An ad-hoc task without --answer runs ungraded: its success is null.
    config = str(workdir / "config.json")
    assert run("run", "--config", config, "--topology", "linear", "--task", "What is 40 plus 2?") == 0
    traces_path = workdir / "out" / "traces.jsonl"
    (line,) = traces_path.read_text().splitlines()
    assert json.loads(line)["success"] is None
    capsys.readouterr()
    assert run("report", str(traces_path)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Acc n/a  Avg Cost 625  OOB 0/1"
    # Graded runs beside it: one success and one failure read 50%.
    for success in (True, False):
        traces_path.write_text(traces_path.read_text() + json.dumps(dict(json.loads(line), success=success)) + "\n")
    assert run("report", str(traces_path)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Acc 50.0%  Avg Cost 625  OOB 0/3"


def test_run_answer_without_task_errors_before_any_work(workdir, capsys):
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--answer", "99")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --answer grades an ad-hoc task; pass --task with it\n"
    assert captured.out == ""
    assert not (workdir / "out").exists()


def test_run_solves_provisioning_once(workdir, monkeypatch):
    calls = []
    real_solve = provision.solve

    def counting_solve(problem):
        calls.append(problem)
        return real_solve(problem)

    monkeypatch.setattr(provision, "solve", counting_solve)
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "star")
    assert code == 0
    traces = (workdir / "out" / "traces.jsonl").read_text().splitlines()
    assert len(traces) == len(PROFILE["tasks"]) == 2
    assert len(calls) == 1


def test_run_infeasible_budget_errors_before_any_task(workdir, capsys):
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--budget", "300")
    assert code == 1
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert captured.out == ""


def test_run_with_several_budgets_needs_budget_flag(workdir, capsys):
    config = json.loads((workdir / "config.json").read_text())
    config["budgets"] = [2000.0, 500.0]
    (workdir / "config.json").write_text(json.dumps(config))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear")
    assert code == 1
    captured = capsys.readouterr()
    assert "2 budgets are configured" in captured.err and "--budget" in captured.err
    assert captured.out == ""
    assert not (workdir / "out" / "traces.jsonl").exists()


def test_run_pool_too_small_for_any_topology_errors(workdir, capsys):
    config = json.loads((workdir / "config.json").read_text())
    config["min_agents"] = 1  # budget 300 then provisions one cheap agent
    (workdir / "config.json").write_text(json.dumps(config))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--budget", "300")
    assert code == 1
    captured = capsys.readouterr()
    assert "too few for any topology" in captured.err
    assert captured.out == ""


def test_greedy_planner_on_two_agent_pool_picks_a_staffable_topology(workdir):
    # A policy that always prefers planner, served at budget 500, where the
    # pool is two cheap agents: too few for planner's three seats.
    config = policy.TrainerConfig(learning_rate=0.0015, batch_size=64, epochs=10, seed=0)
    params = policy.train(dominant_topology_dataset(dominant=3, budget=8000), config).params
    tasks = [TaskSpec(task["id"], task["text"]) for task in PROFILE["tasks"]]
    assert policy.select_topology(params, tasks, 500.0) == [3, 3]
    (workdir / "out").mkdir()
    policy.save_params(params, workdir / "out" / "policy.json", seed=0)

    code = run("run", "--config", str(workdir / "config.json"), "--budget", "500")
    assert code == 0
    traces = [json.loads(line) for line in (workdir / "out" / "traces.jsonl").read_text().splitlines()]
    assert len(traces) == 2
    assert all(t["topology"] != "planner" for t in traces)
    assert all(len({c["instance"] for c in t["calls"]}) == 2 for t in traces)


def test_run_selects_every_topology_in_one_call(workdir, monkeypatch):
    (workdir / "out").mkdir()
    policy.save_params(policy.init_params(seed=0, budget_ref=2000.0), workdir / "out" / "policy.json")
    calls = []
    real_select = policy.select_topology

    def counting_select(params, tasks, budget, allowed=None):
        calls.append([task.id for task in tasks])
        return real_select(params, tasks, budget, allowed)

    monkeypatch.setattr(policy, "select_topology", counting_select)
    assert run("run", "--config", str(workdir / "config.json")) == 0
    assert calls == [["t1", "t2"]]


def test_run_with_corrupt_weights_errors_before_any_task(workdir, capsys):
    (workdir / "out").mkdir()
    path = workdir / "out" / "policy.json"
    policy.save_params(policy.init_params(seed=0, budget_ref=2000.0), path)
    doc = json.loads(path.read_text())
    doc["layers"]["core_b"]["values"] = doc["layers"]["core_b"]["values"][:-8]
    path.write_text(json.dumps(doc))
    assert run("run", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert "layer core_b" in captured.err
    assert captured.out == ""
    assert not (workdir / "out" / "traces.jsonl").exists()


def test_run_with_a_layer_of_another_shape_errors_before_any_task(workdir, capsys):
    (workdir / "out").mkdir()
    path = workdir / "out" / "policy.json"
    policy.save_params(policy.init_params(seed=0, budget_ref=2000.0), path)
    doc = json.loads(path.read_text())
    doc["layers"]["head_b"] = {"shape": [1], "values": "AAAAAAAAAAA="}  # one 0.0, where this build has 4 topologies
    path.write_text(json.dumps(doc))
    assert run("run", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: layer head_b has shape [1], this build's is [4]\n"
    assert captured.out == ""
    assert not (workdir / "out" / "traces.jsonl").exists()


def test_run_with_weights_of_another_embedding_width_errors_before_any_task(workdir, capsys):
    (workdir / "out").mkdir()
    path = workdir / "out" / "policy.json"
    params = policy.init_params(seed=0, budget_ref=2000.0)
    params.embed_w = params.embed_w[:, :100]
    policy.save_params(params, path)
    assert run("run", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert f"{path}: weights were trained on 100-d embeddings, this build embeds in 384-d" in captured.err
    assert captured.out == ""


def test_run_without_weights_errors(workdir, capsys):
    config = str(workdir / "config.json")
    code = run("run", "--config", config, "--task", "anything")
    assert code == 1
    assert "policy" in capsys.readouterr().err


def test_train_without_dataset_errors(workdir):
    assert run("train", "--config", str(workdir / "config.json")) == 1


def _trained(out_dir):
    return [(out_dir / name).read_bytes() for name in ("policy.json", "training_report.json")]


def test_train_reads_only_the_dataset(workdir):
    # `train` reads the config's out_dir, seed, reward and trainer, and the
    # dataset: it needs no catalog and no profile, and they change nothing.
    config = json.loads((workdir / "config.json").read_text())
    assert run("collect", "--config", str(workdir / "config.json")) == 0
    rows = (workdir / "out" / "dataset.jsonl").read_bytes()
    for name in ("bare", "flags", "only"):
        (workdir / name).mkdir()
        (workdir / name / "dataset.jsonl").write_bytes(rows)
    bare = {key: value for key, value in config.items() if key not in ("catalog", "task_profile")}
    (workdir / "bare.json").write_text(json.dumps(dict(bare, out_dir=str(workdir / "bare"))))

    assert run("train", "--config", str(workdir / "config.json")) == 0
    assert run("train", "--config", str(workdir / "bare.json")) == 0
    assert _trained(workdir / "bare") == _trained(workdir / "out")
    files = ["--catalog", config["catalog"], "--profile", config["task_profile"]]
    assert run("train", "--out", str(workdir / "flags"), *files) == 0
    assert run("train", "--out", str(workdir / "only")) == 0
    assert _trained(workdir / "only") == _trained(workdir / "flags")


def test_train_rejects_a_repeated_row(workdir, capsys):
    rows = [dataset.Experience("a", "the task", 500.0, topology, True, 100.0) for topology in range(4)]
    (workdir / "out").mkdir()
    dataset.save((*rows, rows[0]), workdir / "out" / "dataset.jsonl", {})
    assert run("train", "--config", str(workdir / "config.json")) == 1
    assert capsys.readouterr().err == "error: duplicate experience for (task='a', budget=500, topology=0)\n"
    assert not (workdir / "out" / "policy.json").exists()


@pytest.mark.parametrize("command", ["provision", "collect", "run"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("catalog", None, "no catalog configured (use --catalog or 'catalog' in the config file)"),
        ("task_profile", None, "no task profile configured (use --profile or 'task_profile')"),
        ("catalog", "missing.json", "file not found: {}"),
        ("task_profile", "missing.json", "file not found: {}"),
    ],
    ids=["no_catalog", "no_profile", "missing_catalog", "missing_profile"],
)
def test_a_command_that_reads_the_inputs_needs_them(workdir, capsys, command, key, value, message):
    config = json.loads((workdir / "config.json").read_text())
    del config[key]
    if value is not None:
        config[key] = str(workdir / value)
    (workdir / "config.json").write_text(json.dumps(config))
    assert run(command, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(workdir / 'missing.json')}\n"
    assert captured.out == ""
    assert not (workdir / "out").exists()


def _trainer_section_stops_every_command(workdir, capsys, fields, message):
    # The section is checked as the config loads: before `collect` spends anything.
    config = json.loads((workdir / "config.json").read_text())
    config["trainer"].update(fields)
    (workdir / "config.json").write_text(json.dumps(config))
    for command in ("provision", "collect", "train"):
        assert run(command, "--config", str(workdir / "config.json")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "out").exists()


def test_zero_epoch_config_errors(workdir, capsys):
    _trainer_section_stops_every_command(workdir, capsys, {"epochs": 0}, "trainer.epochs must be an integer > 0, got 0")


def test_negative_learning_rate_config_errors(workdir, capsys):
    message = "trainer.learning_rate must be a finite number > 0, got -1.0"
    _trainer_section_stops_every_command(workdir, capsys, {"learning_rate": -1.0}, message)


def test_empty_task_list_collects_empty_dataset(workdir):
    profile = dict(PROFILE, tasks=[])
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 0
    lines = (workdir / "out" / "dataset.jsonl").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_mock_mode_without_script_errors(workdir, capsys):
    profile = {k: v for k, v in PROFILE.items() if k != "mock_script"}
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 1
    assert capsys.readouterr().err == "error: mock mode requires a 'mock_script' section in the task profile\n"


def test_mock_script_missing_role_errors(workdir, capsys):
    profile = dict(PROFILE)
    profile["mock_script"] = {
        "rules": [{"role": "executor", "text": "42", "completion_tokens": 5}]
    }
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("provision", "--config", config) == 0
    assert run("collect", "--config", config) == 1
    assert capsys.readouterr().err == "error: mock_script has no rule for role(s): planner, critic\n"


def test_report_empty_file_warns(workdir, capsys):
    # The warning goes to stderr, and stdout has the shape a full file's has,
    # its summary first.
    empty = workdir / "none.jsonl"
    empty.write_text("")
    assert run("report", str(empty)) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: no traces found\n"
    lines = captured.out.splitlines()
    assert lines[0] == "Acc n/a  Avg Cost 0  OOB 0/0"
    assert lines[1:] == [f"  {name}: 0/0" for name in TOPOLOGY_NAMES] + [
        f"  halt {reason}: 0/0" for reason in HALT_REASONS
    ]


def test_train_on_empty_dataset_errors(workdir, capsys):
    profile = dict(PROFILE, tasks=[])
    (workdir / "profile.json").write_text(json.dumps(profile))
    config = str(workdir / "config.json")
    assert run("collect", "--config", config) == 0
    capsys.readouterr()
    assert run("train", "--config", config) == 1
    assert capsys.readouterr().err == "error: dataset is empty\n"
    assert not (workdir / "out" / "policy.json").exists()


def test_report_math(workdir, capsys):
    traces = []
    for i, (cost, ok) in enumerate([(100.0, True), (200.0, True), (300.0, True), (400.0, False)]):
        traces.append(json.dumps({
            "task_id": f"t{i}", "topology": "linear", "budget": 500.0, "calls": [],
            "cumulative_cost": cost, "final_answer": "x", "success": ok,
            "oob": cost > 350.0, "halt": "budget_exceeded" if cost > 350.0 else None, "detail": None,
        }))
    path = workdir / "tr.jsonl"
    path.write_text("\n".join(traces) + "\n")
    assert run("report", str(path)) == 0
    out = capsys.readouterr().out
    assert "Acc 75.0%" in out
    assert "Avg Cost 250" in out
    assert "OOB 1/4" in out
    assert "  halt budget_exceeded: 1/4\n" in out and "  halt backend_failure: 0/4\n" in out


def _trace_line(**overrides):
    trace = {
        "task_id": "t0", "topology": "linear", "budget": 500.0, "calls": [],
        "cumulative_cost": 100.0, "final_answer": "x", "success": True,
        "oob": False, "halt": None, "detail": None,
    }
    return json.dumps(dict(trace, **overrides))


_CALL = {"model": "m", "instance": "m#1", "role": "executor", "t_in": 10, "t_out": 5, "cost": 1.0}


@pytest.mark.parametrize(
    "bad_line, named",
    [
        ("[1, 2]", "trace must be an object, got [1, 2]"),
        (_trace_line(calls=None), "calls must be a list, got None"),
        (_trace_line(budget="lots"), "budget must be a finite number, got 'lots'"),
        (_trace_line(success="false"), "success must be null or true or false, got 'false'"),
        (_trace_line(oob="false"), "oob must be true or false, got 'false'"),
        (_trace_line(topology="ring"), "topology must be one of linear, star, feedback, planner, got 'ring'"),
        (_trace_line(calls=[dict(_CALL, t_in=1.5)]), "calls[0].t_in must be an integer, got 1.5"),
        (_trace_line(halt="timeout"), "halt must be null or one of budget_exceeded, precall_guard, "
                                      "backend_failure, evaluator_failure, got 'timeout'"),
        (_trace_line(terminated_early=False), "unknown field terminated_early"),
    ],
    ids=["array", "null_calls", "budget_string", "success_string", "oob_string", "unknown_topology",
         "call_t_in_float", "unknown_halt", "old_terminated_early"],
)
def test_report_malformed_trace_names_its_line(workdir, capsys, bad_line, named):
    path = workdir / "tr.jsonl"
    path.write_text(_trace_line(calls=[_CALL]) + "\n" + bad_line + "\n")
    assert run("report", str(path)) == 1
    captured = capsys.readouterr()
    assert f"{path}: line 2: {named}" in captured.err
    assert captured.out == ""


def test_report_names_a_missing_trace_file(workdir, capsys):
    path = workdir / "missing.jsonl"
    assert run("report", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: trace file not found: {path}\n"
    assert captured.out == ""


def test_report_skips_a_blank_line(workdir, capsys):
    path = workdir / "tr.jsonl"
    path.write_text(_trace_line() + "\n")
    assert run("report", str(path)) == 0
    expected = capsys.readouterr().out
    path.write_text(_trace_line() + "\n\n  \n")
    assert run("report", str(path)) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err == ""
    assert expected.startswith("Acc 100.0%  Avg Cost 100  OOB 0/1\n")


def test_missing_config_file(capsys):
    assert run("provision", "--config", "/nonexistent/config.json") == 1


@pytest.mark.parametrize(
    "section, fields, named",
    [
        ("limits", {"precall_slack": "10"}, "limits.precall_slack"),
        ("limits", {"max_replans": -1}, "limits.max_replans"),
        ("reward", {"w_costs": 1.0}, "reward.w_costs"),
        ("trainer", {"seed": 3}, "trainer.seed"),
        ("trainer", {"epochs": "5"}, "trainer.epochs"),
        ("trainer", {"adam_beta1": 0.9}, "unknown field trainer.adam_beta1"),
        ("trainer", {"budget_ref": 800.0}, "unknown field trainer.budget_ref"),
    ],
    ids=[
        "slack_string", "negative_replans", "misspelt_reward", "trainer_seed", "epochs_string", "adam_constant",
        "budget_ref",
    ],
)
def test_malformed_config_section_rejected_before_any_work(workdir, capsys, section, fields, named):
    config = json.loads((workdir / "config.json").read_text())
    config[section] = dict(config.get(section, {}), **fields)
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert named in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("budgets", "25"),
        ("budgets", [2000.0, True]),
        ("mock", "false"),
        ("instance_cap", 2.9),
        ("instance_cap", 0),
        ("min_agents", 2.0),
        ("min_agents", -1),
        ("seed", "42"),
        ("seed", -1),
        ("jobs", "2"),
        ("jobs", 0),
        ("jobs", -4),
        ("catalog", 7),
        ("out_dir", ["out"]),
    ],
    ids=["budgets_string", "budgets_bool", "mock_string", "instance_cap_float", "instance_cap_zero",
         "min_agents_float", "min_agents_negative", "seed_string", "seed_negative", "jobs_string", "jobs_zero",
         "jobs_negative", "catalog_number", "out_dir_list"],
)
def test_malformed_top_level_field_rejected_before_any_work(workdir, capsys, key, value):
    config = json.loads((workdir / "config.json").read_text())
    config[key] = value
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert f"{key} must be" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_provision_with_a_free_tier_errors_and_makes_no_out_dir(workdir, capsys):
    catalog = json.loads(json.dumps(CATALOG))
    catalog["models"][1].update(price_in_per_mtok=0, price_out_per_mtok=0)
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: tier_costs must be a non-empty list of finite numbers > 0, got (1235.0, 0.0)\n"
    assert captured.out == ""
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--jobs", "-2"], "--jobs must be an integer > 0, got -2"),
        (["--jobs", "0"], "--jobs must be an integer > 0, got 0"),
        (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["--budget", "inf"], "--budget must be a finite number > 0, got inf"),
        (["--budget", "nan"], "--budget must be a finite number > 0, got nan"),
        (["--budget", "0"], "--budget must be a finite number > 0, got 0.0"),
        (["--budget", "-5"], "--budget must be a finite number > 0, got -5.0"),
    ],
    ids=["jobs_negative", "jobs_zero", "seed_negative", "budget_inf", "budget_nan", "budget_zero", "budget_negative"],
)
def test_malformed_flag_rejected_before_any_work(workdir, capsys, flags, named):
    assert run("provision", "--config", str(workdir / "config.json"), *flags) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("instance_caps", 1), ("budget", 500.0)], ids=["instance_caps", "budget"]
)
def test_unknown_top_level_field_rejected_before_any_work(workdir, capsys, key, value):
    config = json.loads((workdir / "config.json").read_text())
    config[key] = value
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert f"unknown field {key};" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "models, named",
    [(["a"], "models[0] must be an object, got 'a'"), ("a", "models must be a list, got 'a'")],
    ids=["entry_not_object", "models_not_list"],
)
def test_malformed_catalog_rejected_before_any_work(workdir, capsys, models, named):
    (workdir / "catalog.json").write_text(json.dumps(dict(CATALOG, models=models)))
    assert run("provision", "--config", str(workdir / "config.json")) == 1
    assert named in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "script, message",
    [
        ({"rules": ["x"]}, "mock_script.rules[0] must be an object"),
        ([], "mock_script must be an object"),
        ({"rules": [{"role": "*", "completion_tokens": "ten"}]}, "mock_script.rules[0].completion_tokens"),
    ],
    ids=["rule_string", "script_list", "tokens_string"],
)
def test_malformed_mock_script_rejected_before_any_work(workdir, capsys, script, message):
    profile = json.loads(json.dumps(PROFILE))
    profile["mock_script"] = script
    (workdir / "profile.json").write_text(json.dumps(profile))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--task", "x")
    assert code == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("requests_per_second", "5"),
        ("requests_per_second", 0),
        ("timeout", "30"),
        ("timeout", None),
        ("timeout", -1.0),
        ("base_url", 7),
    ],
    ids=["rps_string", "rps_zero", "timeout_string", "timeout_null", "timeout_negative", "base_url_number"],
)
def test_malformed_backend_entry_rejected_before_any_call(workdir, capsys, key, value):
    catalog = json.loads(json.dumps(CATALOG))
    catalog["backends"]["strong"][key] = value
    (workdir / "catalog.json").write_text(json.dumps(catalog))
    config = json.loads((workdir / "config.json").read_text())
    config["mock"] = False
    (workdir / "config.json").write_text(json.dumps(config))
    code = run("run", "--config", str(workdir / "config.json"), "--topology", "linear", "--task", "x")
    assert code == 1
    captured = capsys.readouterr()
    assert f"backends.strong.{key} must be" in captured.err
    assert captured.out == ""


def test_backends_are_built_from_the_loaded_catalog(workdir):
    catalog_doc = json.loads(json.dumps(CATALOG))
    catalog_doc["backends"]["cheap"] = {"base_url": "http://localhost:8/v1", "timeout": 5.0}
    path = workdir / "catalog.json"
    path.write_text(json.dumps(catalog_doc))
    catalog = ModelCatalog.load(path)
    path.write_text("{not json")  # a second parse of the file would fail
    config = RunConfig(
        catalog=str(path), task_profile=str(workdir / "profile.json"), out_dir=str(workdir / "out"), budgets=[2000.0]
    )
    with _run_settings(config, catalog, profile_from_dict(PROFILE), []) as settings:
        endpoints = settings["backends"]
        assert sorted(endpoints) == ["cheap", "strong"]
        assert all(isinstance(endpoint, HttpBackend) for endpoint in endpoints.values())
        assert (endpoints["strong"]._host, endpoints["strong"].timeout) == ("example.invalid", 60.0)
        assert (endpoints["cheap"]._host, endpoints["cheap"]._port, endpoints["cheap"].timeout) == ("localhost", 8, 5.0)


def test_models_that_share_a_backend_id_share_one_http_backend(workdir, monkeypatch):
    catalog_doc = json.loads(json.dumps(CATALOG))
    for model in catalog_doc["models"]:
        model["backend_id"] = "shared"
    catalog_doc["backends"] = {"shared": {"base_url": "http://localhost:8/v1"}}
    built = []
    monkeypatch.setattr(budgetagents.backend, "HttpBackend", lambda **entry: built.append(entry) or HttpBackend(**entry))
    config = RunConfig(out_dir=str(workdir / "out"), budgets=[2000.0])
    with _run_settings(config, ModelCatalog.from_dict(catalog_doc), profile_from_dict(PROFILE), []) as settings:
        assert list(settings["backends"]) == ["shared"]
        assert isinstance(settings["backends"]["shared"], HttpBackend)
    assert len(built) == 1


def test_mock_backends_share_one_scripted_instance(workdir):
    catalog = ModelCatalog.load(workdir / "catalog.json")
    config = RunConfig(out_dir=str(workdir / "out"), budgets=[2000.0], mock=True)
    with _run_settings(config, catalog, profile_from_dict(PROFILE), []) as settings:
        backends = settings["backends"]
    assert sorted(backends) == ["cheap", "strong"]
    assert isinstance(backends["cheap"], ScriptedBackend)
    assert backends["cheap"] is backends["strong"]


@pytest.mark.parametrize(
    "roles, missing",
    [
        (["executor"], "planner, critic"),
        (["critic"], "planner, executor"),
        (["planner", "executor"], "critic"),
        ([], "planner, executor, critic"),
    ],
)
def test_mock_script_names_each_uncovered_role_in_role_order(workdir, roles, missing):
    catalog = ModelCatalog.load(workdir / "catalog.json")
    config = RunConfig(out_dir=str(workdir / "out"), budgets=[2000.0], mock=True)
    rules = [{"role": role, "text": "42", "completion_tokens": 5} for role in roles]
    with pytest.raises(ValueError) as info:
        with _run_settings(config, catalog, profile_from_dict(dict(PROFILE, mock_script={"rules": rules})), []):
            pass
    assert str(info.value) == f"mock_script has no rule for role(s): {missing}"


def test_mock_script_wildcard_covers_every_role(workdir):
    catalog = ModelCatalog.load(workdir / "catalog.json")
    config = RunConfig(out_dir=str(workdir / "out"), budgets=[2000.0], mock=True)
    script = {"rules": [{"role": "*", "text": "42", "completion_tokens": 5}]}
    with _run_settings(config, catalog, profile_from_dict(dict(PROFILE, mock_script=script)), []) as settings:
        assert isinstance(settings["backends"]["cheap"], ScriptedBackend)


def test_usage_error_exits_1_not_the_infeasible_code(capsys):
    assert main(["provision", "--jobs", "x"]) == 1
    assert "argument --jobs: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["--help"]) == 0


# Each command's --help at COLUMNS=80, as printed when the shared flags were
# added to each command one by one.
HELP_TEXTS = {
    '': """\
usage: budgetagents [-h] {provision,collect,train,run,report} ...

Budget-aware multi-agent pipeline: provision, collect, train, run, report.

positional arguments:
  {provision,collect,train,run,report}
    provision           solve the budgeted pool selection
    collect             execute all topologies per task into a dataset
    train               train the topology-selection policy
    run                 provision, select a topology, and execute
    report              summarize a JSONL trace file

options:
  -h, --help            show this help message and exit
""",
    'provision': """\
usage: budgetagents provision [-h] [--config CONFIG] [--catalog CATALOG]
                              [--profile PROFILE] [--budget BUDGET]
                              [--seed SEED] [--out OUT] [--jobs JOBS] [--mock]
                              [--explain]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; flags override its fields
  --catalog CATALOG  model catalog JSON
  --profile PROFILE  task profile JSON
  --budget BUDGET    single budget override
  --seed SEED        global random seed (default 42)
  --out OUT          output directory (default 'out')
  --jobs JOBS        worker pool size for collection
  --mock             use the profile's scripted backend
  --explain          print per-tier decision weights
""",
    'collect': """\
usage: budgetagents collect [-h] [--config CONFIG] [--catalog CATALOG]
                            [--profile PROFILE] [--budget BUDGET]
                            [--seed SEED] [--out OUT] [--jobs JOBS] [--mock]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; flags override its fields
  --catalog CATALOG  model catalog JSON
  --profile PROFILE  task profile JSON
  --budget BUDGET    single budget override
  --seed SEED        global random seed (default 42)
  --out OUT          output directory (default 'out')
  --jobs JOBS        worker pool size for collection
  --mock             use the profile's scripted backend
""",
    'train': """\
usage: budgetagents train [-h] [--config CONFIG] [--catalog CATALOG]
                          [--profile PROFILE] [--budget BUDGET] [--seed SEED]
                          [--out OUT] [--jobs JOBS] [--mock]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; flags override its fields
  --catalog CATALOG  model catalog JSON
  --profile PROFILE  task profile JSON
  --budget BUDGET    single budget override
  --seed SEED        global random seed (default 42)
  --out OUT          output directory (default 'out')
  --jobs JOBS        worker pool size for collection
  --mock             use the profile's scripted backend
""",
    'run': """\
usage: budgetagents run [-h] [--config CONFIG] [--catalog CATALOG]
                        [--profile PROFILE] [--budget BUDGET] [--seed SEED]
                        [--out OUT] [--jobs JOBS] [--mock] [--task TASK]
                        [--answer ANSWER] [--topology TOPOLOGY]

options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON config file; flags override its fields
  --catalog CATALOG    model catalog JSON
  --profile PROFILE    task profile JSON
  --budget BUDGET      single budget override
  --seed SEED          global random seed (default 42)
  --out OUT            output directory (default 'out')
  --jobs JOBS          worker pool size for collection
  --mock               use the profile's scripted backend
  --task TASK          ad-hoc task text (default: run every profile task)
  --answer ANSWER      expected answer for the ad-hoc task
  --topology TOPOLOGY  bypass the policy with a fixed topology
""",
    'report': """\
usage: budgetagents report [-h] traces

positional arguments:
  traces      path to traces.jsonl

options:
  -h, --help  show this help message and exit
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXTS), ids=[c or "top" for c in HELP_TEXTS])
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command.split(), "--help"]) == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


@pytest.mark.parametrize(
    "name, command",
    [
        ("config.json", "provision"),
        ("catalog.json", "provision"),
        ("profile.json", "provision"),
        ("out/policy.json", "run"),
    ],
    ids=["config", "catalog", "profile", "weights"],
)
def test_invalid_json_names_its_file(workdir, capsys, name, command):
    path = workdir / name
    path.parent.mkdir(exist_ok=True)
    path.write_text('{"models": [}')
    assert run(command, "--config", str(workdir / "config.json")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: invalid JSON: Expecting value (line 1 column 13)\n"
    assert captured.out == ""


def python_with_src(*args, **env_vars):
    """Runs a fresh interpreter that imports the package from this checkout,
    with `env_vars` added to its environment."""
    src = str(Path(budgetagents.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs_the_command(tmp_path):
    missing = tmp_path / "missing.jsonl"
    result = python_with_src("-m", "budgetagents.cli", "report", str(missing))
    assert result.returncode == 1
    assert f"trace file not found: {missing}" in result.stderr


def test_cli_start_up_does_not_import_requests():
    result = python_with_src("-c", "import budgetagents.cli, sys; print('requests' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_explicit_config_sections_accepted(workdir):
    config = json.loads((workdir / "config.json").read_text())
    config["limits"] = {"max_feedback_rounds": 0, "max_replans": 0, "precall_slack": 0.5}
    config["reward"] = {"w_cost": 2, "bonus_slope": 0.25}
    (workdir / "config.json").write_text(json.dumps(config))
    assert run("provision", "--config", str(workdir / "config.json")) == 0


def test_flags_override_config(workdir):
    config = str(workdir / "config.json")
    assert run("provision", "--config", config, "--budget", "500") == 0
    doc = json.loads((workdir / "out" / "provision_500.json").read_text())
    assert doc["counts"] == [0, 2]


def test_each_common_flag_is_stored_under_the_config_field_it_sets():
    dests = set(vars(build_parser().parse_args(["provision"]))) - {"command", "func", "config", "explain"}
    assert dests == {"catalog", "task_profile", "budgets", "seed", "out_dir", "jobs", "mock"}
    assert dests <= {f.name for f in dataclasses.fields(RunConfig)}


def test_flag_given_as_zero_wins_over_the_config(workdir):
    assert run("collect", "--config", str(workdir / "config.json"), "--seed", "0") == 0
    header = json.loads((workdir / "out" / "dataset.jsonl").read_text().splitlines()[0])
    assert header["seed"] == 0


def test_collect_and_run_hand_execute_the_same_settings(workdir, monkeypatch):
    max_tokens = {"planner": 300, "executor": 200, "critic": 100}
    (workdir / "profile.json").write_text(json.dumps(dict(PROFILE, t_in=400, evaluator="literal", max_tokens=max_tokens)))
    edit_config(workdir, limits={"max_feedback_rounds": 1, "precall_slack": 50.0})
    seen = {"collect": [], "run": []}

    def recording(command, real):
        def execute(task, pool, topo, budget, backends, evaluator, **settings):
            seen[command].append({"evaluator": evaluator.name, **settings})
            return real(task, pool, topo, budget, backends, evaluator, **settings)

        return execute

    monkeypatch.setattr(dataset, "execute", recording("collect", dataset.execute))
    monkeypatch.setattr(topology, "execute", recording("run", topology.execute))
    config = str(workdir / "config.json")
    assert run("collect", "--config", config) == 0
    assert run("run", "--config", config, "--topology", "linear") == 0
    expected = {
        "evaluator": "literal",
        "limits": ExecutionLimits(max_feedback_rounds=1, precall_slack=50.0),
        "max_tokens": max_tokens,
        "planned_t_in": 400,
    }
    assert len(seen["collect"]) == 8 and len(seen["run"]) == 2
    assert all(settings == expected for settings in seen["collect"] + seen["run"])


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    quick_start = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```jsonc\n(.*?)```", quick_start, re.S)
    assert len(blocks) == 3
    for block in blocks:
        name = re.match(r"// (\S+)\n", block).group(1)
        # a comment starts a line or follows whitespace, so "https://" stays
        text = re.sub(r"(^|\s)//.*", r"\1", block, flags=re.M)
        (tmp_path / name).write_text(text, encoding="utf-8")
    (commands,) = re.findall(r"Then run the pipeline:\n\n```bash\n(.*?)```", quick_start, re.S)
    monkeypatch.chdir(tmp_path)
    for line in [
        *commands.splitlines(),
        'budgetagents run --config config.json --budget 1000 --task "What is 6 times 7?" --answer 42 --topology linear',
        "budgetagents report out/traces.jsonl",
    ]:
        program, *argv = shlex.split(line)
        assert program == "budgetagents"
        assert main(argv) == 0, (line, capsys.readouterr().err)


def test_pipeline_byte_determinism(workdir, tmp_path):
    def run_pipeline(out_dir):
        config = {
            "catalog": str(workdir / "catalog.json"),
            "task_profile": str(workdir / "profile.json"),
            "budgets": [2000.0],
            "seed": 42,
            "mock": True,
            "out_dir": str(out_dir),
            "trainer": {"learning_rate": 0.0015, "batch_size": 32, "epochs": 3},
        }
        config_path = out_dir.parent / f"{out_dir.name}.json"
        config_path.write_text(json.dumps(config))
        for command in ("provision", "collect", "train", "run"):
            assert run(command, "--config", str(config_path)) == 0

    a, b = tmp_path / "out_a", tmp_path / "out_b"
    run_pipeline(a)
    run_pipeline(b)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
