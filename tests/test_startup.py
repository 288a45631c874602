"""Start-up cost: each command loads only the modules it runs.

numpy serves only the policy (`train`, and `run` without `--topology`);
HTTP and TLS serve only real backends; a thread pool only `collect --jobs N`;
nothing needs `fractions`, or the `decimal` it imports.
Each test starts a fresh interpreter, since this process has loaded them all.
"""

import json

from test_cli import CATALOG, PROFILE, python_with_src

HEAVY = ("numpy", "http.client", "ssl", "concurrent.futures", "fractions", "decimal")
REPORT_HEAVY = f"import sys; print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"


def test_cli_import_loads_no_heavy_module():
    result = python_with_src("-c", f"import json, budgetagents.cli; {REPORT_HEAVY}")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_commands_without_the_policy_load_no_heavy_module(tmp_path):
    (tmp_path / "catalog.json").write_text(json.dumps(CATALOG))
    (tmp_path / "profile.json").write_text(json.dumps(PROFILE))
    config = {
        "catalog": str(tmp_path / "catalog.json"),
        "task_profile": str(tmp_path / "profile.json"),
        "budgets": [2000.0],
        "out_dir": str(tmp_path / "out"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    config_path = str(tmp_path / "config.json")
    commands = [
        ["provision", "--config", config_path],
        ["collect", "--config", config_path, "--mock"],
        ["run", "--config", config_path, "--mock", "--topology", "linear"],
        ["report", str(tmp_path / "out" / "traces.jsonl")],
    ]
    program = (
        "import json, sys\n"
        "from budgetagents import cli\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        f"print(json.dumps(codes)); {REPORT_HEAVY}\n"
    )
    result = python_with_src("-c", program)
    assert result.returncode == 0, result.stderr
    codes, loaded = result.stdout.splitlines()[-2:]
    assert json.loads(codes) == [0, 0, 0, 0]
    assert json.loads(loaded) == []
