"""Start-up cost: each command loads only the modules it runs.

numpy serves only the policy (`train`, and `run` without `--topology`);
HTTP and TLS serve only real backends; a thread pool only `collect --jobs N`;
nothing needs `fractions`, or the `decimal` it imports.
Each of those tests starts a fresh interpreter, since this process has loaded
them all. The last test pins what each module imports as it loads.
"""

import ast
import json
from pathlib import Path

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


# What each program module imports at module level, as its import statements
# name it; an import inside a function, or under `if TYPE_CHECKING:`, is not
# run at start-up and is not listed. A new entry here is a new cost at every
# start-up: say why it is needed.
MODULE_IMPORTS = {
    "__init__": set(),
    "backend": {".profile", ".schema", "__future__", "dataclasses", "json", "random", "threading", "time",
                "typing", "urllib.parse"},
    "catalog": {".schema", "__future__", "dataclasses", "hashlib", "json", "pathlib"},
    "cli": {".", ".catalog", ".evaluators", ".profile", ".reward", ".schema", ".topology", "__future__",
            "argparse", "contextlib", "dataclasses", "functools", "json", "os", "pathlib", "sys"},
    "dataset": {".backend", ".evaluators", ".profile", ".reward", ".schema", ".topology",
                "__future__", "dataclasses", "json", "pathlib", "typing"},
    "embedder": {"__future__", "functools", "hashlib", "numpy", "re", "typing"},
    "evaluators": {".profile", "__future__", "re", "typing"},
    "policy": {".dataset", ".embedder", ".profile", ".reward", ".schema", ".topology", "__future__", "base64",
               "copy", "dataclasses", "json", "math", "numpy", "pathlib", "typing"},
    "profile": {".schema", "__future__", "dataclasses", "pathlib"},
    "provision": {".reward", ".schema", "__future__", "dataclasses"},
    "reward": {".schema", "__future__", "dataclasses", "math"},
    "schema": {"__future__", "dataclasses", "json", "math", "pathlib", "reprlib"},
    "topology": {".backend", ".catalog", ".evaluators", ".profile", ".reward", ".schema", "__future__",
                 "dataclasses", "enum", "re", "typing"},
}
SRC = Path(__file__).resolve().parent.parent / "src" / "budgetagents"


def module_level_imports(tree: ast.Module) -> set[str]:
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # runs when called, not when the module loads
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add("." * node.level + (node.module or ""))
            visit(ast.iter_child_nodes(node))

    visit(tree.body)
    return found


def test_each_module_imports_only_its_pinned_modules_at_load():
    found = {
        path.stem: module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert found == MODULE_IMPORTS
