"""One checker for every JSON input: an object against a table of its fields.

A table maps each field to a spec: `(check, description)`, where the
description completes "<path> must be ...", or a function `(value, path)`
that raises itself, as `obj` and `each` make for nested objects and lists.
Errors are ValueErrors naming the field's path (`models[0].tier`) and value.

A dataclass read from JSON declares each field's spec on the field itself,
with `spec`; `table(cls)` is then its table, and `validate(instance)` checks
a constructed instance against the same specs.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, fields
from pathlib import Path
from reprlib import repr as _show  # bounded, so a huge value keeps the message short


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


INT = (_int, "an integer")
NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v), "a finite number")
BOOL = (lambda v: isinstance(v, bool), "true or false")
STRING = (lambda v: isinstance(v, str), "a string")
ANY = (lambda v: True, "any value")


def positive(spec: tuple) -> tuple:
    return (lambda v: spec[0](v) and v > 0, f"{spec[1]} > 0")


def non_negative(spec: tuple) -> tuple:
    return (lambda v: spec[0](v) and v >= 0, f"{spec[1]} >= 0")


def nullable(spec: tuple) -> tuple:
    return (lambda v: v is None or spec[0](v), f"null or {spec[1]}")


def spec(check, **field_kwargs):
    """A dataclass field whose JSON form is checked by `check` (a spec)."""
    return field(metadata={"spec": check}, **field_kwargs)


def table(cls) -> dict:
    """The table of `cls`'s fields that carry a spec, in declaration order."""
    return {f.name: f.metadata["spec"] for f in fields(cls) if "spec" in f.metadata}


def validate(instance) -> None:
    """Raise "<field> must be <description>, got <value>" for the first field
    of `instance` that fails its tuple spec."""
    for name, spec in table(type(instance)).items():
        if type(spec) is tuple and not spec[0](value := getattr(instance, name)):
            _fail(spec, value, name)


# Callers test a tuple spec inline: a call per field slowed `report` by a quarter.
def _fail(spec: tuple, value, path: str):
    raise ValueError(f"{path} must be {spec[1]}, got {_show(value)}")


def unique(values, path: str, what: str) -> None:
    """Raise "<path>[i] and <path>[j] have the same <what> <value>" for the
    first value that `values` repeats."""
    first = {}  # value -> index of the entry that has it
    for i, value in enumerate(values):
        if first.setdefault(value, i) != i:
            raise ValueError(f"{path}[{first[value]}] and {path}[{i}] have the same {what} {value!r}")


def read_json(path: str | Path):
    """The value a JSON file holds; a ValueError naming the file if it does
    not parse."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})") from None


# Every JSON-lines file's encoder (dataset rows, traces): json.dumps would build
# one per line. `default=vars` encodes a dataclass (a trace's CallRecord) by its
# __dict__, its fields in declaration order, as asdict would without a deep copy.
LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, default=vars)


def read_jsonl(path: str | Path, lines, table: dict, required=(), name: str = "value", start: int = 1):
    """The checked object of each non-blank line of `lines`, numbered from
    `start`; a ValueError "<path>: line N: ..." on the first line that does
    not parse or check."""
    for lineno, line in enumerate(lines, start):
        if not line.strip():
            continue
        try:
            value = check(json.loads(line), table, required=required, name=name)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        yield value


def check(value, table: dict, path: str = "", required=(), name: str = "value") -> dict:
    """`value`, once it is an object with only `table`'s keys, all of
    `required`, and values that meet their specs. `name` labels a root."""
    if not isinstance(value, dict):
        raise ValueError(f"{path or name} must be an object, got {_show(value)}")
    prefix = f"{path}." if path else ""
    for key, item in value.items():
        spec = table.get(key)
        if spec is None:
            raise ValueError(f"unknown field {prefix}{key}; expected one of {', '.join(table)}")
        if type(spec) is not tuple:
            spec(item, prefix + key)
        elif not spec[0](item):
            _fail(spec, item, prefix + key)
    if len(value) < len(table):  # every key is known, so a full object has them all
        for key in required:
            if key not in value:
                raise ValueError(f"missing field {prefix}{key}")
    return value


def obj(table: dict, required=()):
    return lambda value, path: check(value, table, path, required)


def each(spec):
    def check_list(value, path: str) -> None:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {_show(value)}")
        for i, item in enumerate(value):
            if type(spec) is not tuple:
                spec(item, f"{path}[{i}]")
            elif not spec[0](item):
                _fail(spec, item, f"{path}[{i}]")

    return check_list
