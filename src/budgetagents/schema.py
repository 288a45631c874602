"""One checker for every JSON input: an object against a table of its fields.

A table maps each field to a spec: `(check, description)`, where the
description completes "<path> must be ...", or a function `(value, path)`
that raises itself, as `obj` and `each` make for nested objects and lists.
Errors are ValueErrors naming the field's path (`models[0].tier`) and value.
"""

from __future__ import annotations

import math
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


# Callers test a tuple spec inline: a call per field slowed `report` by a quarter.
def _fail(spec: tuple, value, path: str):
    raise ValueError(f"{path} must be {spec[1]}, got {_show(value)}")


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
