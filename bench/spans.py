"""In-memory span tracing around the program's public layer functions.

`Tracer.install()` replaces each traced function at the attribute its
callers look up (for example `budgetagents.dataset.execute`, which is what
`dataset.collect` calls) with a wrapper that times it; `restore()` puts the
originals back. Durations are kept per layer for the whole traced phase;
full spans (name, start, end, parent) are kept only while `keep_spans` is
set, because a pipeline round makes hundreds of thousands of calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import budgetagents.backend as backend
import budgetagents.dataset as dataset
import budgetagents.evaluators as evaluators
import budgetagents.policy as policy
import budgetagents.provision as provision
import budgetagents.topology as topology

# (owner, attribute, span name). Owners are where the callers look the name up.
TRACED = (
    (provision, "solve", "provision.solve"),
    (policy, "embed", "embedder.embed"),
    (policy, "select_topology", "policy.select_topology"),
    (policy, "load_params", "policy.load_params"),
    (policy, "train", "policy.train"),
    (policy, "evaluate", "policy.evaluate"),
    (policy, "compute_reward", "reward.compute_reward"),
    (dataset, "collect", "dataset.collect"),
    (dataset, "save", "dataset.save"),
    (dataset, "load", "dataset.load"),
    (dataset, "execute", "topology.execute"),
    (topology, "execute", "topology.execute"),
    (backend.ScriptedBackend, "invoke", "backend.invoke"),
    (backend.HttpBackend, "invoke", "backend.invoke"),
    (evaluators.NumericEvaluator, "grade", "evaluators.grade"),
)


class Tracer:
    def __init__(self) -> None:
        # Samples per name: seconds per call for layers, and the counts that
        # _on_trace derives from each executed run.
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.keep_spans = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, on_result=None):
        samples = self.samples[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Worker threads (collect --jobs N) parent to the main thread's open span.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                samples.append(end - start)
                if self.keep_spans:
                    self.spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result, end - start)
            return result

        return wrapper

    def _on_trace(self, trace, seconds: float) -> None:
        self.samples[f"topology.execute.{trace.topology}"].append(seconds)
        self.samples["topology.calls"].append(len(trace.calls))
        self.samples["topology.oob"].append(1.0 if trace.oob else 0.0)

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            on_result = self._on_trace if name == "topology.execute" else None
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, on_result))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def span(self, name: str):
        """Context manager for a benchmark-side span (a round, a CLI command)."""
        return _Span(self, name)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for span_id, name, start, end, parent in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.id = next(self.tracer._ids)
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.samples[self.name].append(end - self.start)
        if self.tracer.keep_spans:
            self.tracer.spans.append((self.id, self.name, self.start, end, self.parent))
        return False
