#!/usr/bin/env python3
"""End-to-end benchmark of the budgetagents pipeline.

    python3 bench/run.py --workload pipeline|serve|io --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, sets up (several times, reporting the median), then
drives the program through `budgetagents.cli.main`, called in process with
stdout captured, in whole rounds until S seconds have passed. It checks the
outputs (see checks.py) and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the layers' public functions are
wrapped (see spans.py) and the per-layer metrics are reported instead, and
the spans of the first round are written to <work>/spans.jsonl.

An operation is one task served by `budgetagents run`. Outputs go to
bench/work/<workload>/ (or --work), which is emptied first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "budgetagents" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'budgetagents'} not found; run from the root of a checkout")
sys.path.insert(0, str(SRC))

from budgetagents import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("pipeline", "serve", "io")
COMMANDS = ("provision", "collect", "train", "run", "report")
SETUP_REPEATS = 3
_TASK_LINE = re.compile(r"^\S+: topology=")
_IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import budgetagents.cli"


class BenchError(Exception):
    pass


class _LineClock(io.TextIOBase):
    """stdout stand-in that timestamps every line as it is completed."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.times: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" in text:
            now = time.perf_counter()
            self.times.extend([now] * text.count("\n"))
        self.parts.append(text)
        return len(text)


@dataclass
class CliResult:
    code: int
    lines: list[str]
    times: list[float]
    start: float


class Simulator:
    """The simulated provider, in its own process; see simulator.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "simulator.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise BenchError("simulated provider did not start")
        self.port = int(port)
        self.url = f"http://127.0.0.1:{self.port}/v1"

    def log(self, since: int = 0) -> list:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", f"/log?since={since}")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        self.proc.stdin.close()  # the simulator exits at EOF
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


class Bench:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.work = Path(args.work) if args.work else BENCH / "work" / args.workload
        self.nproc = len(os.sched_getaffinity(0))
        self.tracer = spans.Tracer() if args.trace else None
        self.sim: Simulator | None = None
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict[str, float]] = []  # per round: seconds per CLI command
        self.latencies_ms: list[list[float]] = []  # per round: each served task's latency
        self.setup_s: list[float] = []
        self.sim_posts_timed = 0

    # -- driving the program ------------------------------------------------

    def cli(self, command: str, *argv: str, stages: dict | None = None) -> CliResult:
        clock = _LineClock()
        span = self.tracer.span(f"cli.{command}") if self.tracer and stages is not None else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            with contextlib.redirect_stdout(clock):
                code = cli.main([command, *argv])
            end = time.perf_counter()
        if stages is not None:
            stages[command] += end - start
        if code != 0 and command != "run":
            raise BenchError(f"budgetagents {command} {' '.join(argv)} exited with {code}")
        lines = "".join(clock.parts).splitlines()
        return CliResult(code, lines, clock.times, start)

    # -- set-up -----------------------------------------------------------

    def _setup_once(self, k: int) -> tuple[inputs.Workload, dict[str, Path], dict[str, str]]:
        name, seed = self.args.workload, self.args.seed
        workload = inputs.build(name, seed, self.nproc, smoke=self.args.smoke)
        sim = None if workload.mock else Simulator()
        try:
            paths = inputs.write(workload, seed, self.work / f"setup{k}", sim.url if sim else None)
            built: dict[str, str] = {}
            if name in ("serve", "io"):  # build the policy that `run` serves
                self.cli("provision", "--config", str(paths["train"]))
                self.cli("collect", "--config", str(paths["train"]), "--jobs", str(workload.jobs))
                self.cli("train", "--config", str(paths["train"]))
                built = {f: (paths["out"] / f).read_text(encoding="utf-8") for f in ("dataset.jsonl", "policy.json")}
        except BaseException:
            if sim is not None:
                sim.close()
            raise
        self.sim = sim
        return workload, paths, built

    def setup(self) -> None:
        built_first = None
        for k in range(SETUP_REPEATS):
            if self.sim is not None:  # only the last set-up's provider serves the timed phase
                self.sim.close()
                self.sim = None
            start = time.perf_counter()
            # A fresh interpreter that imports the program: the start-up a
            # user's process pays, which this process paid only once.
            subprocess.run([sys.executable, "-c", _IMPORT_PROGRAM, str(SRC)], check=True)
            self.workload, self.paths, built = self._setup_once(k)
            self.setup_s.append(time.perf_counter() - start)
            if built_first is None:
                built_first = built
            elif built != built_first:
                raise checks.CheckError("repeated set-ups built different dataset.jsonl or policy.json")
        self.answers = {t.task_id: t.answer for t in self.workload.serve_tasks}

    # -- the timed phase ---------------------------------------------------

    def round(self, first: bool) -> dict:
        """One whole round; returns its outputs (for checks and determinism)."""
        wl, paths, out = self.workload, self.paths, self.paths["out"]
        stages: dict[str, float] = defaultdict(float)
        latencies: list[float] = []
        outputs: dict = {}
        if wl.name == "pipeline":
            self.cli("provision", "--config", str(paths["train"]), stages=stages)
            self.cli("collect", "--config", str(paths["train"]), "--jobs", str(wl.jobs), stages=stages)
            self.cli("train", "--config", str(paths["train"]), stages=stages)
            outputs["policy"] = (out / "policy.json").read_text(encoding="utf-8")
        if wl.name == "io":
            mark = len(self.sim.log()) if first else 0
            self.cli("collect", "--config", str(paths["collect"]), "--jobs", str(wl.jobs), stages=stages)
            if first:
                outputs["sim_collect"] = self.sim.log(mark)
        if wl.collect_tasks:
            outputs["dataset"] = (out / "dataset.jsonl").read_text(encoding="utf-8")
        for budget in wl.budgets:
            mark = len(self.sim.log()) if first and self.sim else 0
            result = self.cli("run", "--config", str(paths["serve"]), "--budget", f"{budget:g}", stages=stages)
            self.attempted += len(wl.serve_tasks)
            if result.code != 0:
                self.failed += len(wl.serve_tasks)
                continue
            done = [t for line, t in zip(result.lines, result.times) if _TASK_LINE.match(line)]
            if len(done) != len(wl.serve_tasks):
                raise checks.CheckError(f"run printed {len(done)} task lines for {len(wl.serve_tasks)} tasks")
            previous = result.start
            for t in done:
                latencies.append((t - previous) * 1000.0)
                previous = t
            outputs[f"traces {budget:g}"] = (out / "traces.jsonl").read_text(encoding="utf-8")
            if first and self.sim:
                outputs[f"sim_run {budget:g}"] = self.sim.log(mark)
            report = self.cli("report", str(out / "traces.jsonl"), stages=stages)
            outputs[f"report {budget:g}"] = report.lines
        self.rounds.append(dict(stages))
        if latencies:
            self.latencies_ms.append(latencies)
        return outputs

    def timed_phase(self) -> None:
        posts_before = len(self.sim.log()) if self.sim else 0
        if self.tracer:
            self.tracer.install()
            self.tracer.keep_spans = True
        try:
            deadline = time.perf_counter() + self.args.seconds
            started = time.perf_counter()
            first = self.round(first=True)
            last = time.perf_counter() - started
            if self.tracer:
                self.tracer.keep_spans = False
            self.check(first)
            reference = _digest({k: v for k, v in first.items() if not k.startswith("sim_")})
            # Whole rounds only; stop at the round boundary nearest the deadline.
            while time.perf_counter() + last / 2 < deadline:
                started = time.perf_counter()
                outputs = self.round(first=False)
                last = time.perf_counter() - started
                if _digest(outputs) != reference:
                    raise checks.CheckError(f"round {len(self.rounds)} wrote different outputs than round 1")
        finally:
            if self.tracer:
                self.tracer.restore()
        if self.sim:
            self.sim_posts_timed = len(self.sim.log()) - posts_before

    # -- correctness --------------------------------------------------------

    def check(self, outputs: dict) -> None:
        wl = self.workload
        pool_sizes = checks.check_provision(wl, self.paths["out"])
        served = checks.TraceStats()
        for budget in wl.budgets:
            key = f"traces {budget:g}"
            if key not in outputs:
                continue  # that `run` failed; counted in `failed`
            stats = checks.check_traces(wl, budget, outputs[key], self.answers)
            checks.check_report(outputs[f"report {budget:g}"], stats)
            if self.sim:
                checks.check_served_calls(outputs[f"sim_run {budget:g}"], stats, f"run --budget {budget:g}")
                checks.check_served_cost(wl, outputs[f"sim_run {budget:g}"], stats.cost, f"run --budget {budget:g}")
            served.served += stats.served
            served.correct += stats.correct
            served.cost += stats.cost
        if "dataset" in outputs:
            recorded = checks.check_dataset(wl, outputs["dataset"], wl.collect_tasks, pool_sizes)
            if self.sim:
                checks.check_served_cost(wl, outputs["sim_collect"], recorded, "collect")
        else:  # the training data the set-up collected
            text = (self.paths["out"] / "dataset.jsonl").read_text(encoding="utf-8")
            checks.check_dataset(wl, text, wl.train_tasks, pool_sizes)
        self.served = served

    # -- metrics ----------------------------------------------------------

    def round_seconds(self) -> list[float]:
        return [sum(r.values()) for r in self.rounds]

    def end_to_end(self) -> dict:
        served = self.served
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            # Means over whole rounds. The machine's speed drifts by a quarter
            # in stretches of several seconds: a median over rounds flips
            # between the fast and the slow stretch, a mean moves with the
            # share of time spent in each.
            "wall_s": (statistics.fmean(self.round_seconds()), "s"),
            "task_latency_p50_ms": (statistics.fmean(_percentile(r, 50) for r in self.latencies_ms), "ms"),
            "task_latency_p90_ms": (statistics.fmean(_percentile(r, 90) for r in self.latencies_ms), "ms"),
            "accuracy": (served.correct / served.served if served.served else 0.0, "ratio"),
            "mean_cost_units": (served.cost / served.served if served.served else 0.0, "units"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        samples, rounds = self.tracer.samples, len(self.rounds)

        def per_round(name: str) -> float:
            return len(samples.get(name, ())) / rounds

        def median(name: str, scale: float) -> float:
            values = samples.get(name)
            return statistics.median(values) * scale if values else 0.0

        metrics = {}
        for command in COMMANDS:
            metrics[f"cli.{command}_s"] = (statistics.fmean(r.get(command, 0.0) for r in self.rounds), "s")
        for layer, unit, scale in (
            ("provision.solve", "us", 1e6), ("embedder.embed", "us", 1e6),
            ("topology.execute", "us", 1e6), ("backend.invoke", "us", 1e6),
            ("evaluators.grade", "us", 1e6), ("policy.evaluate", "ms", 1e3),
        ):
            metrics[f"{layer}_calls"] = (per_round(layer), "count")
            metrics[f"{layer}_{unit}"] = (median(layer, scale), unit)
        for topology in checks.TOPOLOGIES:
            metrics[f"topology.execute_us.{topology}"] = (median(f"topology.execute.{topology}", 1e6), "us")
        metrics["policy.select_topology_us"] = (median("policy.select_topology", 1e6), "us")
        metrics["policy.load_params_ms"] = (median("policy.load_params", 1e3), "ms")
        metrics["policy.train_s"] = (median("policy.train", 1.0), "s")
        metrics["reward.compute_reward_calls"] = (per_round("reward.compute_reward"), "count")
        runs = samples.get("topology.calls")
        metrics["topology.calls_per_run"] = (sum(runs) / len(runs) if runs else 0.0, "count")
        metrics["topology.oob_runs"] = (sum(samples.get("topology.oob", ())) / rounds, "count")
        metrics["backend.posts_per_call"] = (self.sim_posts_timed / sum(runs) if runs else 0.0, "ratio")
        collect_runs = len(self.workload.collect_tasks) * len(self.workload.budgets) * len(checks.TOPOLOGIES)
        per_s = [collect_runs / s for s in samples.get("dataset.collect", ())]
        metrics["dataset.collect_runs_per_s"] = (statistics.median(per_s) if per_s else 0.0, "1/s")
        metrics["dataset.save_ms"] = (median("dataset.save", 1e3), "ms")
        metrics["dataset.load_ms"] = (median("dataset.load", 1e3), "ms")
        metrics["bench.traced_wall_s"] = (statistics.fmean(self.round_seconds()), "s")
        return metrics

    def result(self, correct: bool) -> dict:
        metrics = self.per_layer() if self.tracer else self.end_to_end()
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def close(self) -> None:
        if self.sim is not None:
            self.sim.close()
            self.sim = None
        if self.tracer and self.tracer.spans:
            self.tracer.write(self.work / "spans.jsonl")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="budgetagents end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--work", help="output directory (default bench/work/<workload>)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Keep loopback requests to the simulated provider away from any proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    bench = Bench(args)
    if bench.work.exists():
        shutil.rmtree(bench.work)
    bench.work.mkdir(parents=True)
    try:
        bench.setup()
        bench.timed_phase()
        correct = True
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        bench.close()
    if not correct or not bench.rounds:
        print(json.dumps({"correct": False, "attempted": bench.attempted, "failed": bench.failed, "metrics": {}}))
        return 1
    result = bench.result(correct)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"rounds {len(bench.rounds)}, attempted {bench.attempted}, failed {bench.failed}")
    print("round seconds: " + " ".join(f"{s:.3f}" for s in bench.round_seconds()), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
