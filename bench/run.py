#!/usr/bin/env python3
"""The declsolve benchmark.

    python3 bench/run.py --workload replay-gsm --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from any directory of a checkout; the package is imported from its
src/.  A run first replays the committed 25-problem fixture and compares
the output byte for byte with the golden files, then generates the
workload from the seed, then measures:

- ``--trace 0``: end-to-end metrics.  Set-up is timed in several fresh
  interpreters (the median is reported); one more fresh interpreter runs an
  untimed warm-up pass and then timed passes within ``--seconds``, with a pair
  of timestamps around each ``evaluation.run_problem`` call as the only
  wrapper.
- ``--trace 1``: per-layer metrics from a separate traced run, which
  alternates untraced and traced passes (see tracer.py).

Every pass is checked against the generator's plan.  Problems whose outcome
departs from the plan are counted as failed and listed by id; the result is
marked incorrect unless each of them gives exactly the outcome of a known
defect the generator names.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

# Fresh interpreters timed for set-up, half before and half after the
# measured one (which adds one more sample), to straddle host speed swings.
SETUP_SAMPLES = 6
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170  # a run must end within 180 s


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name and unit.  A
    listed metric that this file does not compute fails the run with a
    KeyError."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


# per-layer time metric -> (span name, "total" or "self")
SPAN_METRICS = {
    "evaluation.run_problem_us": (tracer.RUN_PROBLEM, "total"),
    "evaluation.self_us": (tracer.RUN_PROBLEM, "self"),
    "prompts.assemble_us": ("prompts.assemble", "total"),
    "client.complete_us": ("client.complete", "total"),
    "client.self_us": ("client.complete", "self"),
    "client.fingerprint_us": ("client.fingerprint", "total"),
    "client.transport_wait_us": ("client.transport", "total"),
    "client.append_us": ("client.append", "total"),
    "parsing.script_us": ("parsing.script", "total"),
    "parsing.extract_us": ("parsing.extract", "total"),
    "parsing.declaration_us": ("parsing.declaration", "total"),
    "parsing.check_us": ("parsing.check", "total"),
    "solver.solve_us": ("solver.solve", "total"),
    "solver.substitute_us": ("solver.substitute", "total"),
    "solver.linear_us": ("solver.linear", "total"),
    "solver.univariate_self_us": ("solver.solve", "self"),
}


# Spans whose share of run_problem time a traced run prints.
SHARES = ("prompts.assemble_us", "client.complete_us", "client.transport_wait_us",
          "parsing.script_us", "parsing.check_us", "solver.solve_us", "solver.substitute_us",
          "solver.linear_us", "solver.univariate_self_us")


class RunFailed(Exception):
    pass


def host_spin() -> float:
    """Milliseconds for a fixed pure-Python loop: a yardstick for host drift,
    so a reader can tell a slower host from a slower program."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return 1e3 * (time.perf_counter() - start)


class Runner:
    def __init__(self, workdir: Path, workload: str, deadline: float):
        self.workdir = workdir
        self.workload = workload
        self.deadline = deadline
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def python(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed("time budget spent before the run ended")
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise RunFailed(f"{argv[:2]} did not finish within the time budget") from err
        if proc.returncode != 0:
            raise RunFailed(f"{argv[:2]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return proc

    def child(self, mode: str, seconds: float = 0.0) -> tuple[float, dict]:
        start = time.perf_counter()
        proc = self.python([str(HERE / "child.py"), mode, str(self.workdir), self.workload, str(seconds)])
        return start, json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self, count: int) -> list[tuple[float, dict]]:
        """(seconds from spawn to first problem, breakdown) per fresh interpreter."""
        out = []
        for _ in range(count):
            start, result = self.child("setup")
            out.append((result["ready"] - start, result["setup_ms"]))
        return out

    def import_times(self) -> tuple[float, float]:
        """Median cumulative import ms of declsolve and of requests, by -X importtime."""
        package, requests = [], []
        for _ in range(IMPORTTIME_SAMPLES):
            proc = self.python(["-X", "importtime", "-c", "import declsolve"])
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]))
            package.append(cumulative.get("declsolve", 0) / 1e3)
            requests.append(cumulative.get("requests", 0) / 1e3)
        return statistics.median(package), statistics.median(requests)


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    spin_before = host_spin()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        (workdir / "seed").write_text(str(seed))
        runner = Runner(workdir, workload, deadline)
        _, prepared = runner.child("prepare")
        setups = runner.setup_samples(SETUP_SAMPLES // 2)
        start, main = runner.child("trace" if trace else "run", seconds)
        setups += runner.setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2 - 1)
        imports = spans = None
        if trace:
            imports = runner.import_times()
            spans = scratch / f"spans-{workload}-seed{seed}.jsonl"
            shutil.copyfile(workdir / "spans.jsonl", spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spins = (spin_before, host_spin())

    setups.append((main["ready"] - start, main["setup_ms"]))
    passes = main["traced"] if trace else main["passes"]
    report = check(prepared, main["warmup"], passes + (main["untraced"] if trace else []))
    if trace:
        metrics = layer_metrics(main, setups, imports, spins)
        report["layer_self_us"] = layer_self_times(main["traced"])
        report["spans"] = spans.relative_to(ROOT)
    else:
        metrics = end_to_end_metrics(main, setups)
    report.update(
        attempted=sum(p["n"] for p in passes),
        failed=sum(len(p["mismatches"]) for p in passes),
        metrics=metrics,
        spins=spins,
        passes=len(passes),
    )
    return report


def check(prepared: dict, warmup: dict, passes: list[dict]) -> dict:
    """Correctness of the golden replay and of every pass against its plan;
    the full passes must also agree on the verdict histogram."""
    notes = []
    if prepared["golden_mismatched"]:
        notes.append(f"golden fixture replay differs in {', '.join(prepared['golden_mismatched'])}")
    unexplained = {}
    mismatched = Counter()
    for result in [warmup, *passes]:
        notes += result["problems"]
        for m in result["mismatches"]:
            mismatched[(m["id"], m["planned"], m["got"], m["defect"])] += 1
            if not m["defect"]:
                unexplained[m["id"]] = m
    if len({json.dumps(p["histogram"], sort_keys=True) for p in passes}) != 1:
        notes.append("verdict histogram differs between passes")
    if unexplained:
        notes.append(f"{len(unexplained)} problems depart from their plan without a known defect")
    return {
        "correct": not notes,
        "notes": notes,
        "mismatched": mismatched,
        "histogram": passes[-1]["histogram"],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(main: dict, setups) -> dict:
    passes = main["passes"]
    values = {
        "throughput_pps": statistics.median(p["n"] / p["wall"] for p in passes),
        "latency_p50_ms": main["p50_ms"],
        "latency_p99_ms": main["p99_ms"],
        "cpu_ms_per_problem": statistics.median(1e3 * p["cpu"] / p["n"] for p in passes),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "solve_rate_pct": passes[0]["solve_rate"],
    }
    return {name: metric(values[name], unit) for name, unit in units("end_to_end").items()}


def layer_metrics(main: dict, setups, imports, spins) -> dict:
    traced = main["traced"]
    layers = [p["layers"] for p in traced]

    def span_median(name, kind):
        key = "total_us" if kind == "total" else "self_us"
        return statistics.median(layer[key].get(name, 0.0) for layer in layers)

    def setup_median(part):
        return statistics.median(breakdown[part] for _, breakdown in setups)

    counts = Counter(main["counts"][0])
    values = {name: span_median(*where) for name, where in SPAN_METRICS.items()}
    per_layer = units("per_layer")
    values.update({name: counts[name] for name, unit in per_layer.items() if unit == "count"})
    values.update({
        "package.import_ms": imports[0],
        "package.requests_import_ms": imports[1],
        "evaluation.load_ms": setup_median("load"),
        "evaluation.orchestration_ms": statistics.median(layer["orchestration_ms"] for layer in layers),
        "evaluation.report_ms": statistics.median(
            layer["total_us"].get("evaluation.emit_report", 0.0) * p["n"] / 1e3
            for layer, p in zip(layers, traced)),
        "prompts.spec_ms": setup_median("spec"),
        "client.cassette_load_ms": setup_median("cassette"),
        "host.spin_ms": statistics.mean(spins),
        "trace.overhead_pct": 100 * (statistics.median(p["wall"] for p in traced)
                                     / statistics.median(p["wall"] for p in main["untraced"]) - 1),
    })
    return {name: metric(values[name], unit) for name, unit in per_layer.items()}


def layer_self_times(traced: list[dict]) -> dict[str, float]:
    """Median self time per problem inside run_problem, summed per module."""
    names = {name for p in traced for name in p["layers"]["problem_self_us"]}
    by_layer = Counter()
    for name in names:
        by_layer[name.split(".")[0]] += statistics.median(
            p["layers"]["problem_self_us"].get(name, 0.0) for p in traced)
    return dict(sorted(by_layer.items()))


def describe(workload: str, seed: int, report: dict, trace: bool) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"# {workload} seed {seed}: {'traced' if trace else 'untraced'} run, "
             f"{report['passes']} measured passes, {report['attempted']} problems attempted, "
             f"{report['failed']} failed"]
    lines.append(f"# verdict histogram {json.dumps(report['histogram'])}")
    for (pid, planned, got, defect), passes in sorted(report["mismatched"].items()):
        known = f" [known defect: {defect}]" if defect else " [UNEXPECTED]"
        lines.append(f"# mismatch {pid}: planned {planned}; got {got}; in {passes} passes{known}")
    lines += [f"# note: {note}" for note in report["notes"]]
    if trace:
        metrics = report["metrics"]
        whole = metrics["evaluation.run_problem_us"]["value"]
        lines.append("# share of run_problem span time: " + ", ".join(
            f"{name} {100 * metrics[name]['value'] / whole:.0f}%" for name in SHARES))
        lines.append("# self time inside run_problem by layer (us/problem): " + ", ".join(
            f"{layer} {us:.1f}" for layer, us in report["layer_self_us"].items()
        ) + f"; sum {sum(report['layer_self_us'].values()):.1f} of evaluation.run_problem_us "
            f"{report['metrics']['evaluation.run_problem_us']['value']:.1f}")
        lines.append(f"# spans of the first traced pass: {report['spans']}")
    lines.append(f"# host.spin_ms before {report['spins'][0]:.1f} after {report['spins'][1]:.1f}")
    for name, m in report["metrics"].items():
        lines.append(f"{workload:<20} {name:<32} {m['value']:>14.4f} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    required = [ROOT / "src" / "declsolve" / "__init__.py",
                *(ROOT / "tests" / "data" / "replay" / f"expected_{name}"
                  for name in ("records.jsonl", "report.txt", "summary.csv"))]
    missing = [str(path.relative_to(ROOT)) for path in required if not path.is_file()]
    if missing:
        print(f"not a declsolve checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            report = measure(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except RunFailed as err:
            print(f"{workload}: run failed: {err}", file=sys.stderr)
            return 1
        print("\n".join(describe(workload, args.seed, report, bool(args.trace))), flush=True)
        result["correct"] &= report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        result["metrics"].update({prefix + name: m for name, m in report["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
