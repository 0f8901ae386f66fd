"""One benchmark process: a fresh interpreter that imports declsolve from src/.

    python3 bench/child.py <mode> <workdir> <workload> [seconds]

Modes:
  prepare  replay the committed 25-problem fixture and compare the output byte
           for byte with tests/data/replay/expected_*, then write the workload
           files for the seed stored in <workdir>/seed
  setup    cold start only: import, dataset load, prompt spec, cassette load
  run      untraced: set up, an untimed warm-up pass over the first
           WARMUP_PROBLEMS problems, then timed passes over all of them for
           at most [seconds] (record-resume: every pass, warm-up too,
           records into its own fresh copy of the half-filled cassette)
  trace    set up, warm-up, then untraced and traced passes in turn; the
           spans of the first traced pass go to <workdir>/spans.jsonl

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "replay"
ENDPOINT = "fake://bench-endpoint/v1/completions"  # only the fake transport sees it
ENDPOINT_LATENCY_S = 0.020
WORKERS = {"record-resume": 2}
# The warm-up loads the cassette and runs every template (the mix is
# shuffled); a longer one only makes the run longer.
WARMUP_PROBLEMS = 200


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


# --------------------------------------------------------------------------
# prepare

def prepare(workdir: Path, workload: str) -> dict:
    from declsolve import Replay, RunConfig, load_gsm8k, run_eval, spec_for_variant

    with tempfile.TemporaryDirectory(dir=workdir) as out:
        run_eval(
            load_gsm8k(FIXTURE / "problems.jsonl"),
            spec_for_variant("declarative_principles"),
            Replay(str(FIXTURE / "cassette.jsonl")),
            RunConfig(model="fixture-completions-v1"),
            dataset_name="replay-25",
            out_dir=out,
            transport=no_network,
        )
        mismatched = [
            name for name in ("records.jsonl", "report.txt", "summary.csv")
            if (Path(out) / name).read_bytes() != (FIXTURE / f"expected_{name}").read_bytes()
        ]
    seed = int((workdir / "seed").read_text())
    summary = gen.write_workload(workdir, workload, seed)
    return {"golden_mismatched": mismatched, **summary}


def no_network(*args, **kwargs):
    raise AssertionError("replay mode must not call the transport")


class FakeEndpoint:
    """An OpenAI-shaped completions endpoint on the public ``transport=``
    hook: it answers from endpoint.jsonl by prompt after a fixed latency,
    and with 404 for a prompt it does not know (a planned ClientFailure)."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        self.completions = {row["prompt"]: row["completion"] for row in rows}

    def __call__(self, url, payload, headers, timeout):
        time.sleep(ENDPOINT_LATENCY_S)
        text = self.completions.get(payload["prompt"])
        if text is None:
            return 404, json.dumps({"error": {"message": "unknown prompt", "type": "invalid_request_error"}})
        return 200, json.dumps({
            "object": "text_completion", "model": payload["model"],
            "choices": [{"text": text, "index": 0, "logprobs": None, "finish_reason": "stop"}],
        })


# --------------------------------------------------------------------------
# set-up and passes

class Context:
    """Everything a pass needs, built by the timed cold start."""

    def __init__(self, workdir: Path, workload: str):
        started = time.perf_counter()
        import declsolve

        imported = time.perf_counter()
        self.problems = declsolve.load_gsm8k(workdir / "problems.jsonl")
        loaded = time.perf_counter()
        self.spec = declsolve.spec_for_variant(gen.VARIANT)
        specced = time.perf_counter()
        declsolve.Cassette.load(workdir / "cassette.jsonl")
        self.ready = time.perf_counter()
        self.setup_ms = {
            "import": 1e3 * (imported - started),
            "load": 1e3 * (loaded - imported),
            "spec": 1e3 * (specced - loaded),
            "cassette": 1e3 * (self.ready - specced),
        }
        self.workdir = workdir
        self.workload = workload
        self.config = declsolve.RunConfig(model=gen.MODEL)
        self.workers = WORKERS.get(workload, 1)
        self.recording = workload == "record-resume"
        self.transport = FakeEndpoint(workdir / "endpoint.jsonl") if self.recording else no_network
        with open(workdir / "plan.jsonl", encoding="utf-8") as handle:
            self.plans = [json.loads(line) for line in handle]
        self.passes = 0

    def run_pass(self, count: int | None = None, transport=None) -> dict:
        """One run_eval over the dataset (or its first `count` problems),
        checked against the plan afterwards."""
        import declsolve

        problems = self.problems[:count]
        plans = self.plans[:len(problems)]
        self.passes += 1
        out_dir = self.workdir / f"pass-{self.passes}"
        seeded = self.workdir / "cassette.jsonl"
        if self.recording:
            out_dir.mkdir()
            cassette = out_dir / "cassette.jsonl"
            shutil.copyfile(seeded, cassette)
            mode = declsolve.RecordThrough(ENDPOINT, str(cassette))
        else:
            mode = declsolve.Replay(str(seeded))
        cpu = time.process_time()
        start = time.perf_counter()
        report = declsolve.run_eval(problems, self.spec, mode, self.config,
                                    dataset_name=self.workload, workers=self.workers,
                                    out_dir=out_dir, transport=transport or self.transport)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu

        mismatches = [m for m in map(mismatch, report.records, plans) if m]
        notes = []
        if line_count(out_dir / "records.jsonl") != len(problems) + 1:
            notes.append("records.jsonl does not hold one line per problem")
        if self.recording:
            declsolve.client.forget_cassette(mode.cassette_path)
            appended = line_count(cassette) - line_count(seeded)
            planned = sum(plan["live"] for plan in plans)
            if appended != planned:
                notes.append(f"{appended} completions recorded, {planned} planned")
        shutil.rmtree(out_dir)
        return {
            "wall": wall, "cpu": cpu, "n": len(report.records),
            "solve_rate": report.solve_rate, "histogram": report.histogram,
            "mismatches": mismatches, "problems": notes,
        }


def line_count(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def departure(record, expected: dict) -> str | None:
    """How a record departs from an expected outcome, or None when it matches."""
    got = record.verdict
    if got != expected["verdict"] or (
        expected["detail"] is not None and record.detail != expected["detail"]
    ):
        return f"verdict {got}" + (f" ({record.detail})" if record.detail else "")
    if expected["predicted"] is not None and (
        not isinstance(record.predicted, Fraction) or record.predicted != Fraction(expected["predicted"])
    ):
        return f"answer {record.predicted}"
    if expected["candidates"] is not None and (
        record.outcome is None or sorted(map(str, record.outcome.candidates)) != expected["candidates"]
    ):
        return "candidates " + ", ".join(map(str, record.outcome.candidates if record.outcome else ()))
    if record.script is not None and record.principle_warnings != expected["warnings"]:
        return f"{record.principle_warnings} rule-5 warnings"
    return None


def mismatch(record, plan) -> dict | None:
    """How a record departs from its plan, or None when it matches.  The
    departure carries the plan's defect note only when the record equals the
    outcome that known defect produces; any other departure is unexplained."""
    why = departure(record, plan)
    if why is None:
        return None
    planned = plan["verdict"]
    if plan["candidates"] is not None:
        planned += f" {plan['predicted']} of {{{', '.join(plan['candidates'])}}}"
    known = plan["known"] is not None and departure(record, plan["known"]) is None
    return {"id": plan["id"], "planned": planned, "got": why, "defect": plan["defect"] if known else ""}


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile; demands ten samples beyond it."""
    rank = -(-len(ordered) * pct // 100)
    if len(ordered) - rank < 10:
        raise ValueError(f"p{pct} needs at least {int(1000 / (100 - pct))} samples")
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# run and trace

def passes_within(seconds: float):
    """Yield until the next round would end after `seconds` (at least once),
    assuming it takes as long as the last one."""
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - begin + (now - started) > seconds:
            return

def run(workdir: Path, workload: str, seconds: float) -> dict:
    ctx = Context(workdir, workload)
    from declsolve import evaluation

    # Seconds per run_problem call, by problem.  The keys exist before the
    # workers start, so threads only append to their own problem's array.
    latencies = {problem.id: array("d") for problem in ctx.problems}
    original = evaluation.run_problem

    def timed(problem, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(problem, *args, **kwargs)
        finally:
            latencies[problem.id].append(time.perf_counter() - start)

    evaluation.run_problem = timed
    warmup = ctx.run_pass(WARMUP_PROBLEMS)
    for samples in latencies.values():
        del samples[:]
    passes = []
    peak_rss_mb = None
    for _ in passes_within(seconds):
        passes.append(ctx.run_pass())
        if peak_rss_mb is None:
            # The peak of one run over the dataset, as a user's process has
            # it; later passes only add allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A problem's latency is its median over the timed passes, so a stall of
    # the host or a garbage collection that hits it in one pass drops out;
    # the percentiles are taken over problems.
    typical = sorted(statistics.median(samples) for samples in latencies.values())
    return {
        "ready": ctx.ready, "setup_ms": ctx.setup_ms, "warmup": warmup, "passes": passes,
        "p50_ms": 1e3 * percentile(typical, 50), "p99_ms": 1e3 * percentile(typical, 99),
        "peak_rss_mb": peak_rss_mb,
    }


def trace(workdir: Path, workload: str, seconds: float) -> dict:
    ctx = Context(workdir, workload)
    tracer = tracing.Tracer()
    warmup = ctx.run_pass(WARMUP_PROBLEMS)
    untraced, traced, counts = [], [], []
    for _ in passes_within(seconds):
        untraced.append(ctx.run_pass())
        tracer.reset()
        tracer.install()
        try:
            result = ctx.run_pass(transport=tracer.transport(ctx.transport))
        finally:
            tracer.uninstall()
        result["layers"] = layer_times(tracer, result)
        if not traced:
            tracer.dump(workdir / "spans.jsonl")
        counts.append(dict(tracer.counts()))
        traced.append(result)
    return {"ready": ctx.ready, "setup_ms": ctx.setup_ms, "warmup": warmup,
            "untraced": untraced, "traced": traced, "counts": counts}


def layer_times(tracer, result) -> dict:
    """Per-problem span times (us) and per-pass times (ms) of one traced pass."""
    total, own, inside = tracer.totals()
    n = result["n"]
    return {
        "total_us": {name: 1e6 * seconds / n for name, seconds in total.items()},
        "self_us": {name: 1e6 * seconds / n for name, seconds in own.items()},
        "problem_self_us": {name: 1e6 * seconds / n for name, seconds in inside.items()},
        "orchestration_ms": 1e3 * (result["wall"] - tracer.problem_busy()),
    }


def main() -> int:
    mode, workdir, workload = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    seconds = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
    if mode == "prepare":
        emit(prepare(workdir, workload))
    elif mode == "setup":
        ctx = Context(workdir, workload)
        emit({"ready": ctx.ready, "setup_ms": ctx.setup_ms})
    elif mode == "run":
        emit(run(workdir, workload, seconds))
    elif mode == "trace":
        emit(trace(workdir, workload, seconds))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
