"""The traced benchmark run (`bench/run.py --trace 1`) wraps names in
declsolve's modules by name, so renaming one of them must fail here too."""

import importlib.util
import json
from pathlib import Path

from fractions import Fraction

import pytest

from declsolve import evaluation, solver
from declsolve.client import CompletionRequest, Replay, append_record
from declsolve.evaluation import Problem, RunConfig, run_eval
from declsolve.exprs import DivisionByZeroError
from declsolve.parsing import script_from_transcript
from declsolve.prompts import Exemplar, PromptSpec, assemble_prompt
from declsolve.solver import EquationSystem, NumericDivergenceError

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("declsolve_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_that_exist_and_puts_them_back():
    system = EquationSystem.from_script(
        script_from_transcript("[[var a]] [[a = 3]] [[var b]] [[b = a + 1]] [[answer = b]]")
    )
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()  # a missing name raises KeyError here
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert callable(original) or isinstance(original, classmethod), (owner, attr)
            assert owner.__dict__[attr] is not original, (owner, attr)
        solver.solve_system(system)
        assert tracer.counts()["exprs.eval_exact_calls"] > 0
        assert [span[0] for span in tracer.spans] == ["solver.substitute"]
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_tracer_sees_the_report_and_each_problem_of_a_run(tmp_path):
    spec = PromptSpec("declarative", (Exemplar("One plus one?", "[[var s]] [[s = 1 + 1]] [[answer = s]]"),))
    config = RunConfig(model="m")
    problems = [Problem("p1", "Two plus two?", Fraction(4)), Problem("p2", "Three plus three?", Fraction(6))]
    cassette = tmp_path / "cassette.jsonl"
    for problem in problems:
        request = CompletionRequest(
            config.model, assemble_prompt(spec, problem.question), config.params, config.stop_sequences
        )
        append_record(cassette, request, f"[[var n]] [[n = {problem.gold_answer}]] [[answer = n]]")
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        report = run_eval(problems, spec, Replay(str(cassette)), config, out_dir=tmp_path / "out")
    finally:
        tracer.uninstall()
    assert report.solve_rate == 100.0
    names = [span[0] for span in tracer.spans]
    assert names.count("evaluation.emit_report") == 1
    assert sorted(span[4] for span in tracer.spans if span[0] == "parsing.script") == ["p1", "p2"]
    for problem in problems:
        inside = [span[0] for span in tracer.spans if span[4] == problem.id]
        assert inside.count("parsing.extract") == 1
        assert inside.count("parsing.declaration") == 3
    assert tracer.counts()["parsing.declarations"] == 6


def test_tracer_counts_solve_failures_under_the_listed_names():
    """A zero divisor met in a branch is counted as the one solver failure
    class the benchmark lists for it, not as the expression error."""
    system = EquationSystem.from_script(
        script_from_transcript(
            "[[var x]] [[var y]] [[x = 0]] [[x / (y - 3) = 0]] [[x + y = 3]] [[answer = x]]"
        )
    )
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        with pytest.raises(NumericDivergenceError) as info:
            evaluation.solve_system(system)
    finally:
        tracer.uninstall()
    assert isinstance(info.value.__cause__, DivisionByZeroError)
    counts = tracer.counts()
    assert counts["solver.fail.NumericDivergenceError"] == 1
    listed = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    failures = {name for name in counts if name.startswith("solver.fail.")}
    assert failures <= listed, failures - listed
