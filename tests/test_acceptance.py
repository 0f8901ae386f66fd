"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints exactly one `[acceptance] <criterion>: PASS|FAIL` line
(visible with `pytest -s tests/test_acceptance.py`, or on failure).
"""

from __future__ import annotations

import inspect
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import declsolve
import declsolve.evaluation as ev
from declsolve import solver
from declsolve.client import CompletionRequest, Live, Replay, append_record, fingerprint
from declsolve.evaluation import RunConfig, load_gsm8k, run_eval, run_problem
from declsolve.exprs import Add, Div, Mul, Neg, Num, Pow, Sub, Var, render
from declsolve.parsing import parse_expression
from declsolve.prompts import (
    VARIANT_LLM_SOLVES,
    VARIANT_ONE_STEP,
    VARIANT_PRINCIPLES,
    VARIANTS,
    Exemplar,
    PromptSpec,
    assemble_prompt,
    spec_for_variant,
)
from declsolve.solver import EquationSystem, solve_linear

from test_principle_fixtures import FIXTURES, flagged, stages

F = Fraction
REPLAY_DIR = Path(__file__).parent / "data" / "replay"


def univariate_roots(equation, var: str) -> list:
    return solver._solve_univariate(equation, var)[0]


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


# --- criterion: 1,000 exact linear systems in under 5 seconds -------------------

def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = F(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += F(-1) ** j * matrix[0][j] * _det(minor)
    return total


def test_linear_system_oracle_suite():
    rng = random.Random(190)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        size = rng.randint(1, 6)
        names = [f"v{i}" for i in range(size)]
        solution = {n: F(rng.randint(-40, 40), rng.randint(1, 7)) for n in names}
        while True:
            matrix = [[F(rng.randint(-9, 9)) for _ in range(size)] for _ in range(size)]
            if _det(matrix) != 0:
                break
        equations = []
        for row in matrix:
            lhs = Num(0)
            rhs = F(0)
            for coeff, name in zip(row, names):
                lhs = Add(lhs, Mul(Num(coeff), Var(name)))
                rhs += coeff * solution[name]
            equations.append((lhs, Num(rhs)))
        system = EquationSystem(tuple(equations), frozenset(names), names[0])
        if solve_linear(system) != solution:
            failures += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "linear-systems-1000-exact-under-5s",
        failures == 0 and elapsed < 5.0,
        f"{failures} wrong, {elapsed:.2f}s",
    )


# --- criterion: quadratic roots, exact and irrational ------------------------------

def _quadratic_expr(c2: Fraction, c1: Fraction, c0: Fraction):
    x = Var("x")
    return Add(Add(Mul(Num(c2), Pow(x, Num(2))), Mul(Num(c1), x)), Num(c0))


def test_univariate_root_suite():
    rng = random.Random(77)
    bad_exact = 0
    for _ in range(200):
        r1 = F(rng.randint(-30, 30), rng.randint(1, 9))
        r2 = F(rng.randint(-30, 30), rng.randint(1, 9))
        while r2 == r1:
            r2 = F(rng.randint(-30, 30), rng.randint(1, 9))
        a = F(rng.choice([1, 2, 3, -1, -2, 5]))
        c2, c1, c0 = a, -a * (r1 + r2), a * r1 * r2
        roots = univariate_roots((_quadratic_expr(c2, c1, c0), Num(0)), "x")
        if sorted(roots) != sorted([r1, r2]) or not all(
            isinstance(r, Fraction) for r in roots
        ):
            bad_exact += 1

    bad_irrational = 0
    produced = 0
    while produced < 50:
        c2 = F(rng.randint(1, 9))
        c1 = F(rng.randint(-9, 9))
        c0 = F(rng.randint(-9, 9))
        disc = c1 * c1 - 4 * c2 * c0
        if disc <= 0:
            continue
        root = disc.numerator * disc.denominator
        if math.isqrt(root) ** 2 == root:
            continue  # rational roots; we want irrational here
        produced += 1
        roots = univariate_roots((_quadratic_expr(c2, c1, c0), Num(0)), "x")
        for r in roots:
            residual = abs(float(c2) * r * r + float(c1) * r + float(c0))
            if residual >= 1e-9:
                bad_irrational += 1
    _verdict(
        "quadratics-200-exact-50-irrational",
        bad_exact == 0 and bad_irrational == 0,
        f"{bad_exact} exact misses, {bad_irrational} residuals over 1e-9",
    )


# --- criterion: 10,000 expression round-trips ----------------------------------------

def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(["x", "y", "z", "w"]))
        if rng.random() < 0.7:
            return Num(rng.randint(0, 10**6))
        return Num(F(rng.randint(0, 99999), 10 ** rng.randint(1, 4)))
    kind = rng.randint(0, 5)
    if kind == 0:
        return Neg(_random_expr(rng, depth - 1))
    ctor = (Add, Sub, Mul, Div, Pow)[kind - 1]
    return ctor(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_parser_round_trip_suite():
    rng = random.Random(411)
    failures = 0
    for _ in range(10_000):
        e = _random_expr(rng, rng.randint(0, 8))
        if parse_expression(render(e)) != e:
            failures += 1
    _verdict("parser-round-trip-10000", failures == 0, f"{failures} failures")


# --- criterion: principle fixture suite ------------------------------------------------

def test_principle_enforcement_suite():
    mismatches = []
    for name, (transcript, question, expect_fail, expect_warn) in sorted(FIXTURES.items()):
        if flagged(stages(transcript, question)) != (expect_fail, expect_warn):
            mismatches.append(name)
    _verdict(
        "principle-fixtures-exact-flagging",
        len(FIXTURES) >= 15 and not mismatches,
        f"{len(FIXTURES)} fixtures, mismatches: {mismatches or 'none'}",
    )


# --- criterion: byte-golden replay, twice, under 10s, no network -------------------------

def _no_network(*args, **kwargs):
    raise AssertionError("replay must not touch any transport")


def _replay_run(tmp_path, label, workers=1):
    problems = load_gsm8k(f"{REPLAY_DIR}/problems.jsonl")
    spec = spec_for_variant("declarative_principles")
    config = RunConfig(model="fixture-completions-v1")
    out = tmp_path / label
    run_eval(
        problems,
        spec,
        Replay(f"{REPLAY_DIR}/cassette.jsonl"),
        config,
        dataset_name="replay-25",
        out_dir=out,
        workers=workers,
        transport=_no_network,
    )
    return out


def test_end_to_end_replay_is_byte_golden(tmp_path):
    start = time.perf_counter()
    first = _replay_run(tmp_path, "first")
    second = _replay_run(tmp_path, "second")
    elapsed = time.perf_counter() - start

    golden = {
        "records.jsonl": "expected_records.jsonl",
        "report.txt": "expected_report.txt",
        "summary.csv": "expected_summary.csv",
    }
    mismatched = []
    for produced, expected in golden.items():
        want = open(f"{REPLAY_DIR}/{expected}", "rb").read()
        if (first / produced).read_bytes() != want or (
            second / produced
        ).read_bytes() != want:
            mismatched.append(produced)

    rows = [
        json.loads(line)
        for line in (first / "records.jsonl").read_text().splitlines()[1:]
    ]
    sum_diff = next(r for r in rows if r["id"] == "fix-001")
    pattern_ok = sum_diff["verdict"] == "Correct" and sum_diff["predicted"] == "8"
    _verdict(
        "replay-cassette-byte-golden-twice-under-10s",
        not mismatched and elapsed < 10.0 and len(rows) == 25 and pattern_ok,
        f"{elapsed:.2f}s, mismatched: {mismatched or 'none'}, sum/diff -> "
        f"{sum_diff['predicted']}",
    )


# --- criterion: variant distinctness + solver bypass ---------------------------------------

def test_variant_distinctness_and_solver_bypass(tmp_path, monkeypatch):
    # the script variants share one script; one-step takes a single equation
    shared = (Exemplar("One and one?", "The pair [[var pair]] is [[pair = 1 + 1]], so [[answer = pair]]."),)
    single = (Exemplar("One and one?", "The pair is [[pair = 1 + 1]]."),)
    config = RunConfig(model="m")
    digests = set()
    for variant in VARIANTS:
        spec = PromptSpec(variant, single if variant == VARIANT_ONE_STEP else shared)
        prompt = assemble_prompt(spec, "Fixed question?")
        digests.add(
            fingerprint(CompletionRequest("m", prompt, config.params, config.stop_sequences))
        )

    # the llm-solves path must classify without ever calling the solver
    spec = PromptSpec(VARIANT_LLM_SOLVES, shared)
    problem = ev.Problem("p", "Two plus two?", F(4))
    cassette = tmp_path / "c.jsonl"
    request = CompletionRequest(
        config.model, assemble_prompt(spec, problem.question), config.params, config.stop_sequences
    )
    append_record(cassette, request, "[[var s]] [[s = 2 + 2]] [[answer = s]]\nThe final answer is 4.")

    def boom(*args, **kwargs):
        raise AssertionError("solver invoked on the llm-solves path")

    monkeypatch.setattr(ev, "solve_system", boom)
    record = run_problem(problem, spec, config, Replay(str(cassette)))
    _verdict(
        "variant-distinctness-and-llm-solves-bypass",
        len(digests) == 4 and record.verdict == "Correct",
        f"{len(digests)} digests, verdict {record.verdict}",
    )


# --- criterion: worker-count invariance ------------------------------------------------------

def test_parallel_determinism(tmp_path):
    one = _replay_run(tmp_path, "w1", workers=1)
    eight = _replay_run(tmp_path, "w8", workers=8)
    same = all(
        (one / name).read_bytes() == (eight / name).read_bytes()
        for name in ("records.jsonl", "report.txt", "summary.csv")
    )
    _verdict("workers-1-vs-8-identical-reports", same)


# --- criterion: table-scale rates are not desk-reproducible; live path still works ------------

def test_live_path_produces_table_shaped_report(tmp_path):
    """The recorded-model rates depend on a retired model, so the stand-in
    check is: the Live path speaks the completions wire format end to end
    and yields the same report shape."""
    spec = spec_for_variant(VARIANT_PRINCIPLES)
    config = RunConfig(model="stand-in-model")
    problems = [
        ev.Problem("live-0", "What is 3 plus 4?", F(7)),
        ev.Problem("live-1", "What is 10 minus 6?", F(4)),
    ]
    scripted = {
        problems[0].question: " So [[var s]], [[s = 3 + 4]], [[answer = s]].",
        problems[1].question: " So [[var d]], [[d = 10 - 6]], [[answer = d]].",
    }
    payloads = []

    def endpoint(url, payload, headers, timeout):
        payloads.append(payload)
        question = payload["prompt"].rsplit("Question: ", 1)[1].rsplit("\n\nSolution:", 1)[0]
        return 200, json.dumps({"choices": [{"text": scripted[question]}]})

    report = run_eval(
        problems,
        spec,
        Live("https://compatible.example/v1/completions"),
        config,
        dataset_name="live-shape",
        out_dir=tmp_path / "live",
        transport=endpoint,
    )
    wire_ok = all(
        p["model"] == "stand-in-model"
        and p["temperature"] == 0.0
        and p["max_tokens"] == 600
        and p["n"] == 1
        and p["stop"] == ["Question:"]
        for p in payloads
    )
    table = (tmp_path / "live" / "report.txt").read_text()
    shape_ok = (
        report.solve_rate == 100.0
        and "variant" in table
        and "declarative_principles" in table
        and (tmp_path / "live" / "summary.csv").exists()
    )
    _verdict(
        "live-endpoint-path-table-shaped-report",
        wire_ok and shape_ok,
        f"rate {report.solve_rate:.1f}",
    )


# --- criterion: the export list is the package's public surface -----------------------------

def test_export_list_matches_public_names():
    exported = declsolve.__all__
    unresolved = [name for name in exported if not hasattr(declsolve, name)]
    unlisted = sorted(
        name
        for name, value in vars(declsolve).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and name not in exported
    )
    _verdict(
        "export-list-matches-public-names",
        not unresolved and not unlisted and len(set(exported)) == len(exported),
        f"unresolved: {unresolved or 'none'}, unlisted: {unlisted or 'none'}",
    )
